// core::VpValue: the selection math is pinned against brute force.
//
// compute_atoms' column-masked partition is verified subset-by-subset
// against a naive per-row key grouping (exhaustive over every column
// subset of a small matrix), select_vps' gains and argmax step by step
// against the same grouping, and select_vps' determinism contract is
// pinned three ways: bit-identical across thread counts, invariant under
// column permutation (gains, fidelity curve, fingerprint, selected
// column *contents* — indices may differ only between byte-identical
// columns), and budget=unlimited reproducing the full partition
// bit-identically (fingerprint-equal to compute_atoms over the same
// snapshot). The masked IncrementalAtoms path is held in lockstep
// against both its own recompute oracle and a full-width twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/views.h"
#include "core/atoms.h"
#include "core/incremental.h"
#include "core/vp_value.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

/// Eight VPs over 24 prefixes with overlapping path classes and per-VP
/// visibility gaps: small enough for exhaustive subset enumeration,
/// varied enough that different subsets induce genuinely different
/// partitions (including duplicate columns: VP 6 mirrors VP 0).
SanitizedSnapshot oracle_snapshot() {
  DatasetBuilder b;
  for (int vp = 0; vp < 8; ++vp) {
    b.peer(static_cast<net::Asn>(100 + vp));
    for (int i = 0; i < 24; ++i) {
      if (vp == 1 && i % 5 == 0) continue;  // visibility gaps
      if (vp == 4 && i % 7 == 2) continue;
      // Path class varies per VP at different granularity; VP 6 repeats
      // VP 0's table exactly (a fully redundant column).
      const int as_vp = vp == 6 ? 100 : 100 + vp;
      const int mod = vp == 6 ? 3 : 3 + vp % 4;
      b.route("10.0." + std::to_string(i) + ".0/24",
              std::to_string(as_vp) + " " + std::to_string(7 + i % mod) +
                  " 1");
    }
  }
  return sanitize(b.dataset(), 0, test::lax_config());
}

/// Naive row grouping on a column subset: distinct key-tuples.
std::size_t naive_groups(const AtomSignatureMatrix& m,
                         const std::vector<std::uint32_t>& vps) {
  std::set<std::vector<std::uint32_t>> keys;
  for (std::size_t i = 0; i < m.num_prefixes(); ++i) {
    std::vector<std::uint32_t> key;
    for (const std::uint32_t vp : vps) key.push_back(m.cell(i, vp));
    keys.insert(std::move(key));
  }
  return m.num_prefixes() == 0 ? 0 : keys.size();
}

/// Naive first-encounter labels of the rows grouped on a column subset:
/// row i's label is the number of distinct key-tuples met before its own.
std::vector<std::uint32_t> naive_labels(const AtomSignatureMatrix& m,
                                        const std::vector<std::uint32_t>& vps) {
  std::map<std::vector<std::uint32_t>, std::uint32_t> label_of_key;
  std::vector<std::uint32_t> labels;
  for (std::size_t i = 0; i < m.num_prefixes(); ++i) {
    std::vector<std::uint32_t> key;
    for (const std::uint32_t vp : vps) key.push_back(m.cell(i, vp));
    const auto next = static_cast<std::uint32_t>(label_of_key.size());
    labels.push_back(label_of_key.emplace(std::move(key), next).first->second);
  }
  return labels;
}

/// Per-row atom index of `atoms` (rows in snapshot.prefixes order).
std::vector<std::uint32_t> labels_of(const AtomSet& atoms) {
  std::vector<std::uint32_t> labels;
  for (const bgp::PrefixId p : atoms.snapshot->prefixes) {
    labels.push_back(atoms.atom_of.at(p));
  }
  return labels;
}

std::vector<std::uint32_t> subset_of(unsigned mask) {
  std::vector<std::uint32_t> vps;
  for (std::uint32_t c = 0; c < 32; ++c) {
    if (mask & (1u << c)) vps.push_back(c);
  }
  return vps;
}

TEST(VpValue, MaskedPartitionMatchesNaiveGroupingOnEverySubset) {
  const auto snap = oracle_snapshot();
  const auto m = AtomSignatureMatrix::build(snap);
  ASSERT_EQ(m.num_vps(), 8u);

  // An empty vp_subset means every column, so the zero-column mask is
  // left out.
  for (unsigned mask = 1; mask < (1u << 8); ++mask) {
    AtomOptions masked;
    masked.vp_subset = subset_of(mask);
    const AtomSet atoms = compute_atoms(snap, masked);
    // Same atom iff same key tuple, and atoms numbered in first-encounter
    // row order.
    EXPECT_EQ(labels_of(atoms), naive_labels(m, masked.vp_subset))
        << "mask " << mask;
    EXPECT_EQ(atoms.atoms.size(), naive_groups(m, masked.vp_subset))
        << "mask " << mask;
  }
}

TEST(VpValue, GreedyChoosesMaxGainWithLexTieBreakEveryStep) {
  const auto snap = oracle_snapshot();
  const auto m = AtomSignatureMatrix::build(snap);
  const auto selection = select_vps(m);

  std::vector<std::uint32_t> selected;
  // Marginal refinement of column c beyond `selected`, by brute force.
  const auto gain_of = [&](std::uint32_t c) {
    auto with = selected;
    with.push_back(c);
    return naive_groups(m, with) - naive_groups(m, selected);
  };
  for (const auto& step : selection.steps) {
    // Oracle the argmax: the chosen column's gain equals the maximum
    // marginal refinement over all unselected columns.
    std::size_t best_gain = 0;
    for (std::uint32_t c = 0; c < m.num_vps(); ++c) {
      if (std::find(selected.begin(), selected.end(), c) != selected.end()) {
        continue;
      }
      best_gain = std::max(best_gain, gain_of(c));
    }
    EXPECT_EQ(step.gain, gain_of(step.vp));
    EXPECT_EQ(step.gain, best_gain);
    EXPECT_GE(step.gain, 1u);

    // Tie-break: no unselected argmax column has lexicographically
    // smaller content than the chosen one.
    for (std::uint32_t c = 0; c < m.num_vps(); ++c) {
      if (c == step.vp ||
          std::find(selected.begin(), selected.end(), c) != selected.end()) {
        continue;
      }
      if (gain_of(c) != best_gain) continue;
      bool chosen_not_greater = true;  // chosen <= c lexicographically
      for (std::size_t i = 0; i < m.num_prefixes(); ++i) {
        if (m.cell(i, step.vp) != m.cell(i, c)) {
          chosen_not_greater = m.cell(i, step.vp) < m.cell(i, c);
          break;
        }
      }
      EXPECT_TRUE(chosen_not_greater)
          << "column " << c << " ties gain but is lex-smaller than chosen "
          << step.vp;
    }
    selected.push_back(step.vp);
  }
  // Greedy ran to fidelity 1.0 and the duplicate column (VP 6 == VP 0)
  // guarantees at least one column is pure redundancy: never selected.
  EXPECT_EQ(selection.fidelity, 1.0);
  EXPECT_LT(selection.steps.size(), m.num_vps());
}

TEST(VpValue, BitIdenticalAcrossThreadCounts) {
  const auto snap = oracle_snapshot();
  const auto m = AtomSignatureMatrix::build(snap);

  VpSelectOptions base;
  base.threads = 1;
  const auto oracle = select_vps(m, base);
  for (const int threads : {2, 8}) {
    VpSelectOptions opt;
    opt.threads = threads;
    const auto got = select_vps(m, opt);
    EXPECT_EQ(got.steps, oracle.steps);
    EXPECT_EQ(got.vps, oracle.vps);
    EXPECT_EQ(got.fingerprint, oracle.fingerprint);
    EXPECT_EQ(got.fidelity, oracle.fidelity);
    EXPECT_EQ(got.full_groups, oracle.full_groups);
  }
}

TEST(VpValue, BitIdenticalAcrossThreadCountsAboveParallelGate) {
  // Enough rows to cross the scoring loop's 4096-row parallel gate so
  // multi-worker scoring actually runs.
  DatasetBuilder b;
  for (int vp = 0; vp < 5; ++vp) {
    b.peer(static_cast<net::Asn>(100 + vp));
    for (int i = 0; i < 5000; ++i) {
      if (vp == 2 && i % 13 == 0) continue;
      b.route("10." + std::to_string(i / 250) + "." +
                  std::to_string(i % 250) + ".0/24",
              std::to_string(100 + vp) + " " +
                  std::to_string(7 + i % (17 + vp)) + " 1");
    }
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  ASSERT_GE(snap.prefixes.size(), 4096u);
  const auto m = AtomSignatureMatrix::build(snap);

  VpSelectOptions base;
  base.threads = 1;
  const auto oracle = select_vps(m, base);
  ASSERT_GE(oracle.steps.size(), 2u);
  for (const int threads : {2, 8}) {
    VpSelectOptions opt;
    opt.threads = threads;
    const auto got = select_vps(m, opt);
    EXPECT_EQ(got.steps, oracle.steps);
    EXPECT_EQ(got.fingerprint, oracle.fingerprint);
  }
}

TEST(VpValue, InvariantUnderColumnPermutation) {
  const auto snap = oracle_snapshot();
  const auto m1 = AtomSignatureMatrix::build(snap);

  // A column-permuted twin: same rows, same interned cell values, VP
  // tables rotated. (SanitizedSnapshot is a plain value; permuting vps
  // permutes matrix columns and nothing else.)
  SanitizedSnapshot permuted = snap;
  std::rotate(permuted.vps.begin(), permuted.vps.begin() + 3,
              permuted.vps.end());
  const auto m2 = AtomSignatureMatrix::build(permuted);

  const auto s1 = select_vps(m1);
  const auto s2 = select_vps(m2);

  // Partition-level outputs are invariant...
  ASSERT_EQ(s1.steps.size(), s2.steps.size());
  EXPECT_EQ(s1.full_groups, s2.full_groups);
  EXPECT_EQ(s1.fidelity, s2.fidelity);
  EXPECT_EQ(s1.fingerprint, s2.fingerprint);
  for (std::size_t k = 0; k < s1.steps.size(); ++k) {
    EXPECT_EQ(s1.steps[k].gain, s2.steps[k].gain);
    EXPECT_EQ(s1.steps[k].groups, s2.steps[k].groups);
    EXPECT_EQ(s1.steps[k].fidelity, s2.steps[k].fidelity);
    EXPECT_EQ(s1.steps[k].rand_index, s2.steps[k].rand_index);
    EXPECT_EQ(s1.steps[k].split_distance, s2.steps[k].split_distance);
    // ...and so is each selected column's *content* (indices naturally
    // differ under the permutation).
    for (std::size_t i = 0; i < m1.num_prefixes(); ++i) {
      ASSERT_EQ(m1.cell(i, s1.steps[k].vp), m2.cell(i, s2.steps[k].vp))
          << "step " << k << " row " << i;
    }
  }

  // The masked partition itself does not depend on the order of the
  // columns: the twin holds snap's columns {0, 2, 5} at {5, 7, 2}, so its
  // subset {2, 5, 7} lists them as {5, 0, 2}.
  AtomOptions fwd;
  fwd.vp_subset = {0, 2, 5};
  AtomOptions rotated;
  rotated.vp_subset = {2, 5, 7};
  EXPECT_EQ(partition_fingerprint(compute_atoms(snap, fwd)),
            partition_fingerprint(compute_atoms(permuted, rotated)));
}

TEST(VpValue, FidelityMonotoneAndStepsPrefixInBudget) {
  const auto snap = oracle_snapshot();
  const auto m = AtomSignatureMatrix::build(snap);

  double prev = 0.0;
  std::vector<VpStep> prev_steps;
  for (std::size_t budget = 1; budget <= m.num_vps(); ++budget) {
    VpSelectOptions opt;
    opt.budget = budget;
    const auto got = select_vps(m, opt);
    EXPECT_LE(got.steps.size(), budget);
    EXPECT_GE(got.fidelity, prev) << "budget " << budget;
    // Greedy is incremental: budget b's steps are a prefix of b+1's.
    ASSERT_GE(got.steps.size(), prev_steps.size());
    for (std::size_t k = 0; k < prev_steps.size(); ++k) {
      EXPECT_EQ(got.steps[k], prev_steps[k]) << "budget " << budget;
    }
    // Within one selection the curve is monotone too (each step splits).
    for (std::size_t k = 1; k < got.steps.size(); ++k) {
      EXPECT_GT(got.steps[k].fidelity, got.steps[k - 1].fidelity);
      EXPECT_GT(got.steps[k].groups, got.steps[k - 1].groups);
      EXPECT_LT(got.steps[k].split_distance, got.steps[k - 1].split_distance);
    }
    prev = got.fidelity;
    prev_steps = got.steps;
  }
}

TEST(VpValue, UnlimitedBudgetReproducesFullPartitionBitIdentically) {
  const auto snap = oracle_snapshot();
  const auto m = AtomSignatureMatrix::build(snap);
  const auto selection = select_vps(m);

  ASSERT_EQ(selection.fidelity, 1.0);
  EXPECT_EQ(selection.steps.back().split_distance, 0u);

  // The selection's fingerprint is the full partition's, under the same
  // encoding the batch kernels and IncrementalAtoms use.
  const AtomSet full = compute_atoms(snap);
  EXPECT_EQ(selection.full_groups, full.atoms.size());
  EXPECT_EQ(selection.fingerprint, partition_fingerprint(full));

  // Masked compute_atoms over the selected subset: same partition.
  AtomOptions masked;
  masked.vp_subset = selection.vps;
  const AtomSet subset_atoms = compute_atoms(snap, masked);
  EXPECT_EQ(subset_atoms.atoms.size(), full.atoms.size());
  EXPECT_EQ(partition_fingerprint(subset_atoms), selection.fingerprint);
  EXPECT_EQ(subset_atoms.atom_of, full.atom_of);
}

TEST(VpValue, TieBreakPrefersLexSmallerColumnThenSmallerIndex) {
  // Two single-prefix columns with equal gain but different content: the
  // one whose column reads lexicographically smaller (absent at row 0)
  // must win the first pick.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");  // column [p, 0]
  b.peer(200).route("10.1.0.0/16", "200 1");  // column [0, p]
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto m = AtomSignatureMatrix::build(snap);
  const auto selection = select_vps(m);
  ASSERT_FALSE(selection.steps.empty());
  EXPECT_EQ(selection.steps[0].vp, 1u);  // [0, p] < [p, 0]

  // Byte-identical columns: the smaller index wins, and only one of the
  // twins is ever selected.
  DatasetBuilder b2;
  b2.peer(100).route("10.0.0.0/16", "7 1").route("10.1.0.0/16", "7 2");
  b2.peer(100, 1).route("10.0.0.0/16", "7 1").route("10.1.0.0/16", "7 2");
  const auto snap2 = sanitize(b2.dataset(), 0, test::lax_config());
  ASSERT_EQ(snap2.vps.size(), 2u);
  const auto m2 = AtomSignatureMatrix::build(snap2);
  const auto sel2 = select_vps(m2);
  ASSERT_EQ(sel2.steps.size(), 1u);
  EXPECT_EQ(sel2.steps[0].vp, 0u);
  EXPECT_EQ(sel2.fidelity, 1.0);
}

TEST(VpValue, RandIndexAndSplitDistanceAgainstDefinition) {
  const auto snap = oracle_snapshot();
  const auto m = AtomSignatureMatrix::build(snap);
  const auto selection = select_vps(m);
  std::vector<std::uint32_t> all(m.num_vps());
  for (std::uint32_t c = 0; c < m.num_vps(); ++c) all[c] = c;
  const auto full = naive_labels(m, all);

  std::vector<std::uint32_t> selected;
  for (const auto& step : selection.steps) {
    selected.push_back(step.vp);
    const auto labels = naive_labels(m, selected);
    // split_distance: classes still missing vs the full partition.
    EXPECT_EQ(step.split_distance, selection.full_groups - step.groups);
    // Rand index per definition: agreeing pairs / all pairs.
    const std::size_t n = m.num_prefixes();
    std::uint64_t agree = 0, total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        ++total;
        const bool together_sel = labels[i] == labels[j];
        const bool together_full = full[i] == full[j];
        if (together_sel == together_full) ++agree;
      }
    }
    EXPECT_DOUBLE_EQ(step.rand_index,
                     static_cast<double>(agree) / static_cast<double>(total));
  }
}

TEST(VpValue, EmptyAndDegenerateMatrices) {
  DatasetBuilder b;
  b.peer(100);
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto m = AtomSignatureMatrix::build(snap);
  const auto selection = select_vps(m);
  EXPECT_TRUE(selection.steps.empty());
  EXPECT_TRUE(selection.vps.empty());
  EXPECT_EQ(selection.full_groups, 0u);
  EXPECT_EQ(selection.fidelity, 1.0);

  // One prefix everywhere: the zero-column partition is already full.
  DatasetBuilder b2;
  b2.peer(100).route("10.0.0.0/16", "100 1");
  b2.peer(200).route("10.0.0.0/16", "200 1");
  const auto snap2 = sanitize(b2.dataset(), 0, test::lax_config());
  const auto m2 = AtomSignatureMatrix::build(snap2);
  const auto sel2 = select_vps(m2);
  EXPECT_TRUE(sel2.steps.empty());
  EXPECT_EQ(sel2.full_groups, 1u);
  EXPECT_EQ(sel2.fidelity, 1.0);
}

// ------------------------------------------------- masked incremental

TEST(VpValue, MaskedIncrementalTracksMaskedBatchKernels) {
  // Seed + update churn (mirrors test_incremental's dataset), maintained
  // twice: full width and masked to columns {0, 2}. At every chunk
  // boundary the masked partition must equal a masked batch recompute
  // over the full twin's maintained tables, and the masked atoms must be
  // bit-identical to compute_atoms over the masked rebuild.
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2")
      .route("10.3.0.0/16", "100 3 1");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2")
      .route("10.3.0.0/16", "200 3 1");
  b.peer(300)
      .route("10.0.0.0/16", "300 1")
      .route("10.1.0.0/16", "300 1")
      .route("10.2.0.0/16", "300 2")
      .route("10.3.0.0/16", "300 1");
  b.update(10, 0, "100 9 1", {"10.0.0.0/16"});
  b.update(20, 1, "200 2 2", {"10.2.0.0/16"});  // unselected peer: ignored
  b.update(30, 2, "", {}, {"10.3.0.0/16"});
  b.update(40, 2, "300 4 1", {"10.3.0.0/16"});
  b.update(50, 1, "200 1", {"10.1.0.0/16"}, {"10.1.0.0/16"});
  b.update(60, 0, "100 1", {"10.0.0.0/16"});
  b.update(70, 2, "300 2", {"10.2.0.0/16"});

  auto& ds = b.dataset();
  const auto seed = sanitize(ds, 0, test::lax_config());
  ASSERT_EQ(seed.vps.size(), 3u);

  AtomOptions masked;
  masked.vp_subset = {0, 2};
  IncrementalAtoms inc_masked(seed, ds.paths, masked);
  IncrementalAtoms inc_full(seed, ds.paths);
  EXPECT_EQ(inc_masked.num_vps(), 2u);

  const auto expect_boundary = [&] {
    // Masked atoms == compute_atoms over the masked rebuilt tables.
    const AtomSet live = inc_masked.atoms();
    const SanitizedSnapshot rebuilt = inc_masked.rebuild_snapshot();
    ASSERT_EQ(rebuilt.vps.size(), 2u);
    EXPECT_EQ(rebuilt.vps[0].peer.asn, 100u);
    EXPECT_EQ(rebuilt.vps[1].peer.asn, 300u);
    const AtomSet recomputed = compute_atoms(rebuilt);
    EXPECT_EQ(live.atoms, recomputed.atoms);
    EXPECT_EQ(live.atom_of, recomputed.atom_of);
    EXPECT_EQ(live.atoms_by_origin, recomputed.atoms_by_origin);

    // Masked partition == masking the full twin's maintained tables.
    const SanitizedSnapshot full_rebuilt = inc_full.rebuild_snapshot();
    AtomOptions cols;
    cols.vp_subset = {0, 2};
    EXPECT_EQ(partition_fingerprint(inc_masked.atoms()),
              partition_fingerprint(compute_atoms(full_rebuilt, cols)));
  };

  expect_boundary();
  for (std::size_t i = 0; i < ds.updates.size(); ++i) {
    const std::span<const bgp::UpdateRecord> one(&ds.updates[i], 1);
    inc_masked.apply(one);
    inc_full.apply(one);
    expect_boundary();
  }

  // The unselected peer's churn never touched the masked matrix.
  EXPECT_LT(inc_masked.counters().cell_writes,
            inc_full.counters().cell_writes);
}

TEST(VpValue, IncrementalRejectsMalformedSubsets) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  auto& ds = b.dataset();
  const auto seed = sanitize(ds, 0, test::lax_config());

  for (const std::vector<std::uint32_t>& bad :
       {std::vector<std::uint32_t>{0, 5}, std::vector<std::uint32_t>{1, 0},
        std::vector<std::uint32_t>{0, 0}}) {
    AtomOptions opt;
    opt.vp_subset = bad;
    EXPECT_THROW(IncrementalAtoms(seed, ds.paths, opt), std::invalid_argument);
  }
}

}  // namespace
}  // namespace bgpatoms::core
