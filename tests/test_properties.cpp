// Property-based tests: invariants swept over random seeds with
// parameterized gtest suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "bgp/archive.h"
#include "core/formation.h"
#include "core/longitudinal.h"
#include "core/stability.h"
#include "net/rng.h"

namespace bgpatoms::core {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

/// Builds a random small sanitizable dataset directly via the simulator.
routing::Simulator make_sim(std::uint64_t seed, double year = 2014.0) {
  routing::SimOptions opt;
  opt.seed = seed;
  return routing::Simulator(
      topo::generate_topology(topo::era_params_v4(year, 0.006), seed), opt);
}

TEST_P(SeedSweep, AtomsArePartition) {
  auto sim = make_sim(GetParam());
  sim.capture();
  const auto snap = sanitize(sim.dataset(), 0);
  const auto atoms = compute_atoms(snap);
  std::unordered_set<bgp::PrefixId> seen;
  for (const auto& atom : atoms.atoms) {
    for (bgp::PrefixId p : atom.prefixes) {
      EXPECT_TRUE(seen.insert(p).second) << "prefix in two atoms";
    }
  }
  EXPECT_EQ(seen.size(), snap.prefixes.size());
}

TEST_P(SeedSweep, RemovingAVantagePointOnlyCoarsensAtoms) {
  // Atoms computed over FEWER vantage points are a coarsening: every atom
  // of the full view is contained in exactly one atom of the reduced view.
  auto sim = make_sim(GetParam());
  sim.capture();
  auto& ds = sim.dataset();
  const auto full_snap = sanitize(ds, 0);
  const auto full = compute_atoms(full_snap);

  // Drop the last peer feed and recompute. Pool ids stay aligned because
  // the copy (archive round-trip) only removes records, never re-interns.
  bgp::Dataset copy = bgp::read_archive(bgp::write_archive(ds));
  copy.snapshots[0].peers.pop_back();

  SanitizeConfig config;  // same defaults, fewer peers
  const auto red_snap = sanitize(copy, 0, config);
  const auto reduced = compute_atoms(red_snap);

  std::unordered_map<bgp::PrefixId, std::uint32_t> reduced_of;
  for (std::uint32_t i = 0; i < reduced.atoms.size(); ++i) {
    for (bgp::PrefixId p : reduced.atoms[i].prefixes) reduced_of.emplace(p, i);
  }
  for (const auto& atom : full.atoms) {
    std::int64_t target = -1;
    for (bgp::PrefixId p : atom.prefixes) {
      const auto it = reduced_of.find(p);
      if (it == reduced_of.end()) continue;  // filtered by visibility
      if (target < 0) {
        target = it->second;
      } else {
        EXPECT_EQ(static_cast<std::uint32_t>(target), it->second)
            << "an atom of the full view straddles two coarser atoms";
      }
    }
  }
}

TEST_P(SeedSweep, StabilityMetricBounds) {
  routing::SimOptions opt;
  opt.seed = GetParam();
  opt.weekly_churn = true;
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2018.0, 0.006), GetParam()),
      opt);
  sim.capture();
  sim.advance_to(routing::kDay);
  sim.capture();
  const auto s1 = sanitize(sim.dataset(), 0);
  const auto s2 = sanitize(sim.dataset(), 1);
  const auto a1 = compute_atoms(s1);
  const auto a2 = compute_atoms(s2);
  const auto r = stability(a1, a2);
  EXPECT_GE(r.cam, 0.0);
  EXPECT_LE(r.cam, 1.0);
  EXPECT_GE(r.mpm, 0.0);
  EXPECT_LE(r.mpm, 1.0);
  // Self-comparison is perfect.
  const auto self = stability(a1, a1);
  EXPECT_DOUBLE_EQ(self.cam, 1.0);
  EXPECT_DOUBLE_EQ(self.mpm, 1.0);
}

TEST_P(SeedSweep, FormationDistancesWellFormed) {
  auto sim = make_sim(GetParam());
  sim.capture();
  const auto snap = sanitize(sim.dataset(), 0);
  const auto atoms = compute_atoms(snap);
  const auto f = formation_distance(atoms);
  ASSERT_EQ(f.distance.size(), atoms.atoms.size());
  std::size_t histogram_total = 0;
  for (int d = 1; d <= FormationResult::kMaxDistance; ++d) {
    histogram_total += f.atoms_at_distance[d];
  }
  EXPECT_EQ(histogram_total, atoms.atoms.size());
  for (std::size_t i = 0; i < f.distance.size(); ++i) {
    EXPECT_GE(f.distance[i], 1);
    // Distance-1 atoms carry a cause; others carry none.
    if (f.distance[i] == 1) {
      EXPECT_NE(f.cause[i], DistanceOneCause::kNotDistanceOne);
    } else {
      EXPECT_EQ(f.cause[i], DistanceOneCause::kNotDistanceOne);
    }
  }
  // Per-AS histograms each sum to the AS count.
  std::size_t first_total = 0, all_total = 0;
  for (int d = 1; d <= FormationResult::kMaxDistance; ++d) {
    first_total += f.first_split_at[d];
    all_total += f.all_split_at[d];
  }
  EXPECT_EQ(first_total, atoms.as_count());
  EXPECT_EQ(all_total, atoms.as_count());
}

TEST_P(SeedSweep, ArchiveRoundTripPreservesEverything) {
  auto sim = make_sim(GetParam());
  sim.capture();
  sim.emit_updates(routing::kHour);
  const auto& ds = sim.dataset();
  const bgp::Dataset back = bgp::read_archive(bgp::write_archive(ds));
  ASSERT_EQ(back.snapshots.size(), ds.snapshots.size());
  EXPECT_EQ(bgp::Dataset::record_count(back.snapshots[0]),
            bgp::Dataset::record_count(ds.snapshots[0]));
  EXPECT_EQ(back.updates.size(), ds.updates.size());
  EXPECT_EQ(back.paths.size(), ds.paths.size());
  EXPECT_EQ(back.prefixes.size(), ds.prefixes.size());
}

TEST_P(SeedSweep, SplitPointSymmetryOnRandomPaths) {
  Rng rng(GetParam() * 77 + 1);
  for (int i = 0; i < 200; ++i) {
    std::vector<net::Asn> a, b;
    const int la = 1 + static_cast<int>(rng.next_below(6));
    const int lb = 1 + static_cast<int>(rng.next_below(6));
    for (int k = 0; k < la; ++k) a.push_back(1 + rng.next_below(4));
    for (int k = 0; k < lb; ++k) b.push_back(1 + rng.next_below(4));
    const auto pa = net::AsPath::sequence(a);
    const auto pb = net::AsPath::sequence(b);
    for (auto method : {PrependMethod::kRunAware,
                        PrependMethod::kStripAfterGrouping}) {
      EXPECT_EQ(split_point(pa, pb, method), split_point(pb, pa, method));
    }
    // Distance is at least 1 and bounded by unique hops (runs) + 1.
    const auto runs = [](const net::AsPath& p) {
      return static_cast<int>(p.runs_from_origin().size());
    };
    const auto d = split_point(pa, pb, PrependMethod::kRunAware);
    if (d != INT32_MAX) {
      EXPECT_GE(d, 1);
      EXPECT_LE(d, std::max(runs(pa), runs(pb)) + 1);
    } else {
      EXPECT_EQ(pa, pb);  // run-aware: only identical paths never split
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bgpatoms::core
