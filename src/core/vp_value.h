// VP-value scoring and greedy vantage-point selection.
//
// The paper computes atoms from every full-feed VP, but VP tables are
// highly redundant: most columns of the AtomSignatureMatrix refine the
// atom partition no further than the columns already chosen. This module
// scores each VP by its *marginal partition refinement* — the number of
// extra row-equality classes its column contributes beyond an already-
// selected set — and greedily selects the fewest VPs that preserve a
// target share of the full-VP atom partition (after Alfroy et al.,
// "Measuring Internet Routing from the Most Valuable Points").
//
// Everything operates on partitions of the matrix's rows (= the
// snapshot's retained prefixes). The full partition is the atom kernels'
// own row grouping (atoms_detail::group_rows); the selected columns'
// partition is kept as first-encounter labels and split by one chosen
// column per step. A masked partition (grouping rows on a column subset)
// is always a *coarsening* of the full partition: adding a column can
// only split classes, never merge them. That nesting gives three exact
// fidelity metrics per step, each O(rows):
//   * fidelity        = masked classes / full classes (atoms preserved),
//   * rand_index      = pairwise agreement with the full partition,
//   * split_distance  = full classes - masked classes (the split-merge
//                       edit distance; merges are always 0 under nesting).
//
// Determinism contract: select_vps() is bit-identical for any thread
// count, and its selected column *contents*, gain sequence, fidelity
// curve, and partition fingerprint are invariant under any permutation of
// the matrix's columns. Ties between candidate VPs are broken first by
// gain (descending), then by lexicographic column content (ascending), so
// column order only matters between byte-identical columns — which are
// interchangeable by definition. The selection's fingerprint uses the
// kPartitionFingerprintSeed encoding, so it equals
// partition_fingerprint(compute_atoms(snapshot, {.vp_subset = vps})).
// tests/test_vp_value.cpp pins all of this against a naive key-tuple
// grouping over every column subset.
#pragma once

#include <cstdint>
#include <vector>

#include "core/atoms.h"

namespace bgpatoms::core {

struct VpSelectOptions {
  /// Maximum number of VPs to select; 0 = unlimited. Selection can stop
  /// short of the budget once the partition stops refining (fidelity 1.0
  /// reached) — every remaining column would have zero marginal gain.
  std::size_t budget = 0;
  /// Stop as soon as fidelity (masked classes / full classes) reaches
  /// this value. The default 1.0 runs until the full partition is
  /// reproduced exactly.
  double min_fidelity = 1.0;
  /// Workers for the candidate-scoring loop (flag > BGPATOMS_THREADS >
  /// hardware, see core/parallel.h). The result is bit-identical for any
  /// count: scoring only fills independent per-candidate slots.
  int threads = 0;
};

/// One greedy selection step: the chosen column and the state of the
/// masked partition after adding it.
struct VpStep {
  /// Column index into the matrix (== index into snapshot.vps).
  std::uint32_t vp = 0;
  /// Row-equality classes this column split open: classes after minus
  /// classes before. Always >= 1 (a zero-gain column is never selected).
  std::size_t gain = 0;
  /// Masked-partition classes (atoms preserved) after this step.
  std::size_t groups = 0;
  /// groups / full_groups; 1.0 when the matrix has no rows.
  double fidelity = 0.0;
  /// Rand index of the masked partition vs the full partition: share of
  /// row pairs on whose togetherness both partitions agree. 1.0 for
  /// fewer than two rows.
  double rand_index = 0.0;
  /// full_groups - groups: splits still missing (merges are always 0
  /// because the masked partition is nested in the full one).
  std::size_t split_distance = 0;

  friend bool operator==(const VpStep&, const VpStep&) = default;
};

/// Result of select_vps(): the ranked subset and its fidelity curve.
struct VpSelection {
  /// Steps in selection order (the ranking; steps[0] is the single most
  /// valuable VP).
  std::vector<VpStep> steps;
  /// Selected columns in ascending order — the AtomOptions::vp_subset
  /// form.
  std::vector<std::uint32_t> vps;
  /// Row-equality classes of the full (all-columns) partition.
  std::size_t full_groups = 0;
  /// Columns in the matrix.
  std::size_t total_vps = 0;
  /// Fidelity of the final selection (steps.back().fidelity, or the
  /// zero-column fidelity when nothing was selected).
  double fidelity = 0.0;
  /// Fingerprint of the final masked partition under the
  /// kPartitionFingerprintSeed encoding: equal to
  /// partition_fingerprint(compute_atoms(snapshot, {.vp_subset = vps}))
  /// by construction.
  std::uint64_t fingerprint = 0;
};

/// Greedy VP selection: repeatedly add the column with the largest
/// marginal refinement (ties: lexicographically smallest column content,
/// then smallest column index) until the budget is exhausted, fidelity
/// reaches options.min_fidelity, or the partition stops refining.
/// Deterministic per the module contract above.
VpSelection select_vps(const AtomSignatureMatrix& matrix,
                       const VpSelectOptions& options = {});

}  // namespace bgpatoms::core
