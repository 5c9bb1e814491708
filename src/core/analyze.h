// One streaming analysis pass over a campaign: the single driver both
// backends share. run_campaign() feeds it a bgp::DatasetView over the
// simulator's capture; the CLI tools feed it a bgp::ArchiveView straight
// off a BGA file. Either way each snapshot flows sanitize -> atoms ->
// (stats / stability) exactly once, in capture order, and the update
// stream is correlated chunk by chunk — so the streamed path holds one
// raw snapshot plus one update chunk plus the analysis products, never a
// materialized Dataset.
//
// Retention: with keep_all the result owns every SanitizedSnapshot and
// AtomSet (what core::Campaign exposes); without it only the reference
// snapshot's products are kept — O(1) in the number of snapshots, which
// keeps the streamed path flat on top of ArchiveView's one-section
// residency bound (ArchiveViewResidency in tests/test_views.cpp). A
// reference_snapshot > 0 additionally buffers the atoms of the snapshots
// before it (stability is reference-vs-later), bounded by the reference
// index, not the archive length.
//
// Outputs are bit-identical between backends and to the pre-view
// pipeline: same kernels, same call order per snapshot.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "bgp/views.h"
#include "core/atoms.h"
#include "core/incremental.h"
#include "core/sanitize.h"
#include "core/stability.h"
#include "core/stats.h"
#include "core/update_corr.h"
#include "core/vp_value.h"

namespace bgpatoms::core {

struct AnalysisConfig {
  SanitizeConfig sanitize;
  AtomOptions atoms;
  /// Snapshot index the stats/stability/update kernels anchor on.
  std::size_t reference_snapshot = 0;
  /// Compare every snapshot i >= 1 against the reference (CAM/MPM).
  bool with_stability = false;
  /// Correlate the update stream with the reference atoms.
  bool with_updates = false;
  /// Additionally maintain the reference atom partition incrementally
  /// while the update stream drains (core::IncrementalAtoms) and report
  /// the end-of-stream drift in AnalysisResult::live. O(changes) per
  /// stream instead of a full recompute; requires with_updates and a
  /// non-null update view.
  bool incremental = false;
  /// Retain every snapshot's products (Campaign) instead of only the
  /// reference's (streamed, constant residency).
  bool keep_all = false;
  /// Largest entity size reported by the update correlation.
  std::size_t update_max_k = 16;
  /// Greedy VP selection (core::select_vps) on the reference snapshot:
  /// when either knob is set, the reference and every later snapshot
  /// compute atoms from only the selected columns (matched onto later
  /// snapshots by peer identity — column positions are not stable across
  /// snapshots), and the incremental follow maintains the masked
  /// partition. vp_budget caps the subset size (0 = uncapped);
  /// vp_min_fidelity stops selection once that share of the full atom
  /// partition is preserved (0 = off; with only a budget set, selection
  /// still stops at fidelity 1.0). Snapshots *before* the reference are
  /// analyzed unmasked: on the streamed path the selection does not
  /// exist yet when they pass by.
  std::size_t vp_budget = 0;
  double vp_min_fidelity = 0.0;
};

/// Stability of one non-reference snapshot against the reference.
struct SnapshotStability {
  std::size_t index = 0;  // snapshot index in capture order
  bgp::Timestamp timestamp = 0;
  StabilityResult result;
};

/// End-of-stream state of the incrementally maintained partition
/// (AnalysisConfig::incremental): how far the live table drifted from the
/// reference snapshot, plus the maintenance work it took to follow.
struct LiveUpdateDrift {
  /// Atom count after the whole update stream was applied.
  std::size_t atoms = 0;
  /// Reference atoms vs the maintained (post-stream) atoms.
  StabilityResult vs_reference;
  /// Maintenance work counters (identical for any chunking/threads).
  IncrementalAtoms::Counters counters;
};

struct AnalysisResult {
  /// Products in capture order (keep_all) or just the reference's
  /// (otherwise; empty if the stream held no such snapshot). Deques:
  /// AtomSet::snapshot points at the element, stable under growth/moves.
  std::deque<SanitizedSnapshot> sanitized;
  std::deque<AtomSet> atom_sets;
  /// Position of the reference snapshot within the deques above; npos
  /// (size_t(-1)) until the stream actually yields it, so has_reference()
  /// stays false when the archive is shorter than reference_snapshot even
  /// in keep_all mode.
  std::size_t reference_index = static_cast<std::size_t>(-1);
  /// Snapshots consumed from the view (>= sanitized.size()).
  std::size_t snapshots_seen = 0;
  /// Stats of the reference snapshot's atoms.
  GeneralStats stats;
  /// One entry per snapshot i >= 1, in capture order (with_stability).
  std::vector<SnapshotStability> stability;
  std::optional<UpdateCorrelation> correlation;
  /// Filled when config.incremental maintained the partition through the
  /// update stream (requires with_updates and a reference snapshot).
  std::optional<LiveUpdateDrift> live;
  /// The greedy VP selection computed on the reference snapshot when
  /// config.vp_budget / vp_min_fidelity enabled masking: ranking,
  /// fidelity curve, and the subset (reference-snapshot column indices)
  /// the retained atom sets were computed from.
  std::optional<VpSelection> vp_selection;

  bool has_reference() const { return reference_index < atom_sets.size(); }
  const SanitizedSnapshot& reference() const {
    return sanitized[reference_index];
  }
  const AtomSet& reference_atoms() const { return atom_sets[reference_index]; }
};

/// Drains `snapshots` (and, when configured, `updates` — may be null, and
/// may alias the same backing object as `snapshots`, e.g. one ArchiveView
/// serving both cursors). The view must outlive the result (prefix-pool
/// pointers). Propagates backend exceptions (e.g. bgp::ArchiveError).
AnalysisResult analyze(bgp::SnapshotView& snapshots,
                       bgp::UpdateStreamView* updates,
                       const AnalysisConfig& config = {});

}  // namespace bgpatoms::core
