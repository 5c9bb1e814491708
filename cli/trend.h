// The bga_atoms --trend loop, factored out of the binary so the batch
// error-handling contract is unit-testable: one failing archive must not
// take down the rest of the batch.
//
// Any std::exception from one archive's analysis (bgp::ArchiveError, the
// packing-limit std::runtime_error from core::check_packing_limits, ...)
// is reported on `err` with the failing path and the loop continues with
// the remaining archives; the exit status is non-zero iff any archive
// failed. tests/test_incremental.cpp injects failures through
// `analyze_archive` to pin this.
//
// The read side goes through the query layer: each successful archive's
// reference atoms are frozen into a query::AtomIndex and stacked on a
// query::Timeline, which supplies the eq_prev column — whole-partition
// equivalence (canonical fingerprint) against the previous successful
// archive — instead of ad-hoc per-archive rescans.
#pragma once

#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analyze.h"
#include "query/timeline.h"

namespace bgpatoms::cli {

/// One summary row per archive on `out`. `analyze_archive` maps a path to
/// its streamed analysis result, which must stay valid until the next
/// call (the binary keeps each ArchiveView alive that long; tests inject
/// results or throws). When the analysis maintained the atom
/// partition through the archive's update stream
/// (core::AnalysisConfig::incremental), the live-drift columns report the
/// post-stream atom count and CAM against the reference snapshot. The
/// eq_prev column reports partition equivalence (query::Timeline
/// fingerprints) against the previous successful archive.
inline int run_trend(
    const std::vector<std::string>& paths,
    const std::function<core::AnalysisResult(const std::string&)>&
        analyze_archive,
    std::FILE* out, std::FILE* err) {
  std::fprintf(out, "%-28s %9s %9s %8s %8s %6s %8s %8s %9s %8s %7s\n",
               "archive", "prefixes", "atoms", "ases", "mean", "snaps",
               "cam_last", "mpm_last", "atoms_liv", "cam_live", "eq_prev");
  query::Timeline timeline;
  int failures = 0;
  for (const auto& path : paths) {
    core::AnalysisResult r;
    try {
      r = analyze_archive(path);
    } catch (const std::exception& e) {
      std::fprintf(err, "error: %s: %s\n", path.c_str(), e.what());
      ++failures;
      continue;
    }
    if (!r.has_reference()) {
      std::fprintf(err, "error: %s: archive has %zu snapshot(s)\n",
                   path.c_str(), r.snapshots_seen);
      ++failures;
      continue;
    }
    char cam[16] = "-", mpm[16] = "-";
    if (!r.stability.empty()) {
      std::snprintf(cam, sizeof cam, "%.1f%%",
                    100 * r.stability.back().result.cam);
      std::snprintf(mpm, sizeof mpm, "%.1f%%",
                    100 * r.stability.back().result.mpm);
    }
    char live_atoms[24] = "-", live_cam[16] = "-";
    if (r.live) {
      std::snprintf(live_atoms, sizeof live_atoms, "%zu", r.live->atoms);
      std::snprintf(live_cam, sizeof live_cam, "%.1f%%",
                    100 * r.live->vs_reference.cam);
    }
    // Freeze the read side into the query layer: the index is
    // self-contained (prefix values + copied path pool), so it outlives
    // this iteration's analysis products.
    timeline.add(path, std::make_shared<query::AtomIndex>(
                           query::AtomIndex::build(r.reference_atoms())));
    const char* eq_prev = "-";
    if (timeline.size() >= 2) {
      eq_prev = timeline.equivalent(timeline.size() - 2, timeline.size() - 1)
                    ? "yes"
                    : "no";
    }
    std::fprintf(out, "%-28s %9zu %9zu %8zu %8.2f %6zu %8s %8s %9s %8s %7s\n",
                 path.c_str(), r.stats.prefixes, r.stats.atoms, r.stats.ases,
                 r.stats.mean_atom_size, r.snapshots_seen, cam, mpm,
                 live_atoms, live_cam, eq_prev);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace bgpatoms::cli
