// bga_atoms — compute policy atoms from BGA archives, streaming.
//
//   bga_atoms campaign.bga                       # headline statistics
//   bga_atoms campaign.bga --csv atoms.csv       # one row per atom
//   bga_atoms campaign.bga --formation           # Table-2-style histogram
//   bga_atoms campaign.bga --stability           # CAM/MPM across snapshots
//   bga_atoms campaign.bga --min-peers 4 --min-collectors 2
//   bga_atoms q1.bga q2.bga q3.bga --trend       # longitudinal run
//
// Archives are never materialized: sections stream through
// bgp::ArchiveView into core::analyze(), so a v2 archive is processed
// with at most one snapshot section plus one update chunk resident —
// peak memory is bounded by the largest section, not the file.
#include <climits>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bgp/archive_view.h"
#include "bgp/io.h"
#include "cli/args.h"
#include "cli/trend.h"
#include "core/analyze.h"
#include "core/formation.h"
#include "core/stability.h"
#include "core/stats.h"
#include "report/options.h"

using namespace bgpatoms;

namespace {

constexpr char kUsage[] =
    "usage: bga_atoms <archive.bga> [archive2.bga ...] [options]\n"
    "  --snapshot <i>       snapshot index to analyze (default 0)\n"
    "  --csv <file>         write one CSV row per atom\n"
    "  --formation          print the formation-distance histogram\n"
    "  --stability          compare the reference snapshot against each\n"
    "                       later snapshot\n"
    "  --trend              one summary row per archive (longitudinal\n"
    "                       runs over multiple campaign files); each\n"
    "                       archive's update stream is followed through\n"
    "                       the incrementally maintained partition\n"
    "                       (O(changes) per stream) and a failing archive\n"
    "                       is reported and skipped, not fatal\n"
    "  --min-peers <n>      visibility threshold, peer ASes (default 4)\n"
    "  --min-collectors <n> visibility threshold, collectors (default 2)\n"
    "  --no-filter          disable prefix filtering (2002-style)\n"
    "  --threads <n>        worker threads for atom grouping; precedence\n"
    "                       is flag > BGPATOMS_THREADS > all hardware\n"
    "                       threads (report/options.h); results are\n"
    "                       identical for any count\n"
    "  --vp-budget <n>      greedily select at most n vantage points on\n"
    "                       the reference snapshot (core::select_vps) and\n"
    "                       compute atoms from only those columns; later\n"
    "                       snapshots are masked to the same peers\n"
    "  --vp-min-fidelity <f> stop selecting once the masked partition\n"
    "                       preserves fraction f of the full atom count\n"
    "                       (in [0, 1]; 0 disables; combinable with\n"
    "                       --vp-budget)\n"
    "  --metrics            print instrumentation counters/timers to\n"
    "                       stderr on exit\n";

/// Writes one CSV row per atom; false if the file cannot be opened,
/// written or closed.
bool write_csv(const std::string& path, const core::SanitizedSnapshot& snap,
               const core::AtomSet& atoms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "atom_id,origin_asn,size,moas,vantage_points,prefixes\n");
  for (std::size_t i = 0; i < atoms.atoms.size(); ++i) {
    const auto& atom = atoms.atoms[i];
    std::fprintf(f, "%zu,%u,%zu,%d,%zu,\"", i, atom.origin, atom.size(),
                 atom.moas ? 1 : 0, atom.paths.size());
    for (std::size_t k = 0; k < atom.prefixes.size(); ++k) {
      std::fprintf(f, "%s%s", k ? " " : "",
                   snap.prefix(atom.prefixes[k]).to_string().c_str());
    }
    std::fprintf(f, "\"\n");
  }
  const bool written = !std::ferror(f);
  return std::fclose(f) == 0 && written;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv);
  args.usage_if(args.positional().empty(), kUsage);
  const cli::MetricsAtExit metrics{args.has("metrics")};

  core::AnalysisConfig config;
  // The range bounds make the int narrowing below safe: out-of-range
  // values are a usage error at the parse boundary, not a silent wrap.
  config.sanitize.min_peer_ases =
      static_cast<int>(args.get_int("min-peers", 4, 0, INT_MAX));
  config.sanitize.min_collectors =
      static_cast<int>(args.get_int("min-collectors", 2, 0, INT_MAX));
  if (args.has("no-filter")) {
    config.sanitize.filter_prefixes = false;
    config.sanitize.max_prefix_length = 128;
  }

  // Unified thread resolution: flag > BGPATOMS_THREADS > hardware, shared
  // with bga_bench and the library (report/options.h).
  try {
    const auto threads_flag =
        args.has("threads") ? std::optional<std::string>(args.get("threads"))
                            : std::nullopt;
    config.atoms.threads =
        report::resolve_run_options(std::nullopt, threads_flag).threads;
  } catch (const report::OptionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const auto index = static_cast<std::size_t>(
      args.get_int("snapshot", 0, 0, std::numeric_limits<long>::max()));
  config.reference_snapshot = index;
  config.with_stability = args.has("stability");

  // VP selection: a present --vp-budget must be >= 1 (0 would select
  // nothing and a masked run over zero columns is never what was meant);
  // --vp-min-fidelity is a fraction in [0, 1], NaN rejected at the parse
  // boundary like every other numeric flag.
  config.vp_budget = static_cast<std::size_t>(args.get_int(
      "vp-budget", 0, 1, std::numeric_limits<long>::max()));
  config.vp_min_fidelity = args.get_double("vp-min-fidelity", 0.0, 0.0, 1.0);

  if (args.has("trend")) {
    // Longitudinal mode: stream each archive with only the reference
    // products resident, and follow its update stream through the
    // incrementally maintained partition (core::IncrementalAtoms) —
    // O(changes) per stream instead of a recompute per boundary.
    core::AnalysisConfig trend_config = config;
    trend_config.keep_all = false;
    trend_config.with_updates = true;
    trend_config.incremental = true;
    // A result resolves prefix ids through its archive's dictionary
    // (SanitizedSnapshot::prefix_pool), so each view lives until the
    // next archive replaces it.
    std::optional<bgp::ArchiveView> view;
    return cli::checked_stdout(cli::run_trend(
        args.positional(),
        [&](const std::string& path) {
          view.emplace(path);
          return core::analyze(*view, &*view, trend_config);
        },
        stdout, stderr));
  }

  // Single-archive mode: stream the file through one analysis pass; only
  // the reference snapshot's sanitized tables and atoms stay resident.
  // The view outlives `r`, whose prefix ids resolve through it.
  std::optional<bgp::ArchiveView> view;
  core::AnalysisResult r;
  try {
    view.emplace(args.positional()[0]);
    r = core::analyze(*view, nullptr, config);
  } catch (const bgp::ArchiveError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!r.has_reference()) {
    std::fprintf(stderr, "error: archive has %zu snapshot(s)\n",
                 r.snapshots_seen);
    return 1;
  }

  const auto& snap = r.reference();
  const auto& atoms = r.reference_atoms();
  const auto& stats = r.stats;

  std::printf("snapshot %zu (t=%lld): %zu full-feed peers of %zu\n", index,
              static_cast<long long>(snap.timestamp),
              snap.report.full_feed_peers, snap.report.peers_in);
  std::printf("prefixes: %zu   ASes: %zu   atoms: %zu\n", stats.prefixes,
              stats.ases, stats.atoms);
  std::printf("mean atom size %.2f, p99 %zu, max %zu; single-prefix atoms "
              "%.1f%%, single-atom ASes %.1f%%\n",
              stats.mean_atom_size, stats.p99_atom_size,
              stats.largest_atom_size, 100 * stats.one_prefix_atom_share(),
              100 * stats.one_atom_as_share());

  if (r.vp_selection) {
    const auto& sel = *r.vp_selection;
    std::printf("vp selection: %zu of %zu VPs keep %zu of %zu atoms "
                "(fidelity %.4f, rand index %.4f)\n",
                sel.vps.size(), sel.total_vps,
                sel.steps.empty() ? std::size_t{0} : sel.steps.back().groups,
                sel.full_groups, sel.fidelity,
                sel.steps.empty() ? 1.0 : sel.steps.back().rand_index);
  }

  if (args.has("formation")) {
    const auto f = core::formation_distance(atoms);
    std::printf("\nformation distance (method iii):\n");
    for (int d = 1; d <= 6; ++d) {
      std::printf("  distance %d: %6.2f%%\n", d, 100 * f.share_at(d));
    }
  }

  if (args.has("stability") && !r.stability.empty()) {
    std::printf("\nstability vs snapshot %zu:\n", index);
    for (const auto& s : r.stability) {
      std::printf("  snapshot %zu (t=%lld): CAM %.1f%%  MPM %.1f%%\n", s.index,
                  static_cast<long long>(s.timestamp), 100 * s.result.cam,
                  100 * s.result.mpm);
    }
  }

  if (args.has("csv")) {
    const std::string path = args.get("csv");
    if (!write_csv(path, snap, atoms)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu atoms)\n", path.c_str(),
                 atoms.atoms.size());
  }
  return cli::checked_stdout(0);
}
