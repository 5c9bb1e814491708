// Ablation: how vantage-point coverage shapes the atom structure (§4.5:
// "each full-feed peer contributes their own view of the Internet, which
// helps us to capture more diverse routing policies").
//
// Atoms computed from k peers can only coarsen as k shrinks (a refinement
// property the test suite proves); this experiment quantifies the curve.
#include "core/sanitize.h"
#include "core/stats.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig config;
  config.year = 2024.75;
  config.scale = ctx.scale(0.02);
  config.seed = ctx.seed(42);
  return {config};
}

void run(Context& ctx) {
  const auto config = campaigns(ctx).front();
  ctx.note_scale(config.scale);
  const auto& campaign = ctx.campaign(config);
  const auto& full_ds = campaign.dataset();
  const std::size_t total_peers = full_ds.snapshots[0].peers.size();

  auto& table = ctx.add_table(
      "curve", "",
      {"peer sessions", "full-feed", "atoms", "atoms/AS", "mean atom size"});
  core::SanitizeConfig lax;  // keep visibility thresholds achievable at low k
  lax.min_collectors = 1;
  lax.min_peer_ases = 1;

  double last_atoms = 0, low_k_atoms = 0, full_atoms = 0;
  bool monotone = true;
  for (std::size_t k : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul, total_peers}) {
    if (k > total_peers) break;
    // Truncate the peer set of a copy (pool ids stay aligned).
    bgp::Dataset ds = full_ds;
    ds.snapshots[0].peers.resize(k);
    const auto snap = core::sanitize(ds, 0, lax);
    core::AtomOptions atom_options;
    atom_options.threads = ctx.threads();
    const auto atoms = core::compute_atoms(snap, atom_options);
    const auto stats = core::general_stats(atoms);
    table.add_row(
        {std::to_string(k), std::to_string(snap.report.full_feed_peers),
         std::to_string(stats.atoms),
         num(stats.ases ? static_cast<double>(stats.atoms) / stats.ases : 0),
         num(stats.mean_atom_size)});
    if (static_cast<double>(stats.atoms) < last_atoms - 0.5) monotone = false;
    last_atoms = static_cast<double>(stats.atoms);
    if (k <= 2) low_k_atoms = static_cast<double>(stats.atoms);
    full_atoms = static_cast<double>(stats.atoms);
  }

  ctx.add_check(Check::that(
      "more vantage points -> more (never fewer) atoms", monotone,
      "atom counts nondecreasing in peer count", "§4.5 refinement property"));
  ctx.add_check(Check::less(
      "few-VP view hides most policy diversity", low_k_atoms,
      0.6 * full_atoms,
      fmt("%.0f", low_k_atoms) + " atoms at k<=2 vs " +
          fmt("%.0f", full_atoms) + " with all peers",
      "§4.5"));
}

}  // namespace

void register_ablation_vps(Registry& registry) {
  registry.add({"ablation_vps", "§4.5", "Ablation (vantage points)",
                "Atom count vs number of vantage points (2024 era)", run,
                campaigns});
}

}  // namespace bgpatoms::bench
