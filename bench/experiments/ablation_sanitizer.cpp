// Ablation: what each §2.4 sanitization step contributes.
//
// The headline number is the paper's Appendix A8.3.2 observation: keeping
// the private-ASN-injecting peer (AS25885-style) inflates the atom count
// by roughly 30%. The other rows disable one pipeline stage at a time and
// report the resulting atom statistics.
#include <string>

#include "core/parallel.h"
#include "core/sanitize.h"
#include "core/stats.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

struct Variant {
  const char* name;
  core::SanitizeConfig config;
};

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  // 2021: the ADD-PATH-broken peers AND the private-ASN injector are live.
  core::CampaignConfig base;
  base.year = 2021.5;
  base.scale = ctx.scale(0.03);
  base.seed = ctx.seed(42);
  return {base};
}

void run(Context& ctx) {
  const auto base = campaigns(ctx).front();
  ctx.note_scale(base.scale);
  const auto& campaign = ctx.campaign(base);
  const auto& ds = campaign.dataset();

  std::vector<Variant> variants;
  variants.push_back({"full pipeline (baseline)", {}});
  {
    core::SanitizeConfig c;
    c.remove_abnormal_peers = false;
    variants.push_back({"keep abnormal peers", c});
  }
  {
    core::SanitizeConfig c;
    c.full_feed_only = false;
    variants.push_back({"keep partial feeds", c});
  }
  {
    core::SanitizeConfig c;
    c.filter_prefixes = false;
    variants.push_back({"no visibility filter", c});
  }
  {
    core::SanitizeConfig c;
    c.max_prefix_length = 128;
    variants.push_back({"no length filter", c});
  }

  auto& table = ctx.add_table(
      "variants", "",
      {"variant", "peers", "prefixes", "atoms", "mean size"});
  // The variants run independently: one batch on the run's pool, each
  // task grouping atoms on its own thread (no task calls back into the
  // pool), rendered in variant order.
  struct Outcome {
    std::size_t full_feed_peers = 0;
    core::GeneralStats stats;
  };
  std::vector<Outcome> outcomes(variants.size());
  ctx.pool().run(variants.size(), [&](std::size_t i) {
    const auto snap = core::sanitize(ds, 0, variants[i].config);
    core::AtomOptions serial;
    serial.threads = 1;
    outcomes[i] = {snap.report.full_feed_peers,
                   core::general_stats(core::compute_atoms(snap, serial))};
  });

  double baseline_atoms = 0, abnormal_atoms = 0, partial_mean = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    const core::GeneralStats& stats = outcomes[i].stats;
    table.add_row({v.name, std::to_string(outcomes[i].full_feed_peers),
                   std::to_string(stats.prefixes),
                   std::to_string(stats.atoms),
                   num(stats.mean_atom_size)});
    if (std::string(v.name).find("baseline") != std::string::npos) {
      baseline_atoms = static_cast<double>(stats.atoms);
    }
    if (std::string(v.name).find("abnormal") != std::string::npos) {
      abnormal_atoms = static_cast<double>(stats.atoms);
    }
    if (std::string(v.name).find("partial") != std::string::npos) {
      partial_mean = stats.mean_atom_size;
    }
  }

  const double inflation =
      baseline_atoms > 0 ? abnormal_atoms / baseline_atoms - 1.0 : 0.0;
  ctx.add_metric("abnormal_peer_atom_inflation", inflation,
                 "paper Appendix A8.3.2: ~30%");
  ctx.add_check(Check::greater(
      "keeping abnormal peers inflates the atom count (>10%)", inflation,
      0.10, "+" + pct(inflation), "paper ~30%"));
  ctx.add_check(Check::less(
      "keeping partial feeds collapses atoms to single prefixes",
      partial_mean, 1.1, "mean atom size " + num(partial_mean),
      "partial views shatter atoms"));
}

}  // namespace

void register_ablation_sanitizer(Registry& registry) {
  registry.add({"ablation_sanitizer", "§2.4", "Ablation (sanitizer)",
                "Contribution of each sanitization step (era 2021)", run,
                campaigns});
}

}  // namespace bgpatoms::bench
