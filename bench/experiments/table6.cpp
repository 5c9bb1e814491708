// Table 6 (Appendix A8.4.3): reproduced 2002 stability vs the original
// Afek et al. numbers.
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  auto config = repro_2002_config(ctx);
  config.with_stability = true;
  return {config};
}

void run(Context& ctx) {
  const auto config = campaigns(ctx).front();
  ctx.note_scale(config.scale);
  const auto& c = ctx.campaign(config);

  struct Row {
    const char* span;
    double cam, mpm;  // original paper (Afek et al.)
    const core::StabilityResult* sim;
  };
  const Row rows[] = {
      {"8 Hours", .953, .977, &*c.stability_8h},
      {"1 Day", .916, .970, &*c.stability_24h},
      {"1 Week", .775, .860, &*c.stability_1w},
  };
  auto& table = ctx.add_table(
      "stability2002", "",
      {"Time span", "Original (CAM/MPM)", "Reproduced (CAM/MPM)"});
  for (const auto& r : rows) {
    table.add_row({r.span, pct(r.cam) + " / " + pct(r.mpm),
                   pct(r.sim->cam) + " / " + pct(r.sim->mpm)});
  }
  ctx.note(
      "(The paper's own reproduction reported 94.2/97.5, 91.8/96.2 and "
      "77.6/87.0 — Appendix A8.4.3.)");

  ctx.add_check(Check::that(
      "stability decays with horizon (8h > 24h > 1w CAM)",
      c.stability_8h->cam > c.stability_24h->cam &&
          c.stability_24h->cam > c.stability_1w->cam,
      pct(c.stability_8h->cam) + " > " + pct(c.stability_24h->cam) + " > " +
          pct(c.stability_1w->cam),
      "original 95.3 > 91.6 > 77.5"));
  ctx.add_check(Check::that(
      "MPM >= CAM at every horizon",
      c.stability_8h->mpm >= c.stability_8h->cam &&
          c.stability_24h->mpm >= c.stability_24h->cam &&
          c.stability_1w->mpm >= c.stability_1w->cam,
      "1w " + pct(c.stability_1w->mpm) + " vs " + pct(c.stability_1w->cam)));
}

}  // namespace

void register_table6(Registry& registry) {
  registry.add({"table6", "§A8.4.3", "Table 6",
                "Reproduced stability of policy atoms over time (2002)", run,
                campaigns});
}

}  // namespace bgpatoms::bench
