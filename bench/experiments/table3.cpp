// Table 3: stability of atoms (CAM / MPM at 8h, 24h, 1 week), 2004 vs 2024.
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig config;
  config.with_stability = true;
  return pair_2004_2024(ctx, 0.04, 0.02, config);
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[0].scale);
  const auto& c2004 = ctx.campaign(configs[0]);
  const auto& c2024 = ctx.campaign(configs[1]);

  struct Row {
    const char* horizon;
    double p04_cam, p04_mpm, p24_cam, p24_mpm;  // paper values
    const core::StabilityResult* s04;
    const core::StabilityResult* s24;
  };
  const Row rows[] = {
      {"After 8 hours", .963, .983, .837, .906, &*c2004.stability_8h,
       &*c2024.stability_8h},
      {"After 24 hours", .914, .950, .793, .872, &*c2004.stability_24h,
       &*c2024.stability_24h},
      {"After 1 week", .803, .888, .719, .801, &*c2004.stability_1w,
       &*c2024.stability_1w},
  };

  auto& table = ctx.add_table(
      "stability", "CAM/MPM by horizon:",
      {"", "2004 paper", "2004 sim", "2024 paper", "2024 sim"});
  auto cam_mpm = [](double cam, double mpm) {
    return fmt("%4.1f", 100 * cam) + "/" + fmt("%4.1f", 100 * mpm);
  };
  for (const auto& r : rows) {
    table.add_row({r.horizon, cam_mpm(r.p04_cam, r.p04_mpm),
                   cam_mpm(r.s04->cam, r.s04->mpm),
                   cam_mpm(r.p24_cam, r.p24_mpm),
                   cam_mpm(r.s24->cam, r.s24->mpm)});
  }

  ctx.add_check(Check::that(
      "2024 less stable than 2004 at every horizon",
      c2024.stability_8h->cam < c2004.stability_8h->cam &&
          c2024.stability_1w->cam < c2004.stability_1w->cam,
      "8h " + pct(c2024.stability_8h->cam) + " vs " +
          pct(c2004.stability_8h->cam) + ", 1w " +
          pct(c2024.stability_1w->cam) + " vs " +
          pct(c2004.stability_1w->cam)));
  ctx.add_check(Check::that(
      "MPM >= CAM (prefixes outlive atom identity)",
      c2004.stability_1w->mpm >= c2004.stability_1w->cam &&
          c2024.stability_1w->mpm >= c2024.stability_1w->cam,
      "1w 2004 " + pct(c2004.stability_1w->mpm) + "/" +
          pct(c2004.stability_1w->cam) + ", 1w 2024 " +
          pct(c2024.stability_1w->mpm) + "/" +
          pct(c2024.stability_1w->cam)));
  ctx.add_check(Check::less(
      "breaks front-loaded (8h->24h drop < 8h drop)",
      c2004.stability_8h->cam - c2004.stability_24h->cam,
      (1.0 - c2004.stability_8h->cam) + 0.05,
      "8h->24h drop " +
          pct(c2004.stability_8h->cam - c2004.stability_24h->cam)));
}

}  // namespace

void register_table3(Registry& registry) {
  registry.add({"table3", "§4.4", "Table 3",
                "Stability of atoms in 2004 and 2024", run, campaigns});
}

}  // namespace bgpatoms::bench
