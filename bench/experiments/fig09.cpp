// Figure 9: IPv6 atom stability (8h and 1 week, CAM and MPM), 2011-2024.
#include <algorithm>

#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void run(Context& ctx) {
  const double scale = ctx.scale(0.05);
  ctx.note_scale(scale);

  std::vector<core::CampaignConfig> configs;
  for (double year = 2011.0; year <= 2024.76; year += 1.0) {
    configs.push_back(core::quarter_config(net::Family::kIPv6, year, scale,
                                           ctx.seed(3000 + (int)year)));
  }
  // The IPv4 comparison quarter rides in the same sweep as the last one.
  configs.push_back(core::quarter_config(net::Family::kIPv4, 2024.75,
                                         ctx.scale(0.008), ctx.seed(3999)));
  const auto metrics = ctx.run_sweep(configs);
  const auto& v4 = metrics.back();

  auto& table = ctx.add_table(
      "trend", "", {"year", "CAM 8h", "MPM 8h", "CAM 1w", "MPM 1w"});
  double min_cam8 = 1.0, last_cam8 = 0.0;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i + 1 < metrics.size(); ++i) {
    const auto& m = metrics[i];
    table.add_row({fmt("%.0f", m.year), pct(m.cam_8h), pct(m.mpm_8h),
                   pct(m.cam_1w), pct(m.mpm_1w)});
    // Early IPv6 quarters carry too few atoms at reduced scale to measure
    // stability; they are shown but excluded from the checks.
    if (m.stats.atoms < kMinAtomsForStabilityCheck ||
        (m.cam_8h == 0 && m.mpm_8h == 0)) {
      ++skipped;
      continue;
    }
    min_cam8 = std::min(min_cam8, m.cam_8h);
    last_cam8 = m.cam_8h;
  }
  if (skipped) {
    ctx.add_metric("quarters_below_stability_floor",
                   static_cast<double>(skipped),
                   "excluded from shape checks at this scale");
  }

  ctx.add_check(Check::greater(
      "v6 short-term stability consistently high", min_cam8, 0.90,
      "min " + pct(min_cam8), "paper: v6 stays ~97-99%"));
  ctx.add_check(Check::greater(
      "v6 2024 more stable than v4 2024", last_cam8, v4.cam_8h,
      pct(last_cam8) + " vs " + pct(v4.cam_8h), "paper §5.2"));
}

}  // namespace

void register_fig09(Registry& registry) {
  registry.add({"fig09", "§5.2", "Figure 9",
                "IPv6 stability trend 2011-2024", run});
}

}  // namespace bgpatoms::bench
