// Figure 5: short-term (8h) and long-term (1 week) stability of atoms,
// CAM and MPM, over 2004-2024.
#include <algorithm>

#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void run(Context& ctx) {
  const double scale = ctx.scale(0.008);
  ctx.note_scale(scale);

  std::vector<core::CampaignConfig> configs;
  for (double year = 2004.0; year <= 2024.76; year += 1.0) {
    configs.push_back(core::quarter_config(net::Family::kIPv4, year, scale,
                                           ctx.seed(2000 + (int)year)));
  }
  const auto metrics = ctx.run_sweep(configs);

  auto& table = ctx.add_table(
      "trend", "", {"year", "CAM 8h", "MPM 8h", "CAM 1w", "MPM 1w"});
  double min_cam8 = 1.0, max_cam8 = 0.0, last_cam8 = 0.0;
  bool have_last = false;
  std::size_t skipped = 0;
  for (const auto& m : metrics) {
    table.add_row({fmt("%.0f", m.year), pct(m.cam_8h), pct(m.mpm_8h),
                   pct(m.cam_1w), pct(m.mpm_1w)});
    // Quarters too small to carry a stability signal (too few atoms, or no
    // surviving match at all) are shown but excluded from the checks.
    if (m.stats.atoms < kMinAtomsForStabilityCheck ||
        (m.cam_8h == 0 && m.mpm_8h == 0)) {
      ++skipped;
      continue;
    }
    if (m.year < 2023) {
      min_cam8 = std::min(min_cam8, m.cam_8h);
      max_cam8 = std::max(max_cam8, m.cam_8h);
    }
    last_cam8 = m.cam_8h;
    have_last = true;
  }
  if (skipped) {
    ctx.add_metric("quarters_below_stability_floor",
                   static_cast<double>(skipped),
                   "excluded from shape checks at this scale");
  }

  ctx.add_check(Check::greater(
      "short-term stability consistently high pre-2023", min_cam8, 0.90,
      "range " + pct(min_cam8) + ".." + pct(max_cam8), "paper ~96-98%"));
  ctx.add_check(Check::that(
      "2024 dip visible", have_last && last_cam8 < min_cam8,
      "final CAM 8h " + pct(last_cam8), "paper 83.7%"));
}

}  // namespace

void register_fig05(Registry& registry) {
  registry.add({"fig05", "§4.4", "Figure 5",
                "Stability trend 2004-2024 (IPv4)", run});
}

}  // namespace bgpatoms::bench
