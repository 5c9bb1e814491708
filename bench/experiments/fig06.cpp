// Figure 6: distribution (CDF) of the number of vantage points observing
// each atom-split event.
#include <algorithm>

#include "experiments/common.h"
#include "experiments/daily_splits.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

constexpr int kDays = 40;

void run(Context& ctx) {
  const double scale = ctx.scale(0.012);
  ctx.note("[" + std::to_string(kDays) + " simulated days, era 2019]");
  ctx.note_scale(scale);

  const auto& campaign =
      run_daily_splits(kDays, scale, ctx.seed(42), ctx.threads());
  std::vector<std::size_t> all;
  for (const auto& day : campaign.observers_per_day) {
    all.insert(all.end(), day.begin(), day.end());
  }
  std::sort(all.begin(), all.end());
  ctx.add_metric("split_events", static_cast<double>(all.size()));
  ctx.add_check(Check::that("split events detected", !all.empty(),
                            std::to_string(all.size()) + " events"));
  if (all.empty()) return;

  auto cdf_at = [&](std::size_t v) {
    const auto it = std::upper_bound(all.begin(), all.end(), v);
    return static_cast<double>(it - all.begin()) /
           static_cast<double>(all.size());
  };
  auto& table = ctx.add_table("cdf", "", {"observers <=", "CDF"});
  for (std::size_t v : {1, 2, 3, 5, 10, 20, 50}) {
    table.add_row({std::to_string(v), pct(cdf_at(v))});
  }

  // The paper's headline shares (~60% single-VP, ~80% within 3 VPs) only
  // emerge with a full-size vantage-point set; at reduced scale we assert
  // the shape, not the magnitude, and report the magnitudes as metrics.
  ctx.add_metric("share_single_vp", cdf_at(1), "paper ~60%");
  ctx.add_metric("share_within_3_vps", cdf_at(3), "paper ~80%");
  ctx.add_metric("max_observers", static_cast<double>(all.back()));
  ctx.add_check(Check::greater(
      "events concentrated at few observers (CDF at 1 > 10%)", cdf_at(1),
      0.10, pct(cdf_at(1)), "paper ~60%"));
  ctx.add_check(Check::that(
      "long tail exists (max observers >= 10)", all.back() >= 10,
      "max observers " + std::to_string(all.back())));
}

}  // namespace

void register_fig06(Registry& registry) {
  registry.add({"fig06", "§4.4.1", "Figure 6",
                "Number of observers per atom-split event (CDF)", run});
}

}  // namespace bgpatoms::bench
