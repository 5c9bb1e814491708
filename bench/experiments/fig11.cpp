// Figure 11: IPv6 formation-distance trend, 2011-2024.
#include <array>

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
                                           ctx.seed(4000 + (int)year)));
  }
  // The IPv4 comparison quarter rides in the same sweep as the last one.
  configs.push_back(core::quarter_config(net::Family::kIPv4, 2024.75,
                                         ctx.scale(0.008), ctx.seed(4999)));
  const auto metrics = ctx.run_sweep(configs);
  const auto& v4 = metrics.back();

  std::vector<std::string> cols{"year"};
  for (const char* side : {"all", "multi"}) {
    for (int d = 1; d <= 5; ++d) {
      cols.push_back(std::string(side) + " d" + std::to_string(d));
    }
  }
  auto& table = ctx.add_table(
      "trend", "all ASes (d=1..5) | excl. single-atom ASes (d=1..5)", cols);

  double first_d1 = -1, last_d1 = 0;
  std::array<double, 6> last{};
  for (std::size_t i = 0; i + 1 < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::vector<std::string> row{fmt("%.0f", m.year)};
    for (int d = 1; d <= 5; ++d) row.push_back(fmt("%.1f", 100 * m.formed_at[d]));
    for (int d = 1; d <= 5; ++d) {
      row.push_back(fmt("%.1f", 100 * m.formed_at_multi[d]));
    }
    table.add_row(row);
    // Anchor "first" on the first quarter with formation data: the earliest
    // IPv6 quarters can come up empty depending on scale.
    const double total = m.formed_at[1] + m.formed_at[2] + m.formed_at[3] +
                         m.formed_at[4] + m.formed_at[5];
    if (total <= 0) continue;
    if (first_d1 < 0) first_d1 = m.formed_at[1];
    last_d1 = m.formed_at[1];
    last = m.formed_at;
  }

  ctx.add_check(Check::less(
      "v6 distance-1 share falls 2011->2024", last_d1, first_d1 - 0.05,
      arrow_pct(first_d1, last_d1, 0), "paper §5.4"));
  ctx.add_check(Check::greater(
      "v6 atoms form closer to origin than v4 (d1+d2)", last[1] + last[2],
      v4.formed_at[1] + v4.formed_at[2],
      pct(last[1] + last[2], 0) + " vs " +
          pct(v4.formed_at[1] + v4.formed_at[2], 0),
      "paper §5.4"));
}

}  // namespace

void register_fig11(Registry& registry) {
  registry.add({"fig11", "§5.4", "Figure 11",
                "IPv6 formation-distance trend 2011-2024", run});
}

}  // namespace bgpatoms::bench
