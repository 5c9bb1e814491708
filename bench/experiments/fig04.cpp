// Figure 4: percentage of atoms created at distances 1-5 from the origin
// AS, quarterly 2004-2024 (solid: all ASes; dashed: excluding single-atom
// ASes).
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
                                           ctx.seed(1000 + (int)year)));
  }
  const auto metrics = ctx.run_sweep(configs);

  std::vector<std::string> cols{"year"};
  for (const char* side : {"all", "multi"}) {
    for (int d = 1; d <= 5; ++d) {
      cols.push_back(std::string(side) + " d" + std::to_string(d));
    }
  }
  auto& table = ctx.add_table(
      "trend", "all ASes (d=1..5) | excl. single-atom ASes (d=1..5)", cols);

  double first_d1 = -1, last_d1 = 0, first_d3 = -1, last_d3 = 0;
  for (const auto& m : metrics) {
    std::vector<std::string> row{fmt("%.0f", m.year)};
    for (int d = 1; d <= 5; ++d) row.push_back(fmt("%.1f", 100 * m.formed_at[d]));
    for (int d = 1; d <= 5; ++d) {
      row.push_back(fmt("%.1f", 100 * m.formed_at_multi[d]));
    }
    table.add_row(row);
    // Anchor "first" on the first quarter that produced formation data, so
    // a no-data quarter at reduced scale cannot zero the baseline.
    const double total =
        m.formed_at[1] + m.formed_at[2] + m.formed_at[3] + m.formed_at[4] +
        m.formed_at[5];
    if (total <= 0) continue;
    if (first_d1 < 0) {
      first_d1 = m.formed_at[1];
      first_d3 = m.formed_at[3];
    }
    last_d1 = m.formed_at[1];
    last_d3 = m.formed_at[3];
  }

  ctx.add_check(Check::less(
      "distance-1 share falls over the period", last_d1, first_d1 - 0.05,
      arrow_pct(first_d1, last_d1), "paper 45% -> 20%"));
  ctx.add_check(Check::greater(
      "distance-3 share rises over the period", last_d3, first_d3 + 0.02,
      arrow_pct(first_d3, last_d3), "paper 17% -> 33%"));
}

}  // namespace

void register_fig04(Registry& registry) {
  registry.add({"fig04", "§4.3", "Figure 4",
                "Formation-distance trend, 2004-2024 (IPv4)", run});
}

}  // namespace bgpatoms::bench
