// Figure 3: likelihood of an atom / AS being seen in full within a single
// BGP update, 2004 (left) vs 2024 (right).
#include <cmath>

#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void add_panel(Context& ctx, const char* id, const char* title,
               const core::UpdateCorrelation& corr) {
  std::vector<std::string> cols{"prefixes in entity (k):"};
  for (int k = 2; k <= 7; ++k) cols.push_back(std::to_string(k));
  auto& table = ctx.add_table(
      id,
      std::string(title) + " (" + std::to_string(corr.updates_seen) +
          " update records)",
      cols);
  auto line = [&table](const char* label, const core::PrFullCurve& c) {
    std::vector<std::string> cells{label};
    for (int k = 2; k <= 7; ++k) {
      cells.push_back(std::isnan(c.at(k)) ? "-" : pct(c.at(k), 0));
    }
    table.add_row(cells);
  };
  line("Atom (with k prefixes)", corr.atom);
  line("AS (with k prefixes)", corr.as_all);
  line("AS (with at least one atom of size > 1)", corr.as_multi);
  line("AS (with all single-prefix atoms)", corr.as_single);
}

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig config;
  config.with_updates = true;
  return pair_2004_2024(ctx, 0.04, 0.015, config);
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[1].scale);
  const auto& c2004 = ctx.campaign(configs[0]);
  const auto& c2024 = ctx.campaign(configs[1]);

  add_panel(ctx, "y2004", "Year 2004:", *c2004.correlation);
  add_panel(ctx, "y2024", "Year 2024:", *c2024.correlation);

  // Shape checks against §4.2. Per-k assertions only fire where the curve
  // rests on enough touched updates to be meaningful at reduced scale.
  const auto& a24 = c2024.correlation->atom;
  const auto& s24 = c2024.correlation->as_all;
  auto measured = [](const core::PrFullCurve& c, int k) {
    return static_cast<std::size_t>(k) < c.n_any.size() &&
           c.n_any[k] >= kMinUpdatesForCurveCheck && !std::isnan(c.at(k));
  };
  bool atom_above_as = true;
  double gap = 0;
  int gap_n = 0;
  for (int k = 2; k <= 6; ++k) {
    if (!measured(a24, k) || !measured(s24, k)) continue;
    if (!(a24.at(k) > s24.at(k))) atom_above_as = false;
    gap += a24.at(k) - s24.at(k);
    ++gap_n;
  }
  ctx.add_check(Check::that(
      "atom curve above AS curve for k=2..6", atom_above_as,
      "mean gap " + fmt("%.0f", gap_n ? 100 * gap / gap_n : 0.0) + "pp over " +
          std::to_string(gap_n) + " measured k",
      "paper ~30pp"));
  ctx.add_check(Check::that(
      "small atoms (k=2,3) usually seen in full",
      (!measured(a24, 2) || a24.at(2) > 0.25) &&
          (!measured(a24, 3) || a24.at(3) > 0.25),
      "k=2 " + pct(a24.at(2)) + ", k=3 " + pct(a24.at(3)),
      "paper >40% out to k=6; sim updates fragment more at larger k"));
  const double single2 = c2024.correlation->as_single.at(2);
  ctx.add_check(Check::that(
      "all-single-prefix-atom ASes rarely seen in full",
      !measured(c2024.correlation->as_single, 2) || single2 < 0.25,
      "k=2: " + pct(single2),
      "paper near zero; sim floor ~14%"));
}

}  // namespace

void register_fig03(Registry& registry) {
  registry.add({"fig03", "§4.2", "Figure 3",
                "Atoms vs ASes seen in full within one BGP update", run,
                campaigns});
}

}  // namespace bgpatoms::bench
