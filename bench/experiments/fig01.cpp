// Figure 1: formation distance of policy atoms in 2002 computed with
// method (iii) (left plot) vs method (ii) (right plot).
#include "core/formation.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void add_series(Context& ctx, const char* id, const char* title,
                const core::FormationResult& f) {
  std::vector<std::string> cols{"distance:"};
  for (int d = 1; d <= 6; ++d) cols.push_back(std::to_string(d));
  auto& table = ctx.add_table(id, title, cols);
  auto row = [&table](const char* label, auto value) {
    std::vector<std::string> cells{label};
    for (int d = 1; d <= 6; ++d) cells.push_back(value(d));
    table.add_row(cells);
  };
  row("% atoms created at distance",
      [&](int d) { return pct(f.share_at(d)); });
  row("cumulative", [&](int d) { return pct(f.cumulative_share(d)); });
  row("% first atoms split at dist", [&](int d) {
    return pct(f.total_ases
                   ? static_cast<double>(f.first_split_at[d]) / f.total_ases
                   : 0.0);
  });
  row("% all atoms split at dist", [&](int d) {
    return pct(f.total_ases
                   ? static_cast<double>(f.all_split_at[d]) / f.total_ases
                   : 0.0);
  });
}

void run(Context& ctx) {
  auto config = repro_2002_config(ctx);
  ctx.note_scale(config.scale);
  const auto& c = ctx.campaign(config);

  const auto m3 =
      core::formation_distance(c.atoms(), core::PrependMethod::kRunAware);
  const auto m2 = core::formation_distance(
      c.atoms(), core::PrependMethod::kStripAfterGrouping);

  add_series(ctx, "method3", "Method (iii) — run-aware (left plot, adopted):",
             m3);
  add_series(ctx, "method2", "Method (ii) — strip after grouping (right plot):",
             m2);

  const double diff_pp = 100 * (m3.share_at(1) - m2.share_at(1));
  ctx.note(
      "Paper finding (§3.4.3): method (iii) puts ~10pp more atoms at\n"
      "distance 1 than method (ii) — the prepending-only atoms.");
  ctx.add_metric("method3_d1_share", m3.share_at(1));
  ctx.add_metric("method2_d1_share", m2.share_at(1));
  ctx.add_metric(
      "prepend_cause_share",
      m3.cause_share(core::DistanceOneCause::kPrepending),
      "share of distance-1 atoms explained by AS-path prepending");
  ctx.add_check(Check::greater(
      "method (iii) puts more atoms at distance 1 than method (ii)",
      m3.share_at(1), m2.share_at(1),
      pct(m3.share_at(1)) + " vs " + pct(m2.share_at(1)) + " (diff " +
          fmt("%.1f", diff_pp) + "pp)",
      "paper ~10pp more"));
}

}  // namespace

void register_fig01(Registry& registry) {
  registry.add({"fig01", "§3.4.3", "Figure 1",
                "Formation distance, method (iii) vs method (ii), 2002", run,
                repro_2002_plan});
}

}  // namespace bgpatoms::bench
