// Table 2: formation-distance distribution in 2004 and 2024 (method iii).
#include "core/formation.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  return pair_2004_2024(ctx, 0.05, 0.03);
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[0].scale);
  const auto& c2004 = ctx.campaign(configs[0]);
  const auto& c2024 = ctx.campaign(configs[1]);

  const auto f2004 = core::formation_distance(c2004.atoms());
  const auto f2024 = core::formation_distance(c2024.atoms());

  constexpr double kPaper2004[] = {0, 0.45, 0.30, 0.17, 0.06};
  constexpr double kPaper2024[] = {0, 0.20, 0.30, 0.33, 0.12};

  auto& dist = ctx.add_table(
      "distance", "",
      {"", "2004 paper", "2004 sim", "2024 paper", "2024 sim"});
  for (int d = 1; d <= 4; ++d) {
    dist.add_row({"Atom formed at dist " + std::to_string(d),
                  pct(kPaper2004[d], 0), pct(f2004.share_at(d)),
                  pct(kPaper2024[d], 0), pct(f2024.share_at(d))});
  }
  dist.add_row({"Atom formed at dist 5+", "~2%",
                pct(1 - f2004.cumulative_share(4)), "~5%",
                pct(1 - f2024.cumulative_share(4))});

  ctx.add_table("trends", "Key trends (paper §4.3):", {"", "sim", "paper"})
      .add_row({"distance-1 share falls",
                arrow_pct(f2004.share_at(1), f2024.share_at(1), 1),
                "45% -> 20%"})
      .add_row({"distance>=3 share rises",
                arrow_pct(1 - f2004.cumulative_share(2),
                          1 - f2024.cumulative_share(2), 1),
                "23% -> 45%"});

  using Cause = core::DistanceOneCause;
  ctx.add_table("causes", "Distance-1 cause breakdown (sim):",
                {"", "2004", "2024"})
      .add_row({"only atom of origin AS",
                pct(f2004.cause_share(Cause::kOnlyAtomOfOrigin)),
                pct(f2024.cause_share(Cause::kOnlyAtomOfOrigin))})
      .add_row({"unique vantage-point set",
                pct(f2004.cause_share(Cause::kUniquePeerSet)),
                pct(f2024.cause_share(Cause::kUniquePeerSet))})
      .add_row({"AS-path prepending",
                pct(f2004.cause_share(Cause::kPrepending)),
                pct(f2024.cause_share(Cause::kPrepending))});

  ctx.add_check(Check::less(
      "distance-1 share falls 2004 -> 2024", f2024.share_at(1),
      f2004.share_at(1), arrow_pct(f2004.share_at(1), f2024.share_at(1)),
      "paper 45% -> 20%"));
  const double d3_2004 = 1 - f2004.cumulative_share(2);
  const double d3_2024 = 1 - f2024.cumulative_share(2);
  if (f2024.total_atoms >= kMinAtomsForDistanceTrendCheck) {
    ctx.add_check(Check::greater("distance>=3 share rises 2004 -> 2024",
                                 d3_2024, d3_2004,
                                 arrow_pct(d3_2004, d3_2024),
                                 "paper 23% -> 45%"));
  } else {
    ctx.add_check(Check::near(
        "distance>=3 share holds 2004 -> 2024 (sample too small to "
        "resolve the paper rise)",
        d3_2024, d3_2004, 0.03, arrow_pct(d3_2004, d3_2024),
        "paper 23% -> 45%"));
  }
}

}  // namespace

void register_table2(Registry& registry) {
  registry.add({"table2", "§4.3", "Table 2",
                "Formation distance distribution in 2004 and 2024", run,
                campaigns});
}

}  // namespace bgpatoms::bench
