// ROV deployment trend: for a set of representative years, run the same
// campaign with and without the era-calibrated ROV/ROA state and measure
// how many RIB records route-origin validation removes. Before RPKI
// existed the two runs are identical; by the mid-2020s the (shrinking)
// misconfigured-ROA share times the (growing) validator population
// filters a visible slice of the table.
#include <cstdint>
#include <vector>

#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

std::size_t first_snapshot_records(const core::Campaign& c) {
  return bgp::Dataset::record_count(c.dataset().snapshots.front());
}

constexpr double kYears[] = {2004.0, 2012.0, 2016.0, 2020.0, 2024.75};

/// Per year of kYears, the campaign without ROV, then the one with it.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  std::vector<core::CampaignConfig> configs;
  for (const double year : kYears) {
    core::CampaignConfig config;
    config.year = year;
    config.scale = ctx.scale(0.06);
    config.seed = ctx.seed(3000 + static_cast<int>(year));
    configs.push_back(config);
    config.scenario.rov = true;
    configs.push_back(config);
  }
  return configs;
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[0].scale);
  ctx.note("ROV drops routes whose covering ROA does not authorize the "
           "origin; with era curves the invalid slice is coverage x "
           "misconfiguration, dropped wherever a validating AS sits on "
           "the path to the vantage point.");

  auto& table = ctx.add_table(
      "rov_trend", "RIB records with and without ROV",
      {"year", "ROV adoption", "ROA coverage", "ROA misconfig",
       "records (no ROV)", "records (ROV)", "dropped"});

  double dropped_2012 = 0.0, dropped_2024 = 0.0;
  std::size_t equal_2004 = 0, records_2004 = 0;
  for (std::size_t i = 0; i < configs.size(); i += 2) {
    const double year = configs[i].year;
    const core::Campaign& base = ctx.campaign(configs[i]);
    const core::Campaign& validated = ctx.campaign(configs[i + 1]);
    const std::size_t base_records = first_snapshot_records(base);
    const std::size_t rov_records = first_snapshot_records(validated);
    const double dropped =
        base_records
            ? 1.0 - static_cast<double>(rov_records) /
                        static_cast<double>(base_records)
            : 0.0;

    table.add_row({fmt("%.0f", year), pct(validated.era.rov_adoption),
                   pct(validated.era.roa_coverage),
                   pct(validated.era.roa_misconfig),
                   std::to_string(base_records),
                   std::to_string(rov_records), pct(dropped, 3)});

    if (year == 2004.0) {
      equal_2004 = base_records == rov_records ? 1 : 0;
      records_2004 = base_records;
    }
    if (year == 2012.0) dropped_2012 = dropped;
    if (year == 2024.75) dropped_2024 = dropped;
  }

  ctx.add_metric("rov_dropped_share_2024", dropped_2024,
                 "share of RIB records removed by ROV at 2024.75");

  ctx.add_check(Check::that(
      "ROV is a no-op before RPKI existed (2004)", equal_2004 == 1,
      std::to_string(records_2004) + " records either way",
      "identical tables"));
  ctx.add_check(Check::that(
      "ROV filtering is visible by 2024", dropped_2024 > 0.0,
      pct(dropped_2024, 3) + " of records dropped", "> 0"));
  ctx.add_check(Check::that(
      "ROV filtering grows with deployment",
      dropped_2024 >= dropped_2012,
      arrow_pct(dropped_2012, dropped_2024, 3),
      "2012 adoption 1% -> 2024 adoption 33%"));
}

}  // namespace

void register_table_rov_trend(Registry& registry) {
  registry.add({"table_rov_trend", "scenario", "Scenario (ROV trend)",
                "Era-calibrated ROV deployment filters invalid routes",
                run, campaigns});
}

}  // namespace bgpatoms::bench
