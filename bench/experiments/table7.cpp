// Table 7 (Appendix A8.5): sensitivity of the prefix-visibility thresholds.
// Count of retained prefixes under [min collectors] x [min peer ASes].
#include <algorithm>

#include "core/parallel.h"
#include "core/sanitize.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  // One Oct-2024 snapshot, sanitized repeatedly under different thresholds.
  core::CampaignConfig base;
  base.year = 2024.75;
  base.scale = ctx.scale(0.02);
  base.seed = ctx.seed(42);
  return {base};
}

/// The grid: at least 1..kCollectors collectors by 1..kPeers peer ASes.
constexpr int kCollectors = 3, kPeers = 5;

void run(Context& ctx) {
  const auto base = campaigns(ctx).front();
  ctx.note_scale(base.scale);
  const auto& campaign = ctx.campaign(base);
  const auto& ds = campaign.dataset();

  ctx.note(
      "Paper (Oct 2025 snapshot, real Internet): 1,028,444 at the adopted\n"
      "threshold [>=2 collectors, >=4 peer ASes]; <0.5% variation across\n"
      "neighboring cells.");

  std::vector<std::string> cols{"collectors\\peers"};
  for (int peers = 1; peers <= kPeers; ++peers) {
    cols.push_back(std::to_string(peers));
  }
  auto& table = ctx.add_table("grid", "", cols);

  // The cells sanitize the one dataset independently: one batch on the
  // run's pool, rendered in grid order.
  std::vector<std::size_t> cells(kCollectors * kPeers);
  ctx.pool().run(cells.size(), [&](std::size_t i) {
    core::SanitizeConfig config;
    config.min_collectors = static_cast<int>(i / kPeers) + 1;
    config.min_peer_ases = static_cast<int>(i % kPeers) + 1;
    cells[i] = core::sanitize(ds, 0, config).report.prefixes_kept;
  });

  double adopted = 0, corner_min = 1e18, corner_max = 0;
  for (int colls = 1; colls <= kCollectors; ++colls) {
    std::vector<std::string> row{std::to_string(colls) +
                                 (colls == 2 ? " (adopted)" : "")};
    for (int peers = 1; peers <= kPeers; ++peers) {
      const std::size_t cell = cells[(colls - 1) * kPeers + (peers - 1)];
      const double kept = static_cast<double>(cell);
      row.push_back(std::to_string(cell));
      if (colls == 2 && peers == 4) adopted = kept;
      if (peers >= 4) {
        corner_min = std::min(corner_min, kept);
        corner_max = std::max(corner_max, kept);
      }
    }
    table.add_row(row);
  }

  const double spread = (corner_max - corner_min) / corner_max;
  ctx.add_metric("adopted_cell_prefixes", adopted,
                 "[>=2 collectors, >=4 peer ASes]");
  ctx.add_metric("spread_across_strict_cells", spread,
                 "relative spread across >=4-peer cells");
  ctx.add_check(Check::less(
      "prefix count insensitive near adopted threshold", spread, 0.02,
      pct(spread, 2) + " spread", "paper <0.5%"));
}

}  // namespace

void register_table7(Registry& registry) {
  registry.add({"table7", "§A8.5", "Table 7",
                "Prefix count under visibility-threshold combinations", run,
                campaigns});
}

}  // namespace bgpatoms::bench
