// Figures 7 & 16: per-day breakdown of atom-split events — single- vs
// multi-observer share, and which peer dominates the single-observer
// events.
#include <algorithm>
#include <map>

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

  // Identify the two globally most frequent single-observer peers.
  std::map<net::Asn, std::size_t> freq;
  for (const auto& day : campaign.single_observer_asn_per_day) {
    for (net::Asn a : day) ++freq[a];
  }
  std::vector<std::pair<std::size_t, net::Asn>> ranked;
  for (const auto& [asn, n] : freq) ranked.emplace_back(n, asn);
  std::sort(ranked.rbegin(), ranked.rend());
  const net::Asn top1 = ranked.size() > 0 ? ranked[0].second : 0;
  const net::Asn top2 = ranked.size() > 1 ? ranked[1].second : 0;

  auto& table = ctx.add_table(
      "daily", "",
      {"day", "events", "multi", "single", "top-peer", "2nd-peer", "rest"});
  std::size_t total = 0, single_total = 0, top_total = 0;
  for (std::size_t d = 0; d < campaign.observers_per_day.size(); ++d) {
    const auto& counts = campaign.observers_per_day[d];
    const auto& singles = campaign.single_observer_asn_per_day[d];
    const std::size_t events = counts.size();
    const std::size_t single = singles.size();
    std::size_t by_top = 0, by_second = 0;
    for (net::Asn a : singles) {
      by_top += a == top1;
      by_second += a == top2;
    }
    table.add_row({std::to_string(d + 2), std::to_string(events),
                   std::to_string(events - single), std::to_string(single),
                   std::to_string(by_top), std::to_string(by_second),
                   std::to_string(single - by_top - by_second)});
    total += events;
    single_total += single;
    top_total += by_top;
  }

  const double single_share =
      total ? static_cast<double>(single_total) / total : 0.0;
  const double top_share =
      single_total ? static_cast<double>(top_total) / single_total : 0.0;
  ctx.add_metric("single_observer_share", single_share, "paper ~60%");
  ctx.add_metric("top_peer_share_of_single", top_share,
                 "top peer AS" + std::to_string(top1));
  // Magnitudes are strongly scale-dependent (few vantage points at reduced
  // scale); assert presence of the effect, not the paper's exact shares.
  ctx.add_check(Check::greater(
      "single-observer events form a sizable share", single_share, 0.15,
      pct(single_share) + " of " + std::to_string(total) + " events",
      "paper ~60%"));
  ctx.add_check(Check::greater(
      "one peer dominates single-observer events", top_share, 0.15,
      "AS" + std::to_string(top1) + " saw " + pct(top_share),
      "paper: one RouteViews peer dominates"));
}

}  // namespace

void register_fig07(Registry& registry) {
  registry.add({"fig07", "§4.4.1", "Figure 7/16",
                "Daily split breakdown: single vs multi observer", run});
}

}  // namespace bgpatoms::bench
