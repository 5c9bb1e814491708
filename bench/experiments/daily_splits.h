// Shared daily-split campaign for Figures 6, 7 and 16 (§4.4.1): daily
// snapshots, split detection over sliding (t, t+1, t+2) windows, observer
// counting per event. Memoized per (days, scale, seed) so fig06 and
// fig07 — which run the identical campaign — simulate it once per
// bga_bench process.
#pragma once

#include <cstdint>
#include <vector>

#include "net/asn.h"

namespace bgpatoms::bench {

struct DailySplitCampaign {
  /// Per day (starting at day index 2): observer count of each split event.
  std::vector<std::vector<std::size_t>> observers_per_day;
  /// ASN of the single observer for 1-observer events, per day.
  std::vector<std::vector<net::Asn>> single_observer_asn_per_day;

  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& day : observers_per_day) n += day.size();
    return n;
  }
};

/// Runs (or returns the process-cached) daily-split campaign, grouping
/// atoms on `threads` workers (the result does not depend on them).
const DailySplitCampaign& run_daily_splits(int days, double scale,
                                           std::uint64_t seed, int threads);

}  // namespace bgpatoms::bench
