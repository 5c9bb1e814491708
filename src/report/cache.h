// Keyed campaign cache: CampaignConfig -> materialized Campaign.
//
// Several experiments run byte-identical campaigns (the repro-2002 family
// all starts from the same §3.1 configuration; Tables 1/2 and Figure 2
// share the 2004 and 2024 snapshots; Table 4 and Figure 8 share the v4/v6
// 2024 pair). One bga_bench process runs them all, so each distinct
// configuration is simulated once and every later request is a cache hit
// with a pointer-identical result — simulation is deterministic, so hits
// are bit-identical to cold runs.
//
// Thread-safety: the map is mutex-guarded; campaigns are computed
// outside the lock. Experiments run sequentially (parallelism lives
// inside sweeps), so concurrent duplicate computes don't arise in
// practice — and would be benign (deterministic results, first insert
// wins).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/longitudinal.h"

namespace bgpatoms::report {

/// Exact byte key over every CampaignConfig field (doubles keyed by bit
/// pattern, so 0.0 and -0.0 differ — configs only ever use literals, so
/// this never splits logically-equal configs in practice).
std::string campaign_cache_key(const core::CampaignConfig& config);

class CampaignCache {
 public:
  /// Runs (or returns the cached) full campaign for `config`. The cache
  /// keeps the campaign alive for its own lifetime, so returned pointers
  /// stay valid across experiments.
  std::shared_ptr<const core::Campaign> campaign(
      const core::CampaignConfig& config);

  struct Stats {
    std::size_t campaign_hits = 0;
    std::size_t campaign_misses = 0;
    std::size_t hits() const { return campaign_hits; }
    std::size_t misses() const { return campaign_misses; }
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const core::Campaign>> campaigns_;
  Stats stats_;
};

}  // namespace bgpatoms::report
