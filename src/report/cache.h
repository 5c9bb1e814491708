// Campaign plan: CampaignConfig -> materialized Campaign for one run.
//
// Several experiments run byte-identical campaigns (the repro-2002 family
// all starts from the same §3.1 configuration; Tables 1/2 and Figure 2
// share the 2004 and 2024 snapshots; Table 4 and Figure 8 share the v4/v6
// 2024 pair). Each experiment lists the configs it will request in its
// `plan`; run_experiments adds the selection's plans here in run order,
// builds every distinct campaign once in one TaskPool batch, heaviest
// first, runs the experiments in order on the calling thread, and frees
// each campaign after its last planned user. Every request for one config returns the
// same Campaign, and simulation is deterministic, so results are
// bit-identical at any thread count.
//
// Thread-safety: only build() runs on the pool, and each of its tasks
// writes its own entry; run_campaign keeps its atom grouping serial, so
// no task calls back into the pool. Everything else runs on the calling
// thread.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/longitudinal.h"

namespace bgpatoms::core {
class TaskPool;
}

namespace bgpatoms::report {

/// Exact byte key over every CampaignConfig field (doubles keyed by bit
/// pattern, so 0.0 and -0.0 differ — configs only ever use literals, so
/// this never splits logically-equal configs in practice).
std::string campaign_cache_key(const core::CampaignConfig& config);

/// Planned-reuse totals of one run.
struct CampaignStats {
  /// Planned requests for a campaign that an earlier request named.
  std::size_t campaign_hits = 0;
  /// Distinct campaigns built.
  std::size_t campaign_misses = 0;
  /// Wall time of the batch that built them.
  double build_seconds = 0.0;
  std::size_t hits() const { return campaign_hits; }
  std::size_t misses() const { return campaign_misses; }
};

class CampaignPlan {
 public:
  /// Records the configs that experiment `user` will request. Users are
  /// numbered in run order and added in that order.
  void add(std::size_t user, const std::vector<core::CampaignConfig>& configs);

  /// Builds every distinct planned campaign on `pool`, one task each,
  /// handed out by descending core::campaign_cost so that no worker idles
  /// through the batch's tail. Each result is stored with its entry.
  void build(core::TaskPool& pool);

  /// The built campaign for `config`, or nullptr when `user` did not plan
  /// it.
  const core::Campaign* find(std::size_t user,
                             const core::CampaignConfig& config) const;

  /// Frees the campaigns whose last planned user is `user`.
  void release(std::size_t user);

  const CampaignStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string key;
    core::CampaignConfig config;
    std::size_t last_user = 0;
    std::optional<core::Campaign> campaign;
  };
  /// Distinct configs in first-use order (the build runs heaviest first).
  std::vector<Entry> entries_;
  /// Key -> index into entries_.
  std::map<std::string, std::size_t> index_;
  /// Per user, the entries_ indices it planned.
  std::vector<std::vector<std::size_t>> planned_;
  CampaignStats stats_;
};

}  // namespace bgpatoms::report
