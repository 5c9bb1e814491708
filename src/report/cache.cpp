#include "report/cache.h"

#include <chrono>
#include <cstring>

#include "core/parallel.h"
#include "obs/obs.h"

namespace bgpatoms::report {
namespace {

template <typename T>
void append_bits(std::string& key, const T& value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  key.append(buf, sizeof(T));
}

}  // namespace

// Keep in sync with core::CampaignConfig / core::SanitizeConfig: every
// field that influences the simulation must be keyed, or two distinct
// configs would alias to one cached result.
std::string campaign_cache_key(const core::CampaignConfig& c) {
  std::string key;
  key.reserve(96);
  append_bits(key, static_cast<int>(c.family));
  append_bits(key, c.year);
  append_bits(key, c.scale);
  append_bits(key, c.seed);
  append_bits(key, c.with_updates);
  append_bits(key, c.with_stability);
  append_bits(key, c.sanitize.full_feed_fraction);
  append_bits(key, c.sanitize.min_collectors);
  append_bits(key, c.sanitize.min_peer_ases);
  append_bits(key, c.sanitize.max_prefix_length);
  append_bits(key, c.sanitize.addpath_artifact_threshold);
  append_bits(key, c.sanitize.duplicate_threshold);
  append_bits(key, c.sanitize.private_asn_threshold);
  append_bits(key, c.sanitize.remove_abnormal_peers);
  append_bits(key, c.sanitize.filter_prefixes);
  append_bits(key, c.sanitize.full_feed_only);
  append_bits(key, c.force_collectors);
  append_bits(key, c.force_peers);
  append_bits(key, c.force_full_feed_frac);
  append_bits(key, c.scenario.origin_hijacks);
  append_bits(key, c.scenario.subprefix_hijacks);
  append_bits(key, c.scenario.route_leaks);
  append_bits(key, c.scenario.rov);
  return key;
}

void CampaignPlan::add(std::size_t user,
                       const std::vector<core::CampaignConfig>& configs) {
  if (planned_.size() <= user) planned_.resize(user + 1);
  for (const auto& config : configs) {
    std::string key = campaign_cache_key(config);
    const auto [it, inserted] = index_.emplace(key, entries_.size());
    if (inserted) {
      entries_.push_back({std::move(key), config, user, std::nullopt});
      ++stats_.campaign_misses;
      OBS_COUNT("cache.campaign_misses");
    } else {
      entries_[it->second].last_user = user;
      ++stats_.campaign_hits;
      OBS_COUNT("cache.campaign_hits");
    }
    planned_[user].push_back(it->second);
  }
}

void CampaignPlan::build(core::TaskPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    OBS_SPAN("report.plan");
    std::vector<double> cost(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      cost[i] = core::campaign_cost(entries_[i].config);
    }
    const std::vector<std::size_t> order = core::heaviest_first(cost);
    pool.run(order.size(), [&](std::size_t k) {
      Entry& e = entries_[order[k]];
      e.campaign.emplace(core::run_campaign(e.config));
    });
  }
  stats_.build_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
}

const core::Campaign* CampaignPlan::find(
    std::size_t user, const core::CampaignConfig& config) const {
  if (user >= planned_.size()) return nullptr;
  const std::string key = campaign_cache_key(config);
  for (const std::size_t i : planned_[user]) {
    const Entry& e = entries_[i];
    if (e.key == key && e.campaign) return &*e.campaign;
  }
  return nullptr;
}

void CampaignPlan::release(std::size_t user) {
  for (Entry& e : entries_) {
    if (e.last_user == user) e.campaign.reset();
  }
}

}  // namespace bgpatoms::report
