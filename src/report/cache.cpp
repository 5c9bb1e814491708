#include "report/cache.h"

#include <cstring>

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

std::shared_ptr<const core::Campaign> CampaignCache::campaign(
    const core::CampaignConfig& config) {
  const std::string key = campaign_cache_key(config);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = campaigns_.find(key);
    if (it != campaigns_.end()) {
      ++stats_.campaign_hits;
      OBS_COUNT("cache.campaign_hits");
      return it->second;
    }
  }
  auto run = std::make_shared<const core::Campaign>(
      core::run_campaign(config));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = campaigns_.emplace(key, std::move(run));
  ++stats_.campaign_misses;
  OBS_COUNT("cache.campaign_misses");
  return it->second;
}

CampaignCache::Stats CampaignCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace bgpatoms::report
