// Reference §2.4 sanitizer for the differential test in test_sanitize.cpp:
// the straightforward hash-container implementation core::sanitize once
// was, kept as the oracle the dense-array rewrite is compared against.
// It hashes every record and interns every record's path, so it is slow,
// but each pass reads as the rule it implements. Dedup keeps the first
// record per prefix in feed order (sort by prefix only, stably).
#pragma once

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/sanitize.h"
#include "net/asn.h"

namespace bgpatoms::test {

namespace reference_detail {

struct PeerScan {
  std::size_t records = 0;
  std::size_t corrupt = 0;
  std::size_t duplicates = 0;
  std::size_t bogon_paths = 0;
  std::size_t unique_prefixes = 0;
};

inline PeerScan scan_peer(const net::PathPool& paths,
                          const bgp::PeerFeed& feed) {
  PeerScan s;
  s.records = feed.records.size();
  std::unordered_set<bgp::PrefixId> seen;
  for (const auto& rec : feed.records) {
    if (bgp::is_addpath_artifact(rec.status)) ++s.corrupt;
    if (!seen.insert(rec.prefix).second) ++s.duplicates;
    const auto hops = paths.get(rec.path).flat();
    for (std::size_t i = 1; i < hops.size(); ++i) {
      if (net::is_bogon_asn(hops[i])) {
        ++s.bogon_paths;
        break;
      }
    }
  }
  s.unique_prefixes = seen.size();
  return s;
}

}  // namespace reference_detail

inline core::SanitizedSnapshot reference_sanitize(
    const bgp::SnapshotView& src, const bgp::Snapshot& snap,
    const core::SanitizeConfig& config) {
  using core::PeerRemovalReason;
  using reference_detail::PeerScan;
  core::SanitizedSnapshot out;
  out.prefix_pool = &src.prefixes();
  out.timestamp = snap.timestamp;
  auto& rep = out.report;
  rep.peers_in = snap.peers.size();

  const int max_len =
      config.max_prefix_length > 0
          ? config.max_prefix_length
          : (src.family() == net::Family::kIPv4 ? 24 : 48);

  // Pass 1: abnormal-peer removal.
  std::vector<const bgp::PeerFeed*> kept;
  std::vector<std::uint32_t> kept_index;
  std::vector<PeerScan> scans;
  for (std::uint32_t raw = 0; raw < snap.peers.size(); ++raw) {
    const auto& feed = snap.peers[raw];
    const PeerScan s = reference_detail::scan_peer(src.paths(), feed);
    if (config.remove_abnormal_peers && s.records > 0) {
      const double n = static_cast<double>(s.records);
      const double corrupt_share = static_cast<double>(s.corrupt) / n;
      const double dup_share = static_cast<double>(s.duplicates) / n;
      const double bogon_share = static_cast<double>(s.bogon_paths) / n;
      if (corrupt_share > config.addpath_artifact_threshold) {
        rep.removed_peers.push_back(
            {feed.peer, PeerRemovalReason::kAddPathArtifacts, corrupt_share});
        continue;
      }
      if (bogon_share > config.private_asn_threshold) {
        rep.removed_peers.push_back(
            {feed.peer, PeerRemovalReason::kPrivateAsnInjection, bogon_share});
        continue;
      }
      if (dup_share > config.duplicate_threshold) {
        rep.removed_peers.push_back(
            {feed.peer, PeerRemovalReason::kExcessiveDuplicates, dup_share});
        continue;
      }
    }
    kept.push_back(&feed);
    kept_index.push_back(raw);
    scans.push_back(s);
  }

  // Pass 2: full-feed inference.
  std::size_t max_unique = 0;
  for (const auto& s : scans) {
    max_unique = std::max(max_unique, s.unique_prefixes);
  }
  rep.max_unique_prefixes = max_unique;
  const auto full_feed_min = static_cast<std::size_t>(
      std::ceil(config.full_feed_fraction * static_cast<double>(max_unique) -
                1e-9));
  if (config.full_feed_only) {
    std::vector<const bgp::PeerFeed*> full;
    std::vector<std::uint32_t> full_index;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (scans[i].unique_prefixes >= full_feed_min) {
        full.push_back(kept[i]);
        full_index.push_back(kept_index[i]);
      } else {
        rep.removed_peers.push_back(
            {kept[i]->peer, PeerRemovalReason::kPartialFeed,
             max_unique == 0
                 ? 0.0
                 : static_cast<double>(scans[i].unique_prefixes) /
                       static_cast<double>(max_unique)});
      }
    }
    kept = std::move(full);
    kept_index = std::move(full_index);
  }
  rep.full_feed_peers = kept.size();

  // Pass 3: record cleaning, per-record interning, first-wins dedup.
  for (std::size_t k = 0; k < kept.size(); ++k) {
    core::VpTable table;
    table.peer = kept[k]->peer;
    table.source_index = kept_index[k];
    for (const auto& rec : kept[k]->records) {
      if (bgp::is_addpath_artifact(rec.status)) {
        ++rep.records_dropped_corrupt;
        continue;
      }
      const auto& raw = src.paths().get(rec.path);
      bgp::PathId pid;
      if (raw.has_set()) {
        if (!raw.sets_all_singleton()) {
          ++rep.records_dropped_asset;
          continue;
        }
        pid = out.paths.intern(raw.with_singleton_sets_expanded());
        ++rep.asset_paths_expanded;
      } else {
        pid = out.paths.intern(raw);
      }
      table.routes.emplace_back(rec.prefix, pid);
    }
    const auto same_prefix = [](const auto& a, const auto& b) {
      return a.first == b.first;
    };
    std::stable_sort(
        table.routes.begin(), table.routes.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    table.routes.erase(
        std::unique(table.routes.begin(), table.routes.end(), same_prefix),
        table.routes.end());
    out.vps.push_back(std::move(table));
  }

  // Pass 4: visibility and length filtering.
  struct Visibility {
    std::unordered_set<std::uint16_t> collectors;
    std::unordered_set<net::Asn> peer_ases;
  };
  std::unordered_map<bgp::PrefixId, Visibility> vis;
  for (const auto& table : out.vps) {
    for (const auto& [prefix, path] : table.routes) {
      auto& v = vis[prefix];
      v.collectors.insert(table.peer.collector);
      v.peer_ases.insert(table.peer.asn);
    }
  }
  rep.prefixes_in = vis.size();
  std::unordered_set<bgp::PrefixId> keep_prefixes;
  for (const auto& [prefix, v] : vis) {
    if (src.prefixes().get(prefix).length() > max_len) {
      ++rep.prefixes_dropped_length;
      continue;
    }
    if (config.filter_prefixes &&
        (v.collectors.size() <
             static_cast<std::size_t>(config.min_collectors) ||
         v.peer_ases.size() < static_cast<std::size_t>(config.min_peer_ases))) {
      ++rep.prefixes_dropped_visibility;
      continue;
    }
    keep_prefixes.insert(prefix);
  }
  rep.prefixes_kept = keep_prefixes.size();
  for (auto& table : out.vps) {
    std::erase_if(table.routes, [&](const auto& entry) {
      return !keep_prefixes.contains(entry.first);
    });
  }
  out.prefixes.assign(keep_prefixes.begin(), keep_prefixes.end());
  std::sort(out.prefixes.begin(), out.prefixes.end());

  // MOAS accounting.
  std::unordered_map<bgp::PrefixId, net::Asn> first_origin;
  std::unordered_set<bgp::PrefixId> moas;
  for (const auto& table : out.vps) {
    for (const auto& [prefix, path] : table.routes) {
      const auto origin = out.paths.get(path).origin();
      if (!origin) continue;
      const auto [it, fresh] = first_origin.emplace(prefix, *origin);
      if (!fresh && it->second != *origin) moas.insert(prefix);
    }
  }
  rep.moas_prefixes = moas.size();
  return out;
}

}  // namespace bgpatoms::test
