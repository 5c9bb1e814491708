#include "core/sanitize.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "net/asn.h"
#include "obs/obs.h"

namespace bgpatoms::core {

bgp::PathId VpTable::path_for(bgp::PrefixId prefix) const {
  const auto it = std::lower_bound(
      routes.begin(), routes.end(), prefix,
      [](const auto& entry, bgp::PrefixId p) { return entry.first < p; });
  if (it == routes.end() || it->first != prefix) {
    return net::PathPool::kEmptyPathId;
  }
  return it->second;
}

const char* to_string(PeerRemovalReason reason) {
  switch (reason) {
    case PeerRemovalReason::kAddPathArtifacts:
      return "ADD-PATH artifacts";
    case PeerRemovalReason::kPrivateAsnInjection:
      return "private-ASN injection";
    case PeerRemovalReason::kExcessiveDuplicates:
      return "excessive duplicates";
    case PeerRemovalReason::kPartialFeed:
      return "partial feed";
  }
  return "?";
}

CleanPath clean_path(net::PathView raw, net::PathPool& pool) {
  if (!raw.has_set()) return {pool.intern(raw), CleanPath::Fate::kAsIs};
  if (!raw.sets_all_singleton()) {
    return {net::PathPool::kEmptyPathId, CleanPath::Fate::kDropped};
  }
  // Every set is a singleton, so the expansion merges all the hops into
  // one AS_SEQUENCE.
  return {pool.intern(raw.hops()), CleanPath::Fate::kExpanded};
}

namespace {

struct PeerScan {
  std::size_t records = 0;
  std::size_t corrupt = 0;
  std::size_t duplicates = 0;
  std::size_t bogon_paths = 0;
  std::size_t unique_prefixes = 0;
};

/// Generation stamps over the dense prefix-id space: mark(p) is true the
/// first time `p` is marked since the last next_group(). One array serves
/// every "distinct per group" count sanitize makes, where a hash set per
/// group would otherwise hash every record.
class PrefixStamps {
 public:
  explicit PrefixStamps(std::size_t prefixes) : stamp_(prefixes, 0) {}

  void next_group() { ++gen_; }
  bool mark(bgp::PrefixId prefix) {
    if (stamp_[prefix] == gen_) return false;
    stamp_[prefix] = gen_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t gen_ = 0;  // stamps start at 0: call next_group() first
};

/// True if a bogon ASN sits anywhere behind the path's first hop, AS_SET
/// members included. The peer's own leading hop may legitimately be
/// private; a bogon deeper in signals injection (the AS65000 case).
bool bogon_behind_head(net::PathView path) {
  const auto hops = path.hops();
  return !hops.empty() &&
         std::any_of(hops.begin() + 1, hops.end(), net::is_bogon_asn);
}

/// Pass 1: statistics for every raw feed, in snapshot order. The bogon
/// test runs once per distinct source path.
std::vector<PeerScan> scan_peers(const net::PathPool& paths,
                                 const bgp::Snapshot& snap,
                                 PrefixStamps& stamps) {
  OBS_SPAN("sanitize.scan");
  enum : std::uint8_t { kUnused, kUsed, kBogon };
  std::vector<std::uint8_t> path_state(paths.size(), kUnused);
  std::vector<PeerScan> scans(snap.peers.size());
  std::size_t records = 0;
  for (std::size_t raw = 0; raw < snap.peers.size(); ++raw) {
    const auto& feed = snap.peers[raw];
    PeerScan& s = scans[raw];
    s.records = feed.records.size();
    records += s.records;
    stamps.next_group();
    for (const auto& rec : feed.records) {
      if (bgp::is_addpath_artifact(rec.status)) ++s.corrupt;
      if (stamps.mark(rec.prefix)) {
        ++s.unique_prefixes;
      } else {
        ++s.duplicates;
      }
      path_state[rec.path] = kUsed;
    }
  }
  // Test the used paths in id order: a pool's hops sit in its arena in id
  // order, so this walks forward where feed order would jump.
  std::size_t distinct_paths = 0;
  for (bgp::PathId id = 0; id < path_state.size(); ++id) {
    if (path_state[id] == kUnused) continue;
    ++distinct_paths;
    if (bogon_behind_head(paths.get(id))) path_state[id] = kBogon;
  }
  for (std::size_t raw = 0; raw < snap.peers.size(); ++raw) {
    for (const auto& rec : snap.peers[raw].records) {
      if (path_state[rec.path] == kBogon) ++scans[raw].bogon_paths;
    }
  }
  OBS_COUNT_N("sanitize.records", records);
  OBS_COUNT_N("sanitize.paths_memoized", distinct_paths);
  return scans;
}

/// Pass 3: the kept feeds' cleaned, deduplicated tables, in kept order.
/// The AS_SET policy and interning run once per distinct source path
/// (memo by source PathId), in first-encounter order over the kept feeds,
/// so sanitized path ids are those of per-record interning.
void clean_tables(const net::PathPool& paths, const bgp::Snapshot& snap,
                  const std::vector<std::uint32_t>& kept,
                  SanitizedSnapshot& out) {
  OBS_SPAN("sanitize.clean");
  auto& rep = out.report;
  constexpr bgp::PathId kUnseen = UINT32_MAX;
  constexpr bgp::PathId kQueued = UINT32_MAX - 1;
  std::vector<CleanPath> memo(paths.size(), CleanPath{kUnseen});

  // Tables of (prefix, source path id), and the distinct source paths in
  // the order they are first met.
  std::vector<bgp::PathId> first_met;
  std::vector<std::uint8_t> sorted(kept.size(), 1);
  out.vps.resize(kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const auto& feed = snap.peers[kept[k]];
    VpTable& table = out.vps[k];
    table.peer = feed.peer;
    table.source_index = kept[k];
    auto& routes = table.routes;
    routes.reserve(feed.records.size());
    for (const auto& rec : feed.records) {
      if (bgp::is_addpath_artifact(rec.status)) {
        ++rep.records_dropped_corrupt;
        continue;
      }
      if (memo[rec.path].id == kUnseen) {
        memo[rec.path].id = kQueued;
        first_met.push_back(rec.path);
      }
      if (!routes.empty() && rec.prefix < routes.back().first) sorted[k] = 0;
      routes.emplace_back(rec.prefix, rec.path);
    }
  }

  // Clean and intern each distinct path. Hops sit in the arena in id
  // order but are met in feed order, so each read would stall on a cache
  // miss: prefetch the hops some paths ahead.
  for (std::size_t i = 0; i < first_met.size(); ++i) {
    if (i + 8 < first_met.size()) {
      __builtin_prefetch(paths.get(first_met[i + 8]).hops().data());
    }
    memo[first_met[i]] = clean_path(paths.get(first_met[i]), out.paths);
  }

  // Sanitized path ids in place of source ids; then deduplicate, first
  // record in feed order wins: a stable sort by prefix alone keeps
  // duplicates in feed order (most feeds arrive sorted and skip it), and
  // unique keeps the first of each run.
  for (std::size_t k = 0; k < kept.size(); ++k) {
    auto& routes = out.vps[k].routes;
    std::size_t n = 0;
    for (const auto& [prefix, source] : routes) {
      const CleanPath& clean = memo[source];
      if (clean.fate == CleanPath::Fate::kDropped) {
        ++rep.records_dropped_asset;
        continue;
      }
      if (clean.fate == CleanPath::Fate::kExpanded) ++rep.asset_paths_expanded;
      routes[n++] = {prefix, clean.id};
    }
    routes.resize(n);
    if (!sorted[k]) {
      std::stable_sort(
          routes.begin(), routes.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    routes.erase(std::unique(routes.begin(), routes.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 routes.end());
  }
}

/// Per-prefix count of distinct `key` values among the VPs whose tables
/// carry the prefix: visits the VPs grouped by key and counts a prefix
/// once per group.
template <typename Key>
std::vector<std::uint32_t> distinct_per_prefix(const std::vector<VpTable>& vps,
                                               std::size_t prefixes,
                                               PrefixStamps& stamps, Key key) {
  std::vector<std::uint32_t> order(vps.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return key(vps[a]) < key(vps[b]);
  });
  std::vector<std::uint32_t> count(prefixes, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VpTable& table = vps[order[i]];
    if (i == 0 || key(table) != key(vps[order[i - 1]])) stamps.next_group();
    for (const auto& [prefix, path] : table.routes) {
      if (stamps.mark(prefix)) ++count[prefix];
    }
  }
  return count;
}

/// Pass 4: keeps prefixes by length and visibility, in ascending id order,
/// and drops every other prefix from the tables.
void filter_prefixes(const bgp::PrefixPool& pool, const SanitizeConfig& config,
                     int max_len, PrefixStamps& stamps,
                     SanitizedSnapshot& out) {
  OBS_SPAN("sanitize.filter");
  const std::size_t n = pool.size();
  const auto collectors = distinct_per_prefix(
      out.vps, n, stamps, [](const VpTable& t) { return t.peer.collector; });
  const auto peer_ases = distinct_per_prefix(
      out.vps, n, stamps, [](const VpTable& t) { return t.peer.asn; });
  const auto min_collectors = static_cast<std::size_t>(config.min_collectors);
  const auto min_peer_ases = static_cast<std::size_t>(config.min_peer_ases);
  auto& rep = out.report;
  std::vector<std::uint8_t> keep(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    if (collectors[p] == 0) continue;  // in no kept VP's table
    ++rep.prefixes_in;
    if (pool.get(static_cast<bgp::PrefixId>(p)).length() > max_len) {
      ++rep.prefixes_dropped_length;
      continue;
    }
    if (config.filter_prefixes && (collectors[p] < min_collectors ||
                                   peer_ases[p] < min_peer_ases)) {
      ++rep.prefixes_dropped_visibility;
      continue;
    }
    keep[p] = 1;
    out.prefixes.push_back(static_cast<bgp::PrefixId>(p));
  }
  rep.prefixes_kept = out.prefixes.size();
  for (auto& table : out.vps) {
    std::erase_if(table.routes,
                  [&](const auto& entry) { return !keep[entry.first]; });
  }
}

/// MOAS accounting over the filtered tables (counted, not removed;
/// §2.4.3): prefixes whose routes carry more than one origin.
std::size_t count_moas(const SanitizedSnapshot& out, std::size_t prefixes) {
  OBS_SPAN("sanitize.moas");
  std::vector<std::optional<net::Asn>> origin(out.paths.size());
  for (bgp::PathId id = 0; id < origin.size(); ++id) {
    origin[id] = out.paths.get(id).origin();
  }
  std::vector<std::optional<net::Asn>> first_origin(prefixes);
  std::vector<std::uint8_t> moas(prefixes, 0);
  std::size_t count = 0;
  for (const auto& table : out.vps) {
    for (const auto& [prefix, path] : table.routes) {
      const auto& o = origin[path];
      if (!o) continue;
      auto& first = first_origin[prefix];
      if (!first) {
        first = o;
      } else if (*first != *o && !moas[prefix]) {
        moas[prefix] = 1;
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

SanitizedSnapshot sanitize(const bgp::SnapshotView& src,
                           const bgp::Snapshot& snap,
                           const SanitizeConfig& config) {
  SanitizedSnapshot out;
  out.prefix_pool = &src.prefixes();
  out.timestamp = snap.timestamp;
  auto& rep = out.report;
  rep.peers_in = snap.peers.size();

  const int max_len =
      config.max_prefix_length > 0
          ? config.max_prefix_length
          : (src.family() == net::Family::kIPv4 ? 24 : 48);
  // Prefix ids are dense dictionary indices (the archive decoder range-
  // checks them), so per-prefix state lives in arrays, not hash maps.
  PrefixStamps stamps(src.prefixes().size());

  // --- pass 1: per-peer statistics & abnormal-peer removal ---------------
  // `kept` holds indices into snap.peers — the peer namespace update
  // records use (VpTable::source_index).
  const std::vector<PeerScan> scans = scan_peers(src.paths(), snap, stamps);
  std::vector<std::uint32_t> kept;
  for (std::uint32_t raw = 0; raw < snap.peers.size(); ++raw) {
    const auto& feed = snap.peers[raw];
    const PeerScan& s = scans[raw];
    if (config.remove_abnormal_peers && s.records > 0) {
      const double corrupt_share =
          static_cast<double>(s.corrupt) / static_cast<double>(s.records);
      const double dup_share =
          static_cast<double>(s.duplicates) / static_cast<double>(s.records);
      const double bogon_share =
          static_cast<double>(s.bogon_paths) / static_cast<double>(s.records);
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
    kept.push_back(raw);
  }

  // --- pass 2: full-feed inference ----------------------------------------
  std::size_t max_unique = 0;
  for (const std::uint32_t raw : kept) {
    max_unique = std::max(max_unique, scans[raw].unique_prefixes);
  }
  rep.max_unique_prefixes = max_unique;
  // §2.4 rule: full-feed means carrying >= full_feed_fraction of the
  // maximum unique-prefix count. The threshold is the smallest integer
  // count satisfying that (ceil, with an epsilon absorbing the fraction's
  // binary representation error) — a plain floor cast plus a strict
  // comparison would exclude a peer sitting exactly on the boundary.
  const auto full_feed_min = static_cast<std::size_t>(
      std::ceil(config.full_feed_fraction * static_cast<double>(max_unique) -
                1e-9));
  if (config.full_feed_only) {
    std::vector<std::uint32_t> full;
    for (const std::uint32_t raw : kept) {
      const std::size_t unique = scans[raw].unique_prefixes;
      if (unique >= full_feed_min) {
        full.push_back(raw);
      } else {
        rep.removed_peers.push_back(
            {snap.peers[raw].peer, PeerRemovalReason::kPartialFeed,
             max_unique == 0 ? 0.0
                             : static_cast<double>(unique) /
                                   static_cast<double>(max_unique)});
      }
    }
    kept = std::move(full);
  }
  rep.full_feed_peers = kept.size();

  // --- pass 3: record cleaning into per-VP tables -------------------------
  clean_tables(src.paths(), snap, kept, out);

  // --- pass 4: prefix filtering -------------------------------------------
  filter_prefixes(src.prefixes(), config, max_len, stamps, out);

  // --- MOAS accounting (not removed; §2.4.3) ------------------------------
  rep.moas_prefixes = count_moas(out, src.prefixes().size());

  return out;
}

SanitizedSnapshot sanitize(const bgp::Dataset& ds, std::size_t index,
                           const SanitizeConfig& config) {
  bgp::DatasetView view(ds);
  return sanitize(view, ds.snapshots.at(index), config);
}

}  // namespace bgpatoms::core
