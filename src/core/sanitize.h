// Snapshot sanitization (paper §2.4.2–§2.4.4, Appendix A8.2/A8.3/A8.5).
//
// Turns one raw collector snapshot into the clean per-vantage-point tables
// the atom computation consumes:
//
//   1. Abnormal-peer removal — detected from the data alone:
//        * ADD-PATH-broken peers (records with the parse-warning statuses),
//        * peers injecting private ASNs into many paths (the AS65000 case),
//        * peers sharing excessive duplicate prefixes (>10%).
//   2. Full-feed inference: a peer is full-feed if it carries data for at
//      least `full_feed_fraction` (default 90%) of the maximum unique-prefix
//      count any remaining peer carries.
//   3. Record cleaning: drop corrupt records, expand singleton AS_SETs,
//      drop paths with multi-member AS_SETs, deduplicate (first record in
//      feed order wins).
//   4. Prefix filtering: keep prefixes seen by >= `min_collectors` route
//      collectors and >= `min_peer_ases` distinct peer ASes, with length
//      <= /24 (IPv4) or /48 (IPv6). All thresholds are configurable so the
//      Table 7 sensitivity analysis can sweep them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/dataset.h"
#include "bgp/views.h"
#include "net/aspath.h"

namespace bgpatoms::core {

struct SanitizeConfig {
  double full_feed_fraction = 0.9;
  int min_collectors = 2;
  int min_peer_ases = 4;
  /// Max prefix length kept: 24 for IPv4, 48 for IPv6; <=0 means "pick by
  /// family". Set to 128 to disable (the 2002 reproduction, §3.1.3).
  int max_prefix_length = 0;
  /// Peers whose share of malformed records exceeds this are dropped.
  double addpath_artifact_threshold = 0.02;
  /// Peers with more duplicate prefixes than this share are dropped.
  double duplicate_threshold = 0.10;
  /// Peers with more paths containing private/reserved ASNs (beyond their
  /// own first hop) than this share are dropped.
  double private_asn_threshold = 0.20;
  bool remove_abnormal_peers = true;
  bool filter_prefixes = true;
  bool full_feed_only = true;
};

/// Why a peer was removed (Table 5 reporting).
enum class PeerRemovalReason : std::uint8_t {
  kAddPathArtifacts,
  kPrivateAsnInjection,
  kExcessiveDuplicates,
  kPartialFeed,
};

struct RemovedPeer {
  bgp::PeerIdentity peer;
  PeerRemovalReason reason = PeerRemovalReason::kPartialFeed;
  double artifact_share = 0.0;  // the statistic that triggered removal
};

struct SanitizeReport {
  std::size_t peers_in = 0;
  std::size_t full_feed_peers = 0;
  std::size_t max_unique_prefixes = 0;  // the full-feed threshold base
  std::vector<RemovedPeer> removed_peers;
  std::size_t prefixes_in = 0;            // distinct prefixes before filtering
  std::size_t prefixes_kept = 0;
  std::size_t prefixes_dropped_visibility = 0;
  std::size_t prefixes_dropped_length = 0;
  std::size_t records_dropped_corrupt = 0;
  std::size_t records_dropped_asset = 0;  // multi-member AS_SET paths
  std::size_t asset_paths_expanded = 0;   // singleton AS_SET expansions
  std::size_t moas_prefixes = 0;          // prefixes with >1 observed origin
};

/// One retained vantage point's cleaned table.
struct VpTable {
  bgp::PeerIdentity peer;
  /// Index of this peer's feed in the raw snapshot's `peers` array —
  /// the namespace bgp::UpdateRecord::peer uses. Sanitization removes
  /// and reorders peers, so live-update consumers (core::IncrementalAtoms)
  /// need this to map a record's peer back to a retained VP column.
  std::uint32_t source_index = 0;
  /// (prefix, path) sorted by prefix id; paths reference the snapshot's own
  /// pool (AS_SET expansion may create paths absent from the dataset pool).
  std::vector<std::pair<bgp::PrefixId, bgp::PathId>> routes;

  /// Binary-search lookup; returns the empty path id (0) when absent.
  bgp::PathId path_for(bgp::PrefixId prefix) const;
};

struct SanitizedSnapshot {
  /// Prefix dictionary of the source view (prefix-id lookups). Points into
  /// the view/dataset the snapshot was sanitized from, which must outlive
  /// the result; everything else here is self-contained.
  const bgp::PrefixPool* prefix_pool = nullptr;
  bgp::Timestamp timestamp = 0;
  net::PathPool paths;  // self-contained path pool
  std::vector<VpTable> vps;
  /// Retained prefixes, sorted ascending by id.
  std::vector<bgp::PrefixId> prefixes;
  SanitizeReport report;

  const net::Prefix& prefix(bgp::PrefixId id) const {
    return prefix_pool->get(id);
  }
};

/// Where one raw path lands under the §2.4.4 AS_SET policy.
struct CleanPath {
  /// Id in the destination pool; kEmptyPathId when the path is dropped.
  bgp::PathId id = net::PathPool::kEmptyPathId;
  enum class Fate : std::uint8_t { kAsIs, kExpanded, kDropped };
  Fate fate = Fate::kAsIs;
};

/// The §2.4.4 AS_SET policy, shared by sanitize and IncrementalAtoms so
/// snapshot and update paths are always cleaned alike: a path with a
/// multi-member AS_SET is dropped; singleton sets are expanded into
/// sequence hops; what remains is interned into `pool`.
CleanPath clean_path(net::PathView raw, net::PathPool& pool);

/// Sanitizes one captured snapshot against the dictionaries of `src` (the
/// raw snapshot may be discarded afterwards; the view's pools must outlive
/// the result). This is the one code path both backends run through.
///
/// Within one peer's table the first surviving record for a prefix wins,
/// in feed order, so a VP's cleaned table never depends on which other
/// peers are kept.
SanitizedSnapshot sanitize(const bgp::SnapshotView& src,
                           const bgp::Snapshot& snap,
                           const SanitizeConfig& config = {});

/// Convenience over an in-memory dataset: sanitizes snapshot `index` of
/// `ds` through a DatasetView. The dataset must outlive the result.
SanitizedSnapshot sanitize(const bgp::Dataset& ds, std::size_t index,
                           const SanitizeConfig& config = {});

const char* to_string(PeerRemovalReason reason);

}  // namespace bgpatoms::core
