// NLRI packing: turning a batch of routed prefixes that share one attribute
// set into BGP UPDATE messages under the protocol's message-size limit.
//
// This is where the paper's Figure 3/10/15 shape comes from: a BGP speaker
// announces all prefixes of a policy group together, but the 4096-byte
// UPDATE ceiling (RFC 4271 §4) forces large groups to straddle several
// messages, so the probability of seeing a k-prefix atom "in full within a
// single update" decays with k even for perfectly atom-aligned churn.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bgp/dataset.h"
#include "bgp/records.h"

namespace bgpatoms::bgp {

struct PackingLimits {
  /// Maximum total message size (RFC 4271 caps messages at 4096 octets).
  std::size_t max_message_bytes = 4096;
  /// Fixed header: 16 marker + 2 length + 1 type.
  std::size_t header_bytes = 19;
};

/// Wire-size estimate of one encoded NLRI entry for `prefix`.
std::size_t nlri_bytes(const net::Prefix& prefix);

/// Wire-size estimate of the path attributes (ORIGIN + AS_PATH with 4-byte
/// ASNs + NEXT_HOP + COMMUNITIES).
std::size_t attribute_bytes(net::PathView path,
                            std::span<const Community> communities);

/// Splits `announced` (all sharing `path` + `communities`) into as few
/// UpdateRecords as fit the size budget, preserving order. `withdrawn`
/// prefixes are carried in leading messages (withdrawals precede
/// announcements on the wire). Always returns at least one record when
/// either list is non-empty.
std::vector<UpdateRecord> pack_updates(const Dataset& ds, Timestamp timestamp,
                                       CollectorIndex collector,
                                       PeerIndex peer, PathId path,
                                       CommunitySetId communities,
                                       std::span<const PrefixId> announced,
                                       std::span<const PrefixId> withdrawn,
                                       const PackingLimits& limits = {});

}  // namespace bgpatoms::bgp
