#include "bgp/nlri.h"

#include <cassert>

namespace bgpatoms::bgp {

std::size_t nlri_bytes(const net::Prefix& prefix) {
  return 1 + static_cast<std::size_t>((prefix.length() + 7) / 8);
}

std::size_t attribute_bytes(net::PathView path,
                            std::span<const Community> communities) {
  // ORIGIN: flags+type+len+value = 4.
  std::size_t n = 4;
  // AS_PATH: flags+type+extlen(2) + per segment (type+count) + 4B per ASN.
  n += 4;
  for (const auto& seg : path.segments()) {
    n += 2 + 4 * seg.asns.size();
  }
  // NEXT_HOP: 4 + address (IPv4 form; MP_REACH differs but the same order).
  n += 7;
  if (!communities.empty()) {
    n += 4 + 4 * communities.size();
  }
  return n;
}

std::vector<UpdateRecord> pack_updates(const Dataset& ds, Timestamp timestamp,
                                       CollectorIndex collector,
                                       PeerIndex peer, PathId path,
                                       CommunitySetId communities,
                                       std::span<const PrefixId> announced,
                                       std::span<const PrefixId> withdrawn,
                                       const PackingLimits& limits) {
  std::vector<UpdateRecord> out;
  if (announced.empty() && withdrawn.empty()) return out;

  const std::size_t attr_cost =
      announced.empty()
          ? 0
          : attribute_bytes(ds.paths.get(path), ds.communities.get(communities));
  // withdrawn-routes-len(2) + total-attr-len(2) must leave room for NLRI.
  assert(limits.header_bytes + 4 + attr_cost < limits.max_message_bytes);

  UpdateRecord current;
  auto reset = [&] {
    current = UpdateRecord{};
    current.timestamp = timestamp;
    current.collector = collector;
    current.peer = peer;
  };
  reset();
  std::size_t used = limits.header_bytes + 4;

  auto flush = [&] {
    if (!current.announced.empty() || !current.withdrawn.empty()) {
      if (!current.announced.empty()) {
        current.path = path;
        current.communities = communities;
      }
      out.push_back(std::move(current));
    }
    reset();
    used = limits.header_bytes + 4;
  };

  for (PrefixId p : withdrawn) {
    const std::size_t cost = nlri_bytes(ds.prefixes.get(p));
    if (used + cost > limits.max_message_bytes) flush();
    current.withdrawn.push_back(p);
    used += cost;
  }

  bool attrs_charged = false;
  for (PrefixId p : announced) {
    const std::size_t cost = nlri_bytes(ds.prefixes.get(p));
    const std::size_t extra = attrs_charged ? 0 : attr_cost;
    if (used + extra + cost > limits.max_message_bytes) {
      flush();
      attrs_charged = false;
    }
    if (!attrs_charged) {
      used += attr_cost;
      attrs_charged = true;
    }
    current.announced.push_back(p);
    used += cost;
  }
  flush();
  return out;
}

}  // namespace bgpatoms::bgp
