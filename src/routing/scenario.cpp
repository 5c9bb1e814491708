#include "routing/scenario.h"

#include <algorithm>

namespace bgpatoms::routing {

using topo::NodeId;

std::optional<net::Prefix> make_subprefix(const net::Prefix& p, int extra,
                                          bool upper) {
  const int max_len = p.is_v4() ? 32 : 128;
  const int len = p.length() + extra;
  if (extra < 1 || len > max_len) return std::nullopt;
  if (!upper) {
    return net::Prefix(p.address(), len);  // lower half: same masked bits
  }
  // Upper half: set the first bit beyond the covering length.
  const int bit = p.length();  // 0-based from the top
  if (p.is_v4()) {
    const std::uint32_t addr =
        p.address().v4_value() | (std::uint32_t{1} << (31 - bit));
    return net::Prefix::v4(addr, len);
  }
  std::uint64_t hi = p.address().hi();
  std::uint64_t lo = p.address().lo();
  if (bit < 64) {
    hi |= std::uint64_t{1} << (63 - bit);
  } else {
    lo |= std::uint64_t{1} << (127 - bit);
  }
  return net::Prefix::v6(hi, lo, len);
}

std::vector<ScenarioIncident> schedule_incidents(const topo::Topology& topo,
                                                 const PolicySet& policies,
                                                 const ScenarioOptions& opt,
                                                 Rng& rng) {
  std::vector<ScenarioIncident> out;
  if (!opt.any_incidents() || policies.units.empty()) return out;

  std::vector<NodeId> edge_ases;
  std::vector<NodeId> transit_ases;
  for (NodeId v = 0; v < topo.graph.size(); ++v) {
    switch (topo.graph.node(v).tier) {
      case topo::Tier::kEdge:
      case topo::Tier::kContent:
        edge_ases.push_back(v);
        break;
      case topo::Tier::kTransit:
        transit_ases.push_back(v);
        break;
      case topo::Tier::kTier1:
        break;
    }
  }
  if (edge_ases.empty()) return out;  // degenerate toy graph
  if (transit_ases.empty()) transit_ases = edge_ases;

  const bool v4 = topo.params.family == net::Family::kIPv4;
  // Sub-prefix victims need room below the long-prefix visibility filter
  // (> /24 v4, > /48 v6 gets sanitized away) for the more-specific.
  const int room_limit = v4 ? 23 : 47;

  auto pick_victim = [&](bool need_room) -> UnitId {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto u =
          static_cast<UnitId>(rng.next_below(policies.units.size()));
      const OriginUnit& unit = policies.units[u];
      if (unit.prefixes.empty() || unit.policy.no_export) continue;
      if (need_room &&
          policies.all_prefixes[unit.prefixes[0]].length() > room_limit) {
        continue;
      }
      return u;
    }
    return UINT32_MAX;
  };
  auto pick_other = [&](std::vector<NodeId>& pool, NodeId avoid) {
    NodeId n = pool[rng.next_below(pool.size())];
    for (int attempt = 0; attempt < 8 && n == avoid; ++attempt) {
      n = pool[rng.next_below(pool.size())];
    }
    return n;
  };
  auto start_time = [&] {
    return kIncidentFirstStart +
           static_cast<bgp::Timestamp>(rng.next_below(
               static_cast<std::uint64_t>(kIncidentStartSpread)));
  };
  auto lifetime = [&] {
    const double d = static_cast<double>(kIncidentMeanDuration) *
                     (0.5 + rng.next_double());
    return std::max<bgp::Timestamp>(1800, static_cast<bgp::Timestamp>(d));
  };

  for (int i = 0; i < opt.origin_hijacks; ++i) {
    ScenarioIncident inc;
    inc.kind = ScenarioKind::kOriginHijack;
    inc.victim_unit = pick_victim(/*need_room=*/false);
    if (inc.victim_unit == UINT32_MAX) continue;
    inc.actor =
        pick_other(edge_ases, policies.units[inc.victim_unit].origin);
    inc.start = start_time();
    inc.end = inc.start + lifetime();
    out.push_back(std::move(inc));
  }
  for (int i = 0; i < opt.subprefix_hijacks; ++i) {
    ScenarioIncident inc;
    inc.kind = ScenarioKind::kSubPrefixHijack;
    inc.victim_unit = pick_victim(/*need_room=*/true);
    if (inc.victim_unit == UINT32_MAX) continue;
    inc.actor =
        pick_other(edge_ases, policies.units[inc.victim_unit].origin);
    inc.start = start_time();
    inc.end = inc.start + lifetime();
    out.push_back(std::move(inc));
  }
  for (int i = 0; i < opt.route_leaks; ++i) {
    ScenarioIncident inc;
    inc.kind = ScenarioKind::kRouteLeak;
    inc.actor = transit_ases[rng.next_below(transit_ases.size())];
    inc.start = start_time();
    inc.end = inc.start + lifetime();
    out.push_back(std::move(inc));
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const ScenarioIncident& a, const ScenarioIncident& b) {
                     return a.start < b.start;
                   });
  return out;
}

}  // namespace bgpatoms::routing
