#include "routing/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>

#include "bgp/nlri.h"
#include "net/hash.h"
#include "obs/obs.h"

namespace bgpatoms::routing {

using topo::kNoNode;
using topo::NodeId;
using topo::Rel;

namespace {

/// Knuth Poisson sampler; fine for the small rates used here.
int poisson(Rng& rng, double lambda) {
  if (lambda <= 0) return 0;
  if (lambda > 30) {  // normal approximation for large rates
    const double v =
        lambda + std::sqrt(lambda) * (2.0 * rng.next_double() - 1.0) * 1.73;
    return std::max(0, static_cast<int>(v + 0.5));
  }
  const double limit = std::exp(-lambda);
  int k = 0;
  double product = rng.next_double();
  while (product > limit) {
    ++k;
    product *= rng.next_double();
  }
  return k;
}

}  // namespace

Simulator::Simulator(topo::Topology topo, SimOptions opt)
    : topo_(std::move(topo)),
      opt_(opt),
      policies_(assign_policies(topo_, opt.seed)),
      propagator_(topo_.graph),
      rng_(opt.seed ^ 0x51f0c0de12345678ULL),
      scenario_rng_(opt.seed ^ 0x5ce2a1053c0ffee5ULL) {
  assert(!(opt_.weekly_churn && opt_.daily_event_rate > 0) &&
         "use either the weekly churn schedule or daily events, not both");
  ds_.family = topo_.params.family;
  ds_.collectors = topo_.collector_names;
  // Intern the global prefix table in order so GlobalPrefixId == PrefixId.
  for (const auto& pfx : policies_.all_prefixes) {
    ds_.prefixes.intern(pfx);
  }
  unit_paths_.resize(policies_.units.size());
  unit_dirty_.assign(policies_.units.size(), kStale);
  prefix_unit_.assign(policies_.all_prefixes.size(), UINT32_MAX);
  for (const auto& unit : policies_.units) {
    for (GlobalPrefixId p : unit.prefixes) prefix_unit_[p] = unit.id;
  }
  // Stub/content vantage points: nobody transits through them, so their
  // local policy changes are visible only to themselves — the population
  // behind the paper's single-observer splits (§4.4.1).
  for (std::uint16_t i = 0; i < topo_.vantage_points.size(); ++i) {
    vp_nodes_.push_back(topo_.vantage_points[i].node);
    const auto tier = topo_.graph.node(topo_.vantage_points[i].node).tier;
    if (tier == topo::Tier::kEdge || tier == topo::Tier::kContent) {
      edge_vps_.push_back(i);
    }
  }
  if (!edge_vps_.empty()) {
    flappy_vp_ = edge_vps_[rng_.next_below(edge_vps_.size())];
    flappy_vp2_ = edge_vps_[rng_.next_below(edge_vps_.size())];
  } else if (!topo_.vantage_points.empty()) {
    flappy_vp_ = static_cast<std::uint16_t>(
        rng_.next_below(topo_.vantage_points.size()));
    flappy_vp2_ = flappy_vp_;
  }
  if (opt_.weekly_churn) schedule_weekly_churn();

  // Scenario setup runs last (overlay units must not shift the churn
  // schedule's per-unit draws) and touches only scenario_rng_, so with
  // scenarios off the simulator is byte-identical to the pre-scenario one.
  unit_suppressed_.assign(policies_.units.size(), 0);
  unit_roa_covered_.assign(policies_.units.size(), 0);
  unit_rov_invalid_.assign(policies_.units.size(), 0);
  if (opt_.scenario.enabled()) init_scenarios();
}

// ---------------------------------------------------------------------------
// Event scheduling
// ---------------------------------------------------------------------------

void Simulator::schedule_weekly_churn() {
  const auto& p = topo_.params;
  std::vector<Event> events;
  // Observable-churn fudge: a scheduled policy mutation does not always
  // change any vantage point's path, so we oversample relative to the
  // target CAM drop. Calibrated against Table 3.
  const double boost = 0.58;
  for (const auto& unit : policies_.units) {
    const double u = rng_.next_double();
    bgp::Timestamp t;
    if (u < p.churn_8h * boost) {
      t = 1 + static_cast<bgp::Timestamp>(rng_.next_double() * 8 * kHour);
    } else if (u < p.churn_24h * boost) {
      t = 8 * kHour +
          static_cast<bgp::Timestamp>(rng_.next_double() * 16 * kHour);
    } else if (u < p.churn_1w * boost) {
      t = kDay + static_cast<bgp::Timestamp>(rng_.next_double() * 6 * kDay);
    } else {
      continue;
    }
    Event e;
    e.time = t;
    e.unit = unit.id;
    if (rng_.chance(0.22)) {
      e.kind = EventKind::kMerge;
    } else if (unit.prefixes.size() >= 2) {
      e.kind = rng_.chance(p.vp_local_split_frac) ? EventKind::kSplitVpLocal
                                                  : EventKind::kSplitGlobal;
    } else {
      e.kind = EventKind::kMerge;
    }
    events.push_back(e);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });
  schedule_.assign(events.begin(), events.end());
  scheduled_until_ = kWeek;
}

void Simulator::extend_daily_schedule(bgp::Timestamp until) {
  const auto& p = topo_.params;
  while (scheduled_until_ < until) {
    const bgp::Timestamp day_start = scheduled_until_;
    const int n = poisson(rng_, opt_.daily_event_rate);
    std::vector<Event> events;
    events.reserve(n);
    for (int i = 0; i < n; ++i) {
      Event e;
      e.time = day_start + 1 +
               static_cast<bgp::Timestamp>(rng_.next_double() * (kDay - 2));
      // Merges (reversals of earlier splits) keep the unit-size
      // distribution quasi-stationary over long horizons.
      if (rng_.chance(0.45) && !split_history_.empty()) {
        e.kind = EventKind::kMerge;
        e.unit = split_history_[rng_.next_below(split_history_.size())].first;
      } else {
        // Splits need >= 2 prefixes; resample a few times to avoid no-ops.
        e.unit = static_cast<UnitId>(rng_.next_below(policies_.units.size()));
        for (int attempt = 0;
             attempt < 5 && policies_.units[e.unit].prefixes.size() < 2;
             ++attempt) {
          e.unit =
              static_cast<UnitId>(rng_.next_below(policies_.units.size()));
        }
        e.kind = rng_.chance(p.vp_local_split_frac) ? EventKind::kSplitVpLocal
                                                    : EventKind::kSplitGlobal;
      }
      events.push_back(e);
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) { return a.time < b.time; });
    for (const auto& e : events) schedule_.push_back(e);
    scheduled_until_ += kDay;
  }
}

void Simulator::advance_to(bgp::Timestamp t) {
  assert(t >= now_);
  if (opt_.daily_event_rate > 0) extend_daily_schedule(t);
  // Drain both queues in time order (churn first on ties, preserving the
  // pre-scenario order); the scenario queue is empty with scenarios off.
  for (;;) {
    const bool churn = !schedule_.empty() && schedule_.front().time <= t;
    const bool scen =
        !scenario_schedule_.empty() && scenario_schedule_.front().time <= t;
    if (!churn && !scen) break;
    if (churn &&
        (!scen || schedule_.front().time <= scenario_schedule_.front().time)) {
      const Event e = schedule_.front();
      schedule_.pop_front();
      apply_event(e);
      ++events_applied_;
    } else {
      const ScenarioTransition tr = scenario_schedule_.front();
      scenario_schedule_.pop_front();
      apply_transition(tr, /*invert=*/false);
    }
  }
  now_ = std::max(now_, t);
}

void Simulator::apply_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kSplitGlobal:
      split_unit(e.unit, /*vp_local=*/false);
      break;
    case EventKind::kSplitVpLocal:
      split_unit(e.unit, /*vp_local=*/true);
      break;
    case EventKind::kMerge:
      merge_unit(e.unit);
      break;
  }
}

void Simulator::mutate_policy_globally(UnitPolicy& pol, NodeId origin) {
  const auto& nbs = topo_.graph.node(origin).neighbors;
  std::vector<std::uint16_t> providers;
  for (std::uint16_t i = 0; i < nbs.size(); ++i) {
    if (nbs[i].rel == Rel::kProvider) providers.push_back(i);
  }
  const double roll = rng_.next_double();
  if (roll < 0.6 && !providers.empty()) {
    // Prepend (more) toward one provider — visible only inside that
    // provider's customer cone, so many of these splits stay local-ish.
    pol.prepend_to = {providers[rng_.next_below(providers.size())]};
    pol.prepend_count =
        static_cast<std::uint8_t>(std::min(4, pol.prepend_count + 1));
  } else if (roll < 0.85 && providers.size() >= 2) {
    // Stop announcing via one provider.
    std::vector<std::uint16_t> keep = providers;
    keep.erase(keep.begin() + rng_.next_below(keep.size()));
    pol.announce_to.clear();
    for (std::uint16_t i = 0; i < nbs.size(); ++i) {
      if (nbs[i].rel != Rel::kProvider) pol.announce_to.push_back(i);
    }
    pol.announce_to.insert(pol.announce_to.end(), keep.begin(), keep.end());
  } else if (!providers.empty()) {
    // Ask the provider to scope the announcement regionally.
    TransitRule rule;
    rule.kind = TransitRule::Kind::kBlockRegionExport;
    rule.at = nbs[providers[rng_.next_below(providers.size())]].node;
    rule.region =
        static_cast<std::uint16_t>(rng_.next_below(topo_.params.n_regions));
    pol.transit_rules.push_back(rule);
  } else {
    pol.prepend_count =
        static_cast<std::uint8_t>(std::min(4, pol.prepend_count + 1));
  }
}

void Simulator::split_unit(UnitId u, bool vp_local) {
  if (policies_.units[u].prefixes.size() < 2) return;

  OriginUnit nu;
  nu.id = static_cast<UnitId>(policies_.units.size());
  nu.origin = policies_.units[u].origin;
  nu.policy = policies_.units[u].policy;

  {
    auto& prefixes = policies_.units[u].prefixes;
    const std::size_t k =
        rng_.chance(0.7)
            ? 1
            : 1 + rng_.next_below(std::max<std::size_t>(1, prefixes.size() / 2));
    nu.prefixes.assign(prefixes.end() - k, prefixes.end());
    prefixes.resize(prefixes.size() - k);
  }
  for (GlobalPrefixId p : nu.prefixes) prefix_unit_[p] = nu.id;

  bool mutated = false;
  if (vp_local) {
    // The split is caused by a vantage point's own routing change: block the
    // VP's current next hop for the moved prefixes, forcing an alternate
    // route that (usually) only this VP observes.
    const auto& paths = unit_paths_[u];
    if (!paths.empty()) {
      // Prefer the designated flappy peers, then any stub/content VP
      // (their changes stay local), then anything that sees the unit.
      auto find_vp = [&](std::uint16_t vp) -> std::size_t {
        for (std::size_t i = 0; i < paths.size(); ++i) {
          if (paths[i].vp == vp) return i;
        }
        return SIZE_MAX;
      };
      std::size_t pick = SIZE_MAX;
      if (rng_.chance(0.45)) pick = find_vp(flappy_vp_);
      if (pick == SIZE_MAX && rng_.chance(0.3)) pick = find_vp(flappy_vp2_);
      if (pick == SIZE_MAX && !edge_vps_.empty()) {
        for (int attempt = 0; attempt < 6 && pick == SIZE_MAX; ++attempt) {
          pick = find_vp(edge_vps_[rng_.next_below(edge_vps_.size())]);
        }
      }
      if (pick == SIZE_MAX) pick = rng_.next_below(paths.size());
      const auto& entry = paths[pick];
      const auto hops = ds_.paths.get(entry.path).flat();
      if (hops.size() >= 2) {
        const NodeId vp_node = topo_.vantage_points[entry.vp].node;
        const NodeId parent = topo_.graph.find(hops[1]);
        if (parent != kNoNode) {
          // Routes flow parent -> vp, so the VP's local session change is
          // modelled as the parent no longer exporting the moved subset to
          // the VP: only the VP (and whoever transits its AS — almost
          // nobody for a stub) sees different paths.
          TransitRule rule;
          rule.kind = TransitRule::Kind::kBlockNeighbor;
          rule.at = parent;
          rule.neighbor = vp_node;
          nu.policy.transit_rules.push_back(rule);
          mutated = true;
        }
      }
    }
  }
  if (!mutated) {
    mutate_policy_globally(nu.policy, nu.origin);
  }

  // Only the new unit needs routes: the parent keeps its origin, policy
  // and scenario state, so its VP paths cannot change.
  if (unit_dirty_[u] == kClean) unit_dirty_[u] = kKeepRoutes;
  unit_paths_.emplace_back();
  unit_dirty_.push_back(kStale);
  unit_suppressed_.push_back(0);
  // The split-off unit keeps the parent's prefixes, so it inherits the
  // parent's ROA coverage and validity.
  unit_roa_covered_.push_back(unit_roa_covered_[u]);
  unit_rov_invalid_.push_back(unit_rov_invalid_[u]);
  policies_.units_by_origin[nu.origin].push_back(nu.id);
  split_history_.emplace_back(u, nu.id);
  policies_.units.push_back(std::move(nu));
}

void Simulator::merge_unit(UnitId u) {
  const NodeId origin = policies_.units[u].origin;
  const auto& siblings = policies_.units_by_origin[origin];
  UnitId partner = UINT32_MAX;
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    const UnitId cand = siblings[rng_.next_below(siblings.size())];
    if (cand != u && !policies_.units[cand].prefixes.empty()) {
      partner = cand;
      break;
    }
  }
  if (partner == UINT32_MAX || policies_.units[u].prefixes.empty()) return;
  auto& mine = policies_.units[u].prefixes;
  auto& theirs = policies_.units[partner].prefixes;
  for (GlobalPrefixId p : theirs) prefix_unit_[p] = u;
  mine.insert(mine.end(), theirs.begin(), theirs.end());
  theirs.clear();
  // The survivor's routes stand (its origin, policy and scenario state are
  // unchanged); the emptied partner's are dropped at the next refresh.
  if (unit_dirty_[u] == kClean) unit_dirty_[u] = kKeepRoutes;
  unit_dirty_[partner] = kStale;
}

// ---------------------------------------------------------------------------
// Route computation and capture
// ---------------------------------------------------------------------------

void Simulator::refresh_unit_paths() {
  OBS_SPAN("routing.refresh");
  // Group dirty units by origin, then by policy, so units sharing a policy
  // share one propagation run.
  std::vector<UnitId> dirty;
  for (UnitId u = 0; u < unit_dirty_.size(); ++u) {
    if (unit_dirty_[u] != kClean && !policies_.units[u].prefixes.empty() &&
        !unit_suppressed_[u]) {
      dirty.push_back(u);
    } else if (unit_dirty_[u] != kClean) {
      unit_paths_[u].clear();  // emptied by a merge, or suppressed overlay
      unit_dirty_[u] = kClean;
    }
  }
  std::sort(dirty.begin(), dirty.end(), [&](UnitId a, UnitId b) {
    return policies_.units[a].origin < policies_.units[b].origin;
  });
  std::size_t propagations = 0;
  std::size_t provider_settled = 0;
  std::size_t i = 0;
  while (i < dirty.size()) {
    const NodeId origin = policies_.units[dirty[i]].origin;
    std::size_t j = i;
    while (j < dirty.size() && policies_.units[dirty[j]].origin == origin) ++j;
    // Partition [i, j) by policy equality (small groups; quadratic is fine).
    std::vector<char> done(j - i, 0);
    for (std::size_t a = i; a < j; ++a) {
      if (done[a - i]) continue;
      std::vector<UnitId> group{dirty[a]};
      const std::uint64_t scen_key = scenario_unit_key(dirty[a]);
      for (std::size_t b = a + 1; b < j; ++b) {
        if (!done[b - i] &&
            policies_.units[dirty[b]].policy ==
                policies_.units[dirty[a]].policy &&
            scenario_unit_key(dirty[b]) == scen_key) {
          group.push_back(dirty[b]);
          done[b - i] = 1;
        }
      }
      // A group of units whose routes all still hold needs no run.
      if (std::none_of(group.begin(), group.end(), [&](UnitId g) {
            return unit_dirty_[g] == kStale;
          })) {
        for (UnitId g : group) unit_dirty_[g] = kClean;
        continue;
      }
      compute_unit_group(origin, group);
      ++propagations;
      provider_settled += scratch_table_.provider_settled();
    }
    i = j;
  }
  propagations_ += propagations;
  OBS_COUNT_N("routing.propagations", propagations);
  OBS_COUNT_N("routing.provider_settled", provider_settled);
}

void Simulator::compute_unit_group(NodeId origin,
                                   const std::vector<UnitId>& group) {
  static const UnitPolicy kDefaultPolicy{};
  const UnitId rep = group[0];
  const UnitPolicy& pol = policies_.units[rep].policy;
  const UnitPolicy* pp = pol == kDefaultPolicy ? nullptr : &pol;
  // Scenario state enters as the origin's ROV validity, a hijacker's
  // second source and a leaker; under scenario key 0 all three are off.
  RouteSource sources[2] = {
      {origin, pp, rov_active_ && unit_rov_invalid_[rep] != 0}};
  std::size_t n_sources = 1;
  if (const auto hij = hijack_origin_.find(rep); hij != hijack_origin_.end()) {
    // The hijacker originates the same destination with a default
    // policy; invalid wherever the victim's prefixes hold ROAs.
    sources[n_sources++] = {hij->second, nullptr,
                            rov_active_ && unit_roa_covered_[rep] != 0};
  }
  const auto lk = unit_leaker_.find(rep);
  const NodeId leaker = lk == unit_leaker_.end() ? kNoNode : lk->second;
  const GaoRexfordEngine engine(topo_.graph, rov_active_ ? &rov_ : nullptr,
                                leaker);
  propagator_.compute(std::span<const RouteSource>(sources, n_sources),
                      engine, vp_nodes_, scratch_table_);

  std::vector<VpPath> paths;
  const auto& vps = topo_.vantage_points;
  paths.reserve(vps.size());
  for (std::uint16_t i = 0; i < vps.size(); ++i) {
    const NodeId vn = vps[i].node;
    if (!scratch_table_.reachable(vn)) continue;
    path_buf_.assign(1, topo_.graph.node(vn).asn);  // the peer's ASN leads
    propagator_.append_path(scratch_table_, vn, path_buf_);
    paths.push_back({i, intern_vp_path(pol.as_set_mode)});
  }
  for (UnitId u : group) {
    unit_paths_[u] = paths;
    unit_dirty_[u] = kClean;
  }
}

bgp::PathId Simulator::intern_vp_path(std::uint8_t as_set_mode) {
  auto& hops = path_buf_;
  if (as_set_mode == 0 || hops.size() < 3) return ds_.paths.intern(hops);
  // Route aggregation folded the path tail into an AS_SET (paper §2.4.4).
  const auto head = static_cast<std::uint32_t>(
      hops.size() - (as_set_mode == 1 ? 1 : 2));
  std::sort(hops.begin() + head, hops.end());
  hops.erase(std::unique(hops.begin() + head, hops.end()), hops.end());
  const net::SegmentEnd layout[] = {
      {net::SegmentType::kSequence, head},
      {net::SegmentType::kSet, static_cast<std::uint32_t>(hops.size())}};
  return ds_.paths.intern(hops, layout);
}

std::uint32_t Simulator::path_selection_length(bgp::PathId id) {
  while (path_len_cache_.size() < ds_.paths.size()) {
    path_len_cache_.push_back(static_cast<std::uint32_t>(
        ds_.paths.get(static_cast<bgp::PathId>(path_len_cache_.size()))
            .selection_length()));
  }
  return path_len_cache_[id];
}

std::size_t Simulator::capture() {
  OBS_SPAN("routing.capture");
  refresh_unit_paths();

  bgp::Snapshot snap;
  snap.timestamp = now_;
  const auto& vps = topo_.vantage_points;
  const std::size_t n_vps = vps.size();

  // One row per unit some VP reaches: its path at each VP (kNoPath where
  // none), its communities, and an upper bound on each VP's record count.
  // Communities are interned for every live unit in unit order, so their
  // ids do not depend on reachability.
  constexpr bgp::PathId kNoPath = UINT32_MAX;
  std::vector<bgp::PathId> row_paths;
  std::vector<bgp::CommunitySetId> row_comms;
  std::vector<UnitId> row_unit;
  std::vector<std::size_t> vp_records(n_vps, 0);
  const std::size_t n_prefixes = ds_.prefixes.size();
  std::vector<std::uint32_t> cover_first(n_prefixes + 2, 0);
  for (const auto& unit : policies_.units) {
    if (unit.prefixes.empty() || unit_suppressed_[unit.id]) continue;
    const bgp::CommunitySetId comms =
        ds_.communities.intern(unit.policy.communities);
    if (unit_paths_[unit.id].empty()) continue;
    row_paths.resize(row_paths.size() + n_vps, kNoPath);
    bgp::PathId* row = row_paths.data() + row_paths.size() - n_vps;
    for (const auto& entry : unit_paths_[unit.id]) {
      row[entry.vp] = entry.path;
      vp_records[entry.vp] += unit.prefixes.size();
    }
    row_comms.push_back(comms);
    row_unit.push_back(unit.id);
    for (GlobalPrefixId p : unit.prefixes) ++cover_first[p + 2];
  }
  // Prefix -> covering rows, in ascending unit id (a counting sort): the
  // rows of prefix p are [cover_first[p], cover_first[p + 1]).
  std::partial_sum(cover_first.begin(), cover_first.end(),
                   cover_first.begin());
  std::vector<std::uint32_t> cover(cover_first.back());
  for (std::uint32_t r = 0; r < row_unit.size(); ++r) {
    for (GlobalPrefixId p : policies_.units[row_unit[r]].prefixes) {
      cover[cover_first[p + 1]++] = r;
    }
  }

  // Each VP's records in ascending prefix id. A MOAS prefix (its second
  // origin is a unit of its own) keeps the route that wins best-path
  // selection, as a real router would: shorter path, then lower path id,
  // then the lowest unit id.
  std::vector<std::vector<bgp::RibRecord>> recs(n_vps);
  for (std::size_t i = 0; i < n_vps; ++i) recs[i].reserve(vp_records[i]);
  for (GlobalPrefixId p = 0; p < n_prefixes; ++p) {
    const std::uint32_t begin = cover_first[p];
    const std::uint32_t end = cover_first[p + 1];
    if (begin == end) continue;
    if (end - begin == 1) {
      const bgp::PathId* row = row_paths.data() + cover[begin] * n_vps;
      const bgp::CommunitySetId comms = row_comms[cover[begin]];
      for (std::size_t i = 0; i < n_vps; ++i) {
        if (row[i] == kNoPath) continue;
        recs[i].push_back({p, row[i], comms, bgp::RecordStatus::kValid});
      }
      continue;
    }
    for (std::size_t i = 0; i < n_vps; ++i) {
      std::uint32_t best = UINT32_MAX;
      std::pair<std::uint32_t, bgp::PathId> best_rank;
      for (std::uint32_t c = begin; c < end; ++c) {
        const bgp::PathId path = row_paths[cover[c] * n_vps + i];
        if (path == kNoPath) continue;
        const std::pair rank(path_selection_length(path), path);
        if (best == UINT32_MAX || rank < best_rank) {
          best = cover[c];
          best_rank = rank;
        }
      }
      if (best == UINT32_MAX) continue;
      recs[i].push_back(
          {p, best_rank.second, row_comms[best], bgp::RecordStatus::kValid});
    }
  }

  for (std::uint16_t i = 0; i < n_vps; ++i) {
    auto& rib = recs[i];
    inject_faults(i, rib);

    bgp::PeerFeed feed;
    feed.peer.asn = topo_.graph.node(vps[i].node).asn;
    feed.peer.address = peer_address(i);
    feed.peer.collector = vps[i].collector;
    feed.records = std::move(rib);
    snap.peers.push_back(std::move(feed));
  }

  ds_.snapshots.push_back(std::move(snap));
  return ds_.snapshots.size() - 1;
}

net::IpAddress Simulator::peer_address(std::uint16_t vp_index) const {
  if (ds_.family == net::Family::kIPv4) {
    return net::IpAddress::v4(0xC6120000u + vp_index);  // 198.18.0.0/15 bench
  }
  return net::IpAddress::v6(0x20010db8feed0000ULL, vp_index);
}

void Simulator::inject_faults(std::uint16_t vp_index,
                              std::vector<bgp::RibRecord>& rib) {
  const auto& vp = topo_.vantage_points[vp_index];
  const std::uint64_t salt =
      mix64(0x9a0b'c1d2'e3f4'0516ULL ^ (vp_index + 1));

  // Partial feed: a stable subset of the table is shared.
  if (vp.share_fraction < 1.0) {
    const auto threshold = static_cast<std::uint64_t>(
        vp.share_fraction * static_cast<double>(UINT64_MAX));
    std::erase_if(rib, [&](const bgp::RibRecord& r) {
      return mix64(r.prefix ^ salt) > threshold;
    });
  }

  std::vector<bgp::RibRecord> extra;
  for (auto& rec : rib) {
    const std::uint64_t h = mix64((std::uint64_t{rec.prefix} << 20) ^ salt);
    if (vp.private_asn_injector && (h % 100) < 55) {
      rec.path = inject_private_asn(rec.path);
    }
    if (vp.addpath_broken && (h % 100) < 9) {
      // The session emits an extra, malformed copy the collector cannot
      // parse — the signature Appendix A8.3.1 greps for.
      bgp::RibRecord garbage = rec;
      garbage.status = static_cast<bgp::RecordStatus>(1 + h % 3);
      extra.push_back(garbage);
    }
    if (vp.duplicate_emitter && (h % 100) < 13) {
      extra.push_back(rec);  // exact duplicate announcement
    }
  }
  rib.insert(rib.end(), extra.begin(), extra.end());
}

bgp::PathId Simulator::inject_private_asn(bgp::PathId id) {
  const auto it = private_asn_cache_.find(id);
  if (it != private_asn_cache_.end()) return it->second;
  const auto hops = ds_.paths.get(id).hops();
  std::vector<net::Asn> mangled;
  mangled.reserve(hops.size() + 1);
  if (!hops.empty()) {
    mangled.push_back(hops.front());
    mangled.push_back(65000);  // the paper's AS65000 signature
    mangled.insert(mangled.end(), hops.begin() + 1, hops.end());
  }
  const bgp::PathId out = ds_.paths.intern(mangled);
  private_asn_cache_.emplace(id, out);
  return out;
}

// ---------------------------------------------------------------------------
// Update stream
// ---------------------------------------------------------------------------

std::vector<OriginUnit> Simulator::policy_clusters() const {
  // Merge same-origin units whose *observed paths* coincide at every
  // vantage point into one synthetic unit (prefixes concatenated). Such
  // prefixes share identical BGP attributes on every session, so an event
  // re-announces them in the same UPDATE train — this is precisely the
  // mechanism behind the paper's atom/update correlation.
  std::vector<OriginUnit> clusters;
  auto paths_key = [&](UnitId u) {
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (const auto& e : unit_paths_[u]) {
      h = hash_combine(h, (std::uint64_t{e.vp} << 32) | e.path);
    }
    return h;
  };
  for (topo::NodeId origin = 0; origin < policies_.units_by_origin.size();
       ++origin) {
    const auto& list = policies_.units_by_origin[origin];
    std::vector<char> done(list.size(), 0);
    for (std::size_t a = 0; a < list.size(); ++a) {
      if (done[a] || policies_.units[list[a]].prefixes.empty()) continue;
      OriginUnit cluster = policies_.units[list[a]];
      const std::uint64_t key = paths_key(list[a]);
      for (std::size_t b = a + 1; b < list.size(); ++b) {
        if (done[b]) continue;
        const auto& other = policies_.units[list[b]];
        if (!other.prefixes.empty() && paths_key(list[b]) == key &&
            unit_paths_[list[b]] == unit_paths_[list[a]]) {
          cluster.prefixes.insert(cluster.prefixes.end(),
                                  other.prefixes.begin(),
                                  other.prefixes.end());
          done[b] = 1;
        }
      }
      clusters.push_back(std::move(cluster));
    }
  }
  return clusters;
}

void Simulator::emit_updates(bgp::Timestamp duration) {
  OBS_SPAN("routing.emit_updates");
  refresh_unit_paths();
  const auto& p = topo_.params;
  const double window_scale = static_cast<double>(duration) / (4 * kHour);
  // Update trains fragment more as tables grow (convergence interleaving).
  const double frag_prob =
      std::min(0.30, 0.17 + 0.006 * std::max(0.0, p.year - 2004.0));

  std::vector<bgp::UpdateRecord> out;
  const bgp::Timestamp t0 = now_;

  // Same-policy units of one origin are configured identically, so a
  // routing event hits all of them at once and the router packs their
  // NLRI under one attribute set — exactly why atoms are "seen in full"
  // in single updates. Cluster before emitting.
  for (const auto& cluster : policy_clusters()) {
    const OriginUnit& unit = cluster;
    if (unit.prefixes.empty() || unit_paths_[unit.id].empty()) continue;
    const int n_events =
        poisson(rng_, p.path_event_rate_4h * window_scale);
    const bgp::CommunitySetId comms =
        ds_.communities.intern(unit.policy.communities);
    for (int ev = 0; ev < n_events; ++ev) {
      const bgp::Timestamp t =
          t0 + static_cast<bgp::Timestamp>(rng_.next_double() * duration);
      const bool global = rng_.chance(0.75);
      const bool withdraw_first = rng_.chance(0.12);
      const auto& vp_entries = unit_paths_[unit.id];
      const std::size_t first =
          global ? 0 : rng_.next_below(vp_entries.size());
      const std::size_t last = global ? vp_entries.size() : first + 1;
      for (std::size_t e = first; e < last; ++e) {
        emit_unit_event(out, unit, vp_entries[e], comms, t, frag_prob,
                        withdraw_first);
      }
    }
  }

  // Single-prefix flap noise: localized churn that partially updates atoms.
  const int n_flaps = poisson(
      rng_, p.flap_noise_rate * window_scale *
                static_cast<double>(policies_.all_prefixes.size()));
  for (int i = 0; i < n_flaps; ++i) {
    const auto pid = static_cast<GlobalPrefixId>(
        rng_.next_below(policies_.all_prefixes.size()));
    const UnitId u = prefix_unit_[pid];
    if (u == UINT32_MAX || unit_paths_[u].empty()) continue;
    const auto& entry =
        unit_paths_[u][rng_.next_below(unit_paths_[u].size())];
    bgp::UpdateRecord rec;
    rec.timestamp =
        t0 + static_cast<bgp::Timestamp>(rng_.next_double() * duration);
    rec.collector = topo_.vantage_points[entry.vp].collector;
    rec.peer = entry.vp;
    rec.path = entry.path;
    rec.communities =
        ds_.communities.intern(policies_.units[u].policy.communities);
    rec.announced = {pid};
    out.push_back(std::move(rec));
  }

  // Scenario incidents starting/resolving inside the window appear in the
  // stream as withdraw/announce bursts at their transition times.
  if (!scenario_schedule_.empty()) emit_scenario_bursts(out, duration);

  std::sort(out.begin(), out.end(),
            [](const bgp::UpdateRecord& a, const bgp::UpdateRecord& b) {
              return a.timestamp < b.timestamp;
            });
  ds_.updates.insert(ds_.updates.end(),
                     std::make_move_iterator(out.begin()),
                     std::make_move_iterator(out.end()));
}

void Simulator::emit_unit_event(std::vector<bgp::UpdateRecord>& out,
                                const OriginUnit& unit, const VpPath& entry,
                                bgp::CommunitySetId comms, bgp::Timestamp t,
                                double frag_prob, bool withdraw_first) {
  const auto collector = topo_.vantage_points[entry.vp].collector;

  if (withdraw_first) {
    auto recs =
        bgp::pack_updates(ds_, t, collector, entry.vp,
                          net::PathPool::kEmptyPathId, 0, {}, unit.prefixes);
    for (auto& r : recs) out.push_back(std::move(r));
  }

  // Convergence fragmentation: the announcement train may arrive as
  // several chunks seconds apart, so a single captured update record only
  // covers part of the unit.
  std::vector<std::span<const GlobalPrefixId>> chunks;
  const auto& pfx = unit.prefixes;
  if (pfx.size() >= 2 && rng_.chance(frag_prob)) {
    const std::size_t n_chunks =
        2 + rng_.next_below(std::min<std::size_t>(2, pfx.size() - 1));
    const std::size_t base = pfx.size() / n_chunks;
    std::size_t start = 0;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t len =
          c + 1 == n_chunks ? pfx.size() - start : std::max<std::size_t>(1, base);
      chunks.emplace_back(pfx.data() + start, len);
      start += len;
      if (start >= pfx.size()) break;
    }
  } else {
    chunks.emplace_back(pfx.data(), pfx.size());
  }

  bgp::Timestamp tc = withdraw_first ? t + 2 : t;
  for (const auto& chunk : chunks) {
    auto recs = bgp::pack_updates(ds_, tc, collector, entry.vp, entry.path,
                                  comms, chunk, {});
    for (auto& r : recs) out.push_back(std::move(r));
    tc += 3 + static_cast<bgp::Timestamp>(rng_.next_below(30));
  }
}

void Simulator::drop_snapshot(std::size_t index) {
  ds_.snapshots.erase(ds_.snapshots.begin() +
                      static_cast<std::ptrdiff_t>(index));
}

// ---------------------------------------------------------------------------
// Scenario engine
// ---------------------------------------------------------------------------

void Simulator::init_scenarios() {
  rov_active_ = opt_.scenario.rov;
  if (rov_active_) seed_rov();

  incidents_ =
      schedule_incidents(topo_, policies_, opt_.scenario, scenario_rng_);

  // Sub-prefix overlay units are created up front so prefix and unit ids
  // stay stable for the whole campaign; incidents whose candidate
  // more-specifics all collide with existing prefixes are dropped.
  std::unordered_map<net::Prefix, char, net::PrefixHash> existing;
  existing.reserve(policies_.all_prefixes.size());
  for (const auto& pfx : policies_.all_prefixes) existing[pfx] = 1;
  std::erase_if(incidents_, [&](ScenarioIncident& inc) {
    return inc.kind == ScenarioKind::kSubPrefixHijack &&
           !create_overlay_unit(inc, existing);
  });

  std::vector<ScenarioTransition> transitions;
  for (std::uint32_t i = 0; i < incidents_.size(); ++i) {
    transitions.push_back({incidents_[i].start, i, /*starts=*/true});
    transitions.push_back({incidents_[i].end, i, /*starts=*/false});
  }
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const ScenarioTransition& a, const ScenarioTransition& b) {
                     return a.time < b.time;
                   });
  scenario_schedule_.assign(transitions.begin(), transitions.end());
}

void Simulator::seed_rov() {
  const auto& p = topo_.params;
  rov_.seed_adoption(topo_.graph, p.rov_adoption, scenario_rng_);
  if (p.roa_coverage <= 0.0) return;
  for (const auto& unit : policies_.units) {
    if (!scenario_rng_.chance(p.roa_coverage)) continue;
    unit_roa_covered_[unit.id] = 1;
    // A misconfigured ROA (stale origin / too-tight maxLength) makes the
    // unit's own legitimate announcement invalid.
    const bool mis = scenario_rng_.chance(p.roa_misconfig);
    unit_rov_invalid_[unit.id] = mis ? 1 : 0;
    const net::Asn origin_asn = topo_.graph.node(unit.origin).asn;
    for (GlobalPrefixId pid : unit.prefixes) {
      const net::Prefix& pfx = policies_.all_prefixes[pid];
      rov_.roas().add(pfx, mis ? origin_asn + 1 : origin_asn,
                      static_cast<std::uint8_t>(pfx.length()));
    }
  }
}

bool Simulator::create_overlay_unit(
    ScenarioIncident& inc,
    std::unordered_map<net::Prefix, char, net::PrefixHash>& existing) {
  // By value: the all_prefixes push_back below would invalidate references.
  const net::Prefix base =
      policies_.all_prefixes[policies_.units[inc.victim_unit].prefixes[0]];
  for (const auto& [extra, upper] :
       {std::pair{1, false}, {1, true}, {2, false}, {2, true}}) {
    const auto cand = make_subprefix(base, extra, upper);
    if (!cand || existing.count(*cand)) continue;
    existing[*cand] = 1;
    const auto pid =
        static_cast<GlobalPrefixId>(policies_.all_prefixes.size());
    policies_.all_prefixes.push_back(*cand);
    ds_.prefixes.intern(*cand);  // appended last: GlobalPrefixId == PrefixId

    OriginUnit nu;
    nu.id = static_cast<UnitId>(policies_.units.size());
    nu.origin = inc.actor;
    nu.prefixes = {pid};
    inc.overlay_unit = nu.id;
    prefix_unit_.push_back(nu.id);
    unit_paths_.emplace_back();
    unit_dirty_.push_back(kStale);
    unit_suppressed_.push_back(1);  // invisible until the incident starts
    unit_roa_covered_.push_back(0);
    // Invalid wherever the victim's covering ROA exists (its maxLength is
    // the victim prefix's own length, so any more-specific fails).
    unit_rov_invalid_.push_back(
        rov_active_ && unit_roa_covered_[inc.victim_unit] ? 1 : 0);
    // Deliberately NOT added to units_by_origin: overlay units must not
    // participate in merges or update-train clustering.
    policies_.units.push_back(std::move(nu));
    return true;
  }
  return false;
}

std::uint64_t Simulator::scenario_unit_key(UnitId u) const {
  if (!opt_.scenario.enabled()) return 0;
  std::uint64_t key = rov_active_ && unit_rov_invalid_[u] ? 1 : 0;
  if (const auto it = hijack_origin_.find(u); it != hijack_origin_.end()) {
    key |= (std::uint64_t{it->second} + 1) << 1;
    if (rov_active_ && unit_roa_covered_[u]) key |= std::uint64_t{1} << 43;
  }
  if (const auto it = unit_leaker_.find(u); it != unit_leaker_.end()) {
    key |= (std::uint64_t{it->second} + 1) << 22;
  }
  return key;
}

std::vector<UnitId> Simulator::leak_affected_units(NodeId leaker) const {
  const net::Asn leaker_asn = topo_.graph.node(leaker).asn;
  std::vector<UnitId> out;
  for (UnitId u = 0; u < policies_.units.size() && out.size() < kLeakUnitsMax;
       ++u) {
    if (policies_.units[u].prefixes.empty() || unit_suppressed_[u]) continue;
    if (policies_.units[u].origin == leaker) continue;
    for (const auto& entry : unit_paths_[u]) {
      const auto hops = ds_.paths.get(entry.path).hops();
      if (std::find(hops.begin(), hops.end(), leaker_asn) != hops.end()) {
        out.push_back(u);
        break;
      }
    }
  }
  return out;
}

std::vector<UnitId> Simulator::apply_transition(const ScenarioTransition& tr,
                                                bool invert) {
  ScenarioIncident& inc = incidents_[tr.incident];
  const bool starting = tr.starts != invert;
  std::vector<UnitId> touched;
  switch (inc.kind) {
    case ScenarioKind::kOriginHijack:
      if (starting) {
        hijack_origin_[inc.victim_unit] = inc.actor;
      } else {
        hijack_origin_.erase(inc.victim_unit);
      }
      touched.push_back(inc.victim_unit);
      break;
    case ScenarioKind::kSubPrefixHijack:
      unit_suppressed_[inc.overlay_unit] = starting ? 0 : 1;
      touched.push_back(inc.overlay_unit);
      break;
    case ScenarioKind::kRouteLeak:
      if (starting) {
        // Blast radius: units currently routed through the leaker, picked
        // from the computed tables (deterministic, no RNG — emit_updates
        // previews transitions and must replay them exactly).
        if (tr.starts && !invert) {
          refresh_unit_paths();
          inc.affected = leak_affected_units(inc.actor);
        }
        for (UnitId u : inc.affected) unit_leaker_[u] = inc.actor;
      } else {
        for (UnitId u : inc.affected) unit_leaker_.erase(u);
      }
      touched = inc.affected;
      break;
  }
  for (UnitId u : touched) unit_dirty_[u] = kStale;
  return touched;
}

void Simulator::emit_scenario_bursts(std::vector<bgp::UpdateRecord>& out,
                                     bgp::Timestamp duration) {
  const bgp::Timestamp horizon = now_ + duration;
  std::vector<ScenarioTransition> window;
  for (const auto& tr : scenario_schedule_) {
    if (tr.time >= horizon) break;  // queue is sorted
    window.push_back(tr);
  }
  if (window.empty()) return;

  // Preview protocol: apply each in-window transition in order, diff the
  // touched units' vantage-point paths, emit the burst — then revert
  // everything in reverse order. No RNG is consumed, and advance_to later
  // replays the exact same transitions permanently.
  OBS_SPAN("routing.scenario_preview");
  for (const auto& tr : window) {
    const std::vector<UnitId> touched = apply_transition(tr, /*invert=*/false);
    std::vector<std::vector<VpPath>> before;
    before.reserve(touched.size());
    for (UnitId u : touched) before.push_back(unit_paths_[u]);
    refresh_unit_paths();
    for (std::size_t i = 0; i < touched.size(); ++i) {
      diff_unit_updates(out, touched[i], before[i], tr.time);
    }
  }
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    apply_transition(*it, /*invert=*/true);
  }
  refresh_unit_paths();  // restore the real (pre-preview) tables
}

void Simulator::diff_unit_updates(std::vector<bgp::UpdateRecord>& out,
                                  UnitId u,
                                  const std::vector<VpPath>& before,
                                  bgp::Timestamp t) {
  const OriginUnit& unit = policies_.units[u];
  const auto& after = unit_paths_[u];
  const bgp::CommunitySetId comms =
      ds_.communities.intern(unit.policy.communities);
  // Both lists are sorted by vp; merge-diff them. Fixed 1s spacing between
  // per-session bursts keeps the preview deterministic.
  bgp::Timestamp tc = t;
  std::size_t i = 0, j = 0;
  auto emit = [&](std::uint16_t vp, bgp::PathId path, bool withdraw) {
    const auto collector = topo_.vantage_points[vp].collector;
    auto recs = withdraw
                    ? bgp::pack_updates(ds_, tc, collector, vp,
                                        net::PathPool::kEmptyPathId, 0, {},
                                        unit.prefixes)
                    : bgp::pack_updates(ds_, tc, collector, vp, path, comms,
                                        unit.prefixes, {});
    for (auto& r : recs) out.push_back(std::move(r));
    tc += 1;
  };
  while (i < before.size() || j < after.size()) {
    if (j >= after.size() ||
        (i < before.size() && before[i].vp < after[j].vp)) {
      emit(before[i].vp, 0, /*withdraw=*/true);  // session lost the route
      ++i;
    } else if (i >= before.size() || after[j].vp < before[i].vp) {
      emit(after[j].vp, after[j].path, /*withdraw=*/false);  // new route
      ++j;
    } else {
      if (before[i].path != after[j].path) {
        emit(after[j].vp, after[j].path, /*withdraw=*/false);  // changed
      }
      ++i;
      ++j;
    }
  }
}

}  // namespace bgpatoms::routing
