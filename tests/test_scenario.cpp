// Scenario engine tests: sub-prefix construction, ROV validation and
// adoption, multi-origin / leak / rank propagation through the policy
// engine, era security anchors, and end-to-end simulator incidents.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "routing/policy_engine.h"
#include "routing/propagation.h"
#include "routing/rov.h"
#include "routing/scenario.h"
#include "routing/simulator.h"
#include "topo/era.h"

namespace bgpatoms::routing {
namespace {

using topo::AsGraph;
using topo::NodeId;
using topo::Rel;
using topo::Tier;

struct GraphBuilder {
  AsGraph g;
  NodeId add(net::Asn asn, Tier tier = Tier::kEdge, std::uint16_t region = 0) {
    return g.add_node(asn, tier, region, asn);
  }
  void provider(NodeId a, NodeId b) { g.add_edge(a, b, Rel::kProvider); }
  void peer(NodeId a, NodeId b) { g.add_edge(a, b, Rel::kPeer); }
};

std::vector<net::Asn> path_at(const Propagator& prop, const RouteTable& t,
                              NodeId node) {
  std::vector<net::Asn> hops;
  prop.append_path(t, node, hops);
  return hops;
}

/// Every node of `g`, as targets for a full table.
std::vector<NodeId> every_node(const AsGraph& g) {
  std::vector<NodeId> all(g.size());
  for (NodeId v = 0; v < g.size(); ++v) all[v] = v;
  return all;
}

// --- make_subprefix --------------------------------------------------------

TEST(Scenario, MakeSubprefixHalvesV4) {
  const auto base = *net::Prefix::parse("10.0.0.0/16");
  EXPECT_EQ(make_subprefix(base, 1, false)->to_string(), "10.0.0.0/17");
  EXPECT_EQ(make_subprefix(base, 1, true)->to_string(), "10.0.128.0/17");
  EXPECT_EQ(make_subprefix(base, 2, false)->to_string(), "10.0.0.0/18");
  EXPECT_EQ(make_subprefix(base, 2, true)->to_string(), "10.0.128.0/18");
}

TEST(Scenario, MakeSubprefixHalvesV6) {
  const auto base = *net::Prefix::parse("2001:db8::/32");
  EXPECT_EQ(make_subprefix(base, 1, false)->to_string(), "2001:db8::/33");
  EXPECT_EQ(make_subprefix(base, 1, true)->to_string(), "2001:db8:8000::/33");
  // Upper-half bit lands in the low 64 bits for long prefixes.
  const auto deep = *net::Prefix::parse("2001:db8::/66");
  const auto upper = make_subprefix(deep, 1, true);
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->length(), 67);
  EXPECT_TRUE(deep.contains(*upper));
  EXPECT_NE(*upper, *make_subprefix(deep, 1, false));
}

TEST(Scenario, MakeSubprefixRejectsOverlongResults) {
  EXPECT_FALSE(make_subprefix(*net::Prefix::parse("10.1.2.3/32"), 1, false));
  EXPECT_FALSE(make_subprefix(*net::Prefix::parse("10.0.0.0/31"), 2, true));
  EXPECT_TRUE(make_subprefix(*net::Prefix::parse("10.0.0.0/31"), 1, true));
}

// --- ROA validation --------------------------------------------------------

TEST(Scenario, RoaValidationFollowsRfc6811) {
  RoaTable roas;
  roas.add(*net::Prefix::parse("10.0.0.0/16"), 64500, 20);

  // Matching origin within maxLength: valid.
  EXPECT_EQ(roas.validate(*net::Prefix::parse("10.0.0.0/16"), 64500),
            RovStatus::kValid);
  EXPECT_EQ(roas.validate(*net::Prefix::parse("10.0.128.0/20"), 64500),
            RovStatus::kValid);
  // Too specific or wrong origin: invalid.
  EXPECT_EQ(roas.validate(*net::Prefix::parse("10.0.0.0/24"), 64500),
            RovStatus::kInvalid);
  EXPECT_EQ(roas.validate(*net::Prefix::parse("10.0.0.0/16"), 64501),
            RovStatus::kInvalid);
  // Uncovered space: unknown.
  EXPECT_EQ(roas.validate(*net::Prefix::parse("11.0.0.0/16"), 64500),
            RovStatus::kUnknown);
}

TEST(Scenario, RovStateSeedsRequestedAdoption) {
  GraphBuilder b;
  for (int i = 0; i < 2000; ++i) {
    b.add(static_cast<net::Asn>(100 + i),
          i % 10 == 0 ? Tier::kTransit : Tier::kEdge);
  }
  RovState rov;
  Rng rng(7);
  rov.seed_adoption(b.g, 0.25, rng);
  const double frac = rov.validating_fraction();
  EXPECT_GT(frac, 0.18);
  EXPECT_LT(frac, 0.32);

  const std::size_t before = rov.validating_count();
  NodeId off = 0;
  while (rov.validating(off)) ++off;
  rov.set_validating(off, true);
  EXPECT_EQ(rov.validating_count(), before + 1);
  rov.set_validating(off, true);  // idempotent
  EXPECT_EQ(rov.validating_count(), before + 1);
  rov.set_validating(off, false);
  EXPECT_EQ(rov.validating_count(), before);
}

// --- multi-origin propagation ---------------------------------------------

TEST(Scenario, MultiOriginNodesPickTheNearerSource) {
  // o1 - m1 - m2 - o2: a 4-chain of provider edges up to a shared top is
  // overkill; use a line where each end originates.
  GraphBuilder b;
  const NodeId o1 = b.add(10), m1 = b.add(20, Tier::kTransit),
               m2 = b.add(30, Tier::kTransit), o2 = b.add(40);
  b.provider(o1, m1);
  b.provider(m1, m2);
  b.provider(o2, m2);

  Propagator prop(b.g);
  const std::vector<RouteSource> sources{{o1, nullptr, false},
                                         {o2, nullptr, false}};
  const GaoRexfordEngine engine(b.g);
  RouteTable t;
  prop.compute(sources, engine, every_node(b.g), t);

  EXPECT_EQ(t.source[o1], 0);
  EXPECT_EQ(t.source[o2], 1);
  EXPECT_EQ(t.source[m1], 0) << "m1 is adjacent to o1";
  EXPECT_EQ(t.source[m2], 1) << "m2 is adjacent to o2";
  EXPECT_EQ(path_at(prop, t, m2), (std::vector<net::Asn>{40}));
}

TEST(Scenario, RovDropsInvalidSourceAtValidatingNodes) {
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20, Tier::kTransit),
               q = b.add(30, Tier::kTransit);
  b.provider(o, p);
  b.provider(p, q);

  RovState rov;
  rov.set_validating(q, true);
  Propagator prop(b.g);
  const std::vector<RouteSource> sources{{o, nullptr, /*rov_invalid=*/true}};
  const GaoRexfordEngine engine(b.g, &rov);
  RouteTable t;
  prop.compute(sources, engine, every_node(b.g), t);

  EXPECT_TRUE(t.reachable(p)) << "non-validating ASes still accept";
  EXPECT_FALSE(t.reachable(q)) << "validating AS drops the invalid route";
}

TEST(Scenario, RouteLeakReExportsToProviders) {
  // o -> t1 (transit); leaker L is a customer of both t1 and t2. Valley-free,
  // t2 never hears the route (L's route is provider-learned). A leaking L
  // re-exports it to t2 as if customer-learned.
  GraphBuilder b;
  const NodeId o = b.add(10), t1 = b.add(20, Tier::kTransit),
               leaker = b.add(30, Tier::kTransit),
               t2 = b.add(40, Tier::kTransit);
  b.provider(o, t1);
  b.provider(leaker, t1);
  b.provider(leaker, t2);

  Propagator prop(b.g);
  const std::vector<RouteSource> sources{{o, nullptr, false}};
  RouteTable t;

  prop.compute(sources, GaoRexfordEngine(b.g), every_node(b.g), t);
  EXPECT_FALSE(t.reachable(t2)) << "valley-free keeps t2 dark";

  prop.compute(sources, GaoRexfordEngine(b.g, nullptr, leaker),
               every_node(b.g), t);
  ASSERT_TRUE(t.reachable(t2));
  EXPECT_EQ(t.cls[t2], RouteClass::kCustomer)
      << "the leaked route arrives as if customer-learned";
  EXPECT_EQ(path_at(prop, t, t2), (std::vector<net::Asn>{30, 20, 10}));
  // The leaker's own route is pinned from the first pass: no self-loop.
  EXPECT_EQ(t.cls[leaker], RouteClass::kProvider);
}

// --- era anchors -----------------------------------------------------------

TEST(Scenario, EraSecurityAnchorsFollowDeployment) {
  EXPECT_DOUBLE_EQ(topo::era_params_v4(2004.0, 1.0).rov_adoption, 0.0);
  EXPECT_DOUBLE_EQ(topo::era_params_v4(2008.0, 1.0).roa_coverage, 0.0);
  EXPECT_DOUBLE_EQ(topo::era_params_v4(2016.0, 1.0).rov_adoption, 0.03);
  EXPECT_DOUBLE_EQ(topo::era_params_v4(2024.75, 1.0).rov_adoption, 0.33);
  EXPECT_DOUBLE_EQ(topo::era_params_v4(2024.75, 1.0).roa_coverage, 0.52);
  // Misconfiguration share shrinks once tooling matured.
  EXPECT_GT(topo::era_params_v4(2013.0, 1.0).roa_misconfig,
            topo::era_params_v4(2024.0, 1.0).roa_misconfig);
  // v6 trails v4 slightly on adoption but covers more space by 2024.
  EXPECT_DOUBLE_EQ(topo::era_params_v6(2011.0, 1.0).rov_adoption, 0.0);
  EXPECT_GT(topo::era_params_v6(2024.75, 1.0).roa_coverage,
            topo::era_params_v4(2024.75, 1.0).roa_coverage);
}

// --- simulator end-to-end --------------------------------------------------

Simulator make_sim(SimOptions opt, std::uint64_t seed = 5,
                   double year = 2020.0, double scale = 0.02) {
  opt.seed = seed;
  return Simulator(
      topo::generate_topology(topo::era_params_v4(year, scale), seed), opt);
}

bool snapshots_equal(const bgp::Snapshot& a, const bgp::Snapshot& b) {
  if (a.peers.size() != b.peers.size()) return false;
  for (std::size_t i = 0; i < a.peers.size(); ++i) {
    if (!(a.peers[i].peer == b.peers[i].peer)) return false;
    if (a.peers[i].records != b.peers[i].records) return false;
  }
  return true;
}

/// Origin ASN (last hop) of a record's path, or 0 for an empty path.
net::Asn record_origin(const bgp::Dataset& ds, const bgp::RibRecord& r) {
  const auto hops = ds.paths.get(r.path).flat();
  return hops.empty() ? 0 : hops.back();
}

TEST(Scenario, SimulatorIncidentsScheduleInsideTheCampaignWindow) {
  SimOptions opt;
  opt.scenario.origin_hijacks = 2;
  opt.scenario.subprefix_hijacks = 1;
  opt.scenario.route_leaks = 1;
  auto sim = make_sim(opt);
  ASSERT_FALSE(sim.incidents().empty());
  for (const auto& inc : sim.incidents()) {
    EXPECT_GE(inc.start, kIncidentFirstStart);
    EXPECT_LT(inc.start, kIncidentFirstStart + kIncidentStartSpread);
    EXPECT_GT(inc.end, 8 * kHour) << "still active at the 8h capture";
    EXPECT_LT(inc.end, kWeek) << "resolved before the 1w capture";
    if (inc.kind == ScenarioKind::kSubPrefixHijack) {
      EXPECT_NE(inc.overlay_unit, UINT32_MAX);
      EXPECT_TRUE(sim.unit_suppressed(inc.overlay_unit));
    }
  }
}

TEST(Scenario, FirstCaptureIsUntouchedByScheduledIncidents) {
  SimOptions opt;
  opt.scenario.origin_hijacks = 2;
  opt.scenario.subprefix_hijacks = 1;
  opt.scenario.route_leaks = 1;
  auto sim = make_sim(opt);
  auto base = make_sim(SimOptions{});
  sim.capture();
  base.capture();
  EXPECT_TRUE(snapshots_equal(sim.dataset().snapshots[0],
                              base.dataset().snapshots[0]))
      << "incidents start after t0 and must not perturb the first capture";
}

TEST(Scenario, OriginHijackIsVisibleMidCampaignAndResolves) {
  SimOptions opt;
  opt.weekly_churn = false;  // isolate the scenario machinery
  opt.scenario.origin_hijacks = 3;
  auto sim = make_sim(opt);
  ASSERT_FALSE(sim.incidents().empty());

  sim.capture();               // t0: clean
  sim.advance_to(8 * kHour);   // all incidents active
  sim.capture();
  sim.advance_to(kWeek);       // all incidents resolved
  sim.capture();
  const auto& ds = sim.dataset();

  std::size_t hijacked_records_mid = 0, hijacked_records_end = 0;
  for (const auto& inc : sim.incidents()) {
    const net::Asn attacker = sim.topology().graph.node(inc.actor).asn;
    std::unordered_set<bgp::PrefixId> victim_prefixes;
    for (auto p : sim.policies().units[inc.victim_unit].prefixes) {
      victim_prefixes.insert(p);
    }
    auto count = [&](const bgp::Snapshot& snap) {
      std::size_t n = 0;
      for (const auto& feed : snap.peers) {
        for (const auto& r : feed.records) {
          if (victim_prefixes.count(r.prefix) &&
              record_origin(ds, r) == attacker) {
            ++n;
          }
        }
      }
      return n;
    };
    EXPECT_EQ(count(ds.snapshots[0]), 0u) << "no hijack before start";
    hijacked_records_mid += count(ds.snapshots[1]);
    hijacked_records_end += count(ds.snapshots[2]);
  }
  EXPECT_GT(hijacked_records_mid, 0u)
      << "some vantage point selects the hijacker mid-campaign";
  EXPECT_EQ(hijacked_records_end, 0u) << "hijacks withdraw on resolution";
  // With churn off, the post-resolution table is byte-identical to t0.
  EXPECT_TRUE(snapshots_equal(ds.snapshots[0], ds.snapshots[2]));
}

TEST(Scenario, SubPrefixOverlayAppearsOnlyWhileActive) {
  SimOptions opt;
  opt.weekly_churn = false;
  opt.scenario.subprefix_hijacks = 2;
  auto sim = make_sim(opt);
  ASSERT_FALSE(sim.incidents().empty());

  sim.capture();
  sim.advance_to(8 * kHour);
  sim.capture();
  sim.advance_to(kWeek);
  sim.capture();
  const auto& ds = sim.dataset();

  for (const auto& inc : sim.incidents()) {
    ASSERT_EQ(inc.kind, ScenarioKind::kSubPrefixHijack);
    const auto overlay_pid = static_cast<bgp::PrefixId>(
        sim.policies().units[inc.overlay_unit].prefixes[0]);
    // The overlay prefix is a strict more-specific of the victim's.
    const auto victim_pid = sim.policies().units[inc.victim_unit].prefixes[0];
    EXPECT_TRUE(sim.policies().all_prefixes[victim_pid].contains(
        sim.policies().all_prefixes[overlay_pid]));

    auto seen = [&](const bgp::Snapshot& snap) {
      for (const auto& feed : snap.peers) {
        for (const auto& r : feed.records) {
          if (r.prefix == overlay_pid) return true;
        }
      }
      return false;
    };
    EXPECT_FALSE(seen(ds.snapshots[0])) << "suppressed before start";
    EXPECT_TRUE(seen(ds.snapshots[1])) << "announced while active";
    EXPECT_FALSE(seen(ds.snapshots[2])) << "withdrawn after resolution";
  }
}

TEST(Scenario, RouteLeakPicksAffectedUnitsAndReroutesThem) {
  SimOptions opt;
  opt.weekly_churn = false;
  opt.scenario.route_leaks = 2;
  auto sim = make_sim(opt);
  ASSERT_FALSE(sim.incidents().empty());

  sim.capture();
  sim.advance_to(8 * kHour);
  sim.capture();
  const auto& ds = sim.dataset();

  std::size_t affected_total = 0, moved = 0;
  for (const auto& inc : sim.incidents()) {
    affected_total += inc.affected.size();
    EXPECT_LE(inc.affected.size(), kLeakUnitsMax);
    const net::Asn leaker = sim.topology().graph.node(inc.actor).asn;
    for (UnitId u : inc.affected) {
      // A leaked route pulls some session's best path through the leaker
      // in customer position — paths that did not exist at t0.
      for (auto pid : sim.policies().units[u].prefixes) {
        for (std::size_t vp = 0; vp < ds.snapshots[0].peers.size(); ++vp) {
          auto find = [&](const bgp::Snapshot& s) -> const bgp::RibRecord* {
            for (const auto& r : s.peers[vp].records) {
              if (r.prefix == pid) return &r;
            }
            return nullptr;
          };
          const auto* r0 = find(ds.snapshots[0]);
          const auto* r1 = find(ds.snapshots[1]);
          if (r0 && r1 && !(*r0 == *r1)) ++moved;
          (void)leaker;
        }
      }
    }
  }
  EXPECT_GT(affected_total, 0u) << "transit leakers sit on some best paths";
  EXPECT_GT(moved, 0u) << "leaks re-route at least one recorded path";
}

TEST(Scenario, RovDeploymentDropsInvalidRoutesAtT0) {
  // generate_topology never reads the ROV curves: raising them changes
  // only what the simulator's ROV seeding draws.
  topo::EraParams era = topo::era_params_v4(2024.75, 0.02);
  era.rov_adoption = 0.5;
  era.roa_coverage = 0.5;
  SimOptions opt;
  opt.seed = 5;
  opt.scenario.rov = true;
  Simulator sim(topo::generate_topology(era, 5), opt);
  auto base = make_sim(SimOptions{}, 5, 2024.75);
  EXPECT_GT(sim.rov().validating_count(), 0u);
  EXPECT_GT(sim.rov().roas().size(), 0u);

  sim.capture();
  base.capture();
  auto records = [](const bgp::Snapshot& s) {
    std::size_t n = 0;
    for (const auto& f : s.peers) n += f.records.size();
    return n;
  };
  const std::size_t with_rov = records(sim.dataset().snapshots[0]);
  const std::size_t without = records(base.dataset().snapshots[0]);
  EXPECT_LT(with_rov, without)
      << "validating sessions drop ROV-invalid (misconfigured) units";
}

TEST(Scenario, EmitUpdatesPreviewsIncidentsWithoutMutatingState) {
  SimOptions opt;
  opt.weekly_churn = false;
  opt.scenario.origin_hijacks = 2;
  opt.scenario.subprefix_hijacks = 1;
  auto sim = make_sim(opt);
  ASSERT_FALSE(sim.incidents().empty());

  sim.capture();
  const std::size_t updates_before = sim.dataset().updates.size();
  sim.emit_updates(8 * kHour);  // window covers every incident start
  EXPECT_GT(sim.dataset().updates.size(), updates_before)
      << "incident starts appear as announce bursts in the stream";
  sim.capture();  // still at t0: the preview must have been fully reverted
  EXPECT_TRUE(snapshots_equal(sim.dataset().snapshots[0],
                              sim.dataset().snapshots[1]))
      << "previewing scenario transitions must not leak into the tables";

  // The burst timestamps line up with scheduled incident starts.
  bool found_start_burst = false;
  for (const auto& inc : sim.incidents()) {
    for (std::size_t i = updates_before; i < sim.dataset().updates.size();
         ++i) {
      const auto ts = sim.dataset().updates[i].timestamp;
      if (ts >= inc.start && ts < inc.start + kMinute) found_start_burst = true;
    }
  }
  EXPECT_TRUE(found_start_burst);
}

TEST(Scenario, DisabledScenarioLeavesSchedulingUntouched) {
  auto sim = make_sim(SimOptions{});
  EXPECT_TRUE(sim.incidents().empty());
  EXPECT_EQ(sim.rov().validating_count(), 0u);
  EXPECT_EQ(sim.rov().validating_fraction(), 0.0);
}

}  // namespace
}  // namespace bgpatoms::routing
