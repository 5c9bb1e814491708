// Gao-Rexford propagation-engine tests on hand-built graphs, plus a
// differential test of the level-by-level drain, on full and targeted
// runs, against the heap-based reference (propagation_reference.h) on
// generated topologies.
//
// Node/ASN convention below: add_node(asn, ...) and we keep asn == 10*(id+1)
// so paths are easy to read in failure output.
#include <gtest/gtest.h>

#include <string>

#include "net/rng.h"
#include "propagation_reference.h"
#include "routing/policy.h"
#include "routing/propagation.h"
#include "routing/rov.h"
#include "topo/era.h"
#include "topo/topology.h"

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
  // b provides transit to a.
  void provider(NodeId a, NodeId b) { g.add_edge(a, b, Rel::kProvider); }
  void peer(NodeId a, NodeId b) { g.add_edge(a, b, Rel::kPeer); }
  void sibling(NodeId a, NodeId b) { g.add_edge(a, b, Rel::kSibling); }
};

std::vector<net::Asn> path_at(const Propagator& prop, const RouteTable& t,
                              NodeId node) {
  std::vector<net::Asn> hops;
  prop.append_path(t, node, hops);
  return hops;
}

TEST(Propagation, LinearChainCustomerRoutes) {
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20), t = b.add(30, Tier::kTier1);
  b.provider(o, p);
  b.provider(p, t);

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);

  EXPECT_EQ(table.cls[o], RouteClass::kSelf);
  EXPECT_EQ(table.cls[p], RouteClass::kCustomer);
  EXPECT_EQ(table.cls[t], RouteClass::kCustomer);
  EXPECT_EQ(path_at(prop, table, p), (std::vector<net::Asn>{10}));
  EXPECT_EQ(path_at(prop, table, t), (std::vector<net::Asn>{20, 10}));
  EXPECT_TRUE(path_at(prop, table, o).empty());
}

TEST(Propagation, ProviderRoutesDescend) {
  //   t
  //  / \                    o announces; v learns a provider route via t.
  // o   v
  GraphBuilder b;
  const NodeId o = b.add(10), t = b.add(20, Tier::kTransit), v = b.add(30);
  b.provider(o, t);
  b.provider(v, t);

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(table.cls[v], RouteClass::kProvider);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{20, 10}));
}

TEST(Propagation, PeerRoutesSingleHopValleyFree) {
  // o - p1 (provider), p1 == p2 peers, p2 == p3 peers.
  // p2 hears o via the peer edge; p3 must NOT (no peer-peer re-export).
  GraphBuilder b;
  const NodeId o = b.add(10), p1 = b.add(20, Tier::kTransit),
               p2 = b.add(30, Tier::kTransit), p3 = b.add(40, Tier::kTransit);
  b.provider(o, p1);
  b.peer(p1, p2);
  b.peer(p2, p3);

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(table.cls[p2], RouteClass::kPeer);
  EXPECT_EQ(path_at(prop, table, p2), (std::vector<net::Asn>{20, 10}));
  EXPECT_FALSE(table.reachable(p3)) << "peer route leaked across two peers";
}

TEST(Propagation, PeerRouteExportsToCustomers) {
  GraphBuilder b;
  const NodeId o = b.add(10), p1 = b.add(20, Tier::kTransit),
               p2 = b.add(30, Tier::kTransit), c = b.add(40);
  b.provider(o, p1);
  b.peer(p1, p2);
  b.provider(c, p2);  // c is p2's customer

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(table.cls[c], RouteClass::kProvider);
  EXPECT_EQ(path_at(prop, table, c), (std::vector<net::Asn>{30, 20, 10}));
}

TEST(Propagation, CustomerRoutePreferredOverShorterPeerRoute) {
  // v can reach o via a customer chain (longer) or directly via a peer
  // edge (shorter). Gao-Rexford prefers the customer route.
  GraphBuilder b;
  const NodeId o = b.add(10), m = b.add(20), v = b.add(30, Tier::kTransit);
  b.provider(o, m);
  b.provider(m, v);  // v learns o from customer m: path (20, 10)
  b.peer(v, o);      // and from peer o directly: path (10)

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(table.cls[v], RouteClass::kCustomer);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{20, 10}));
}

TEST(Propagation, ShortestPathWithinClass) {
  // Two customer routes: via m1+m2 (3 hops) or via m3 (2 hops).
  GraphBuilder b;
  const NodeId o = b.add(10), m1 = b.add(20), m2 = b.add(30), m3 = b.add(40),
               v = b.add(50, Tier::kTier1);
  b.provider(o, m1);
  b.provider(m1, m2);
  b.provider(m2, v);
  b.provider(o, m3);
  b.provider(m3, v);

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{40, 10}));
}

TEST(Propagation, TieBreakByLowerNeighborAsn) {
  // Equal-length customer routes via 20 and via 30: lower ASN wins.
  GraphBuilder b;
  const NodeId o = b.add(10), m1 = b.add(20), m2 = b.add(30), v = b.add(40);
  b.provider(o, m1);
  b.provider(o, m2);
  b.provider(m1, v);
  b.provider(m2, v);

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{20, 10}));
}

TEST(Propagation, OriginPrependingLengthensAndChangesSelection) {
  GraphBuilder b;
  const NodeId o = b.add(10), m1 = b.add(20), m2 = b.add(30), v = b.add(40);
  b.provider(o, m1);  // neighbor index 0 of o
  b.provider(o, m2);  // neighbor index 1 of o
  b.provider(m1, v);
  b.provider(m2, v);

  // Prepend 2x toward m1: v should now prefer the m2 route.
  UnitPolicy pol;
  pol.prepend_to = {0};
  pol.prepend_count = 2;

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, &pol, table);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{30, 10}));
  // And the prepended copies are visible on the m1 branch itself.
  EXPECT_EQ(path_at(prop, table, m1), (std::vector<net::Asn>{10, 10, 10}));
  EXPECT_EQ(table.dist[m1], 3u);
}

TEST(Propagation, SelectiveAnnounceBlocksProvider) {
  GraphBuilder b;
  const NodeId o = b.add(10), m1 = b.add(20), m2 = b.add(30), v = b.add(40);
  b.provider(o, m1);  // index 0
  b.provider(o, m2);  // index 1
  b.provider(m1, v);
  b.provider(m2, v);

  UnitPolicy pol;
  pol.announce_to = {1};  // only m2 hears the unit directly

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, &pol, table);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{30, 10}));
  // m1 no longer hears o directly, but it still buys transit from v, so it
  // learns the route back down as a provider route — exactly why selective
  // announcement splits atoms at distance TWO, not by visibility.
  EXPECT_EQ(table.cls[m1], RouteClass::kProvider);
  EXPECT_EQ(path_at(prop, table, m1), (std::vector<net::Asn>{40, 30, 10}));
}

TEST(Propagation, NoExportStopsAtFirstAs) {
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20), t = b.add(30, Tier::kTier1);
  b.provider(o, p);
  b.provider(p, t);

  UnitPolicy pol;
  pol.no_export = true;

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, &pol, table);
  EXPECT_TRUE(table.reachable(p));
  EXPECT_FALSE(table.reachable(t));
}

TEST(Propagation, TransitBlockNeighborForcesAlternate) {
  //       v
  //      / \                o->P; P exports to x and y; rule blocks P->x.
  //     x   y
  //      \ /
  //       P
  //       |
  //       o
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20, Tier::kTransit), x = b.add(30),
               y = b.add(40), v = b.add(50, Tier::kTier1);
  b.provider(o, p);
  b.provider(p, x);
  b.provider(p, y);
  b.provider(x, v);
  b.provider(y, v);

  Propagator prop(b.g);
  RouteTable base;
  prop.compute(o, nullptr, base);
  EXPECT_EQ(path_at(prop, base, v), (std::vector<net::Asn>{30, 20, 10}));

  UnitPolicy pol;
  TransitRule rule;
  rule.kind = TransitRule::Kind::kBlockNeighbor;
  rule.at = p;
  rule.neighbor = x;
  pol.transit_rules.push_back(rule);

  RouteTable table;
  prop.compute(o, &pol, table);
  EXPECT_EQ(path_at(prop, table, v), (std::vector<net::Asn>{40, 20, 10}))
      << "v must re-route around the blocked branch (split at distance 3)";
  // x itself recovers the route from its provider v (provider route).
  EXPECT_EQ(table.cls[x], RouteClass::kProvider);
  EXPECT_EQ(path_at(prop, table, x),
            (std::vector<net::Asn>{50, 40, 20, 10}));
}

TEST(Propagation, TransitRegionBlockAndPrepend) {
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20, Tier::kTransit);
  const NodeId r1 = b.g.add_node(30, Tier::kEdge, /*region=*/1, 30);
  const NodeId r2 = b.g.add_node(40, Tier::kEdge, /*region=*/2, 40);
  b.provider(o, p);
  b.provider(r1, p);
  b.provider(r2, p);

  UnitPolicy block;
  block.transit_rules.push_back(
      {TransitRule::Kind::kBlockRegionExport, p, topo::kNoNode, 1, 0});

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, &block, table);
  EXPECT_FALSE(table.reachable(r1)) << "region 1 blocked";
  EXPECT_TRUE(table.reachable(r2));

  UnitPolicy prepend;
  prepend.transit_rules.push_back(
      {TransitRule::Kind::kPrependRegionExport, p, topo::kNoNode, 2, 2});
  prop.compute(o, &prepend, table);
  EXPECT_EQ(path_at(prop, table, r1), (std::vector<net::Asn>{20, 10}));
  EXPECT_EQ(path_at(prop, table, r2), (std::vector<net::Asn>{20, 20, 20, 10}));
}

TEST(Propagation, SiblingsAreTransparent) {
  // Sibling chain: o -S- s1 -S- s2(head) -> provider t; a VP behind t must
  // see the whole chain in the path (the DoD pattern).
  GraphBuilder b;
  const NodeId o = b.add(10), s1 = b.add(20), s2 = b.add(30),
               t = b.add(40, Tier::kTransit), v = b.add(50, Tier::kTier1);
  b.sibling(o, s1);
  b.sibling(s1, s2);
  b.provider(s2, t);
  b.provider(t, v);

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_EQ(path_at(prop, table, v),
            (std::vector<net::Asn>{40, 30, 20, 10}));
}

TEST(Propagation, UnreachableWithoutEdges) {
  GraphBuilder b;
  const NodeId o = b.add(10);
  const NodeId island = b.add(20);
  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, nullptr, table);
  EXPECT_FALSE(table.reachable(island));
  EXPECT_TRUE(path_at(prop, table, island).empty());
}

TEST(Propagation, PeerOnlyAnnouncementVisibilityScope) {
  // Content AS announces only to its peer: the peer and the peer's
  // customers see it; the content AS's provider does not.
  GraphBuilder b;
  const NodeId o = b.add(10, Tier::kContent), prov = b.add(20, Tier::kTransit),
               pr = b.add(30, Tier::kTransit), cust = b.add(40);
  b.provider(o, prov);  // index 0
  b.peer(o, pr);        // index 1
  b.provider(cust, pr);

  UnitPolicy pol;
  pol.announce_to = {1};

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, &pol, table);
  EXPECT_FALSE(table.reachable(prov));
  EXPECT_TRUE(table.reachable(pr));
  EXPECT_TRUE(table.reachable(cust));
  EXPECT_EQ(path_at(prop, table, cust), (std::vector<net::Asn>{30, 10}));
}

TEST(Propagation, TargetReachesProviderRouteThroughSibling) {
  // o's provider p exports down to its customer s1, whose sibling s2 has
  // no other neighbor: s2's only route is p's, spread over the sibling
  // edge. Only s2 is a target, so its closure must follow that edge.
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20, Tier::kTransit), s1 = b.add(30),
               s2 = b.add(40);
  b.provider(o, p);
  b.provider(s1, p);
  b.sibling(s1, s2);

  Propagator prop(b.g);
  const RouteSource source{o, nullptr, false};
  RouteTable table;
  prop.compute(std::span(&source, 1), GaoRexfordEngine(b.g),
               std::span(&s2, 1), table);
  ASSERT_TRUE(table.reachable(s2));
  EXPECT_EQ(table.cls[s2], RouteClass::kProvider);
  EXPECT_EQ(path_at(prop, table, s2), (std::vector<net::Asn>{30, 20, 10}));
  EXPECT_EQ(table.provider_settled(), 2u) << "s1 and s2, nothing else";
}

TEST(Propagation, LeakerOutsideTargetsStillLeaks) {
  // The leak of Scenario.RouteLeakReExportsToProviders with t2 the only
  // target: t2 hears o only through the leak, which needs the leaker's
  // first-pass (provider) route although nobody reads it.
  GraphBuilder b;
  const NodeId o = b.add(10), t1 = b.add(20, Tier::kTransit),
               leaker = b.add(30, Tier::kTransit),
               t2 = b.add(40, Tier::kTransit), s = b.add(50);
  b.provider(o, t1);
  b.provider(leaker, t1);
  b.provider(leaker, t2);
  b.sibling(leaker, s);

  Propagator prop(b.g);
  const RouteSource source{o, nullptr, false};
  const GaoRexfordEngine engine(b.g, nullptr, leaker);
  RouteTable table;
  prop.compute(std::span(&source, 1), engine, std::span(&t2, 1), table);
  ASSERT_TRUE(table.reachable(t2));
  EXPECT_EQ(table.cls[t2], RouteClass::kCustomer);
  EXPECT_EQ(path_at(prop, table, t2), (std::vector<net::Asn>{30, 20, 10}));

  // The leaker's sibling s is not a leak receiver: in the leak pass it
  // learns the leaker's pinned provider route over the sibling edge, so
  // the pinned leaker must seed the provider phase's sibling edges too.
  prop.compute(std::span(&source, 1), engine, std::span(&s, 1), table);
  ASSERT_TRUE(table.reachable(s));
  EXPECT_EQ(table.cls[s], RouteClass::kProvider);
  EXPECT_EQ(path_at(prop, table, s), (std::vector<net::Asn>{30, 20, 10}));
}

TEST(Propagation, DistMatchesExtractedPathLength) {
  GraphBuilder b;
  const NodeId o = b.add(10), p = b.add(20), t = b.add(30, Tier::kTier1),
               v = b.add(40);
  b.provider(o, p);
  b.provider(p, t);
  b.provider(v, t);

  UnitPolicy pol;
  pol.prepend_to = {0};
  pol.prepend_count = 1;

  Propagator prop(b.g);
  RouteTable table;
  prop.compute(o, &pol, table);
  for (NodeId n : {p, t, v}) {
    EXPECT_EQ(table.dist[n], path_at(prop, table, n).size()) << n;
  }
}

// --- differential oracle ---------------------------------------------------

/// True when `got` and `want` agree on every field of node `v`.
bool same_entry(const RouteTable& got, const RouteTable& want, NodeId v) {
  return got.dist[v] == want.dist[v] && got.cls[v] == want.cls[v] &&
         got.parent[v] == want.parent[v] &&
         got.edge_prepend[v] == want.edge_prepend[v] &&
         got.source[v] == want.source[v];
}

std::string describe(const RouteTable& got, const RouteTable& want,
                     NodeId v) {
  return "node " + std::to_string(v) + ": dist " +
         std::to_string(got.dist[v]) + " vs " + std::to_string(want.dist[v]) +
         ", parent " + std::to_string(got.parent[v]) + " vs " +
         std::to_string(want.parent[v]) + ", source " +
         std::to_string(got.source[v]) + " vs " +
         std::to_string(want.source[v]);
}

/// Number of nodes whose entry differs between `got` and `want` in any
/// field; the first one is described in `first`.
std::size_t table_mismatches(const RouteTable& got, const RouteTable& want,
                             std::string& first) {
  if (got.dist.size() != want.dist.size()) {
    first = "table sizes differ";
    return want.dist.size() + 1;
  }
  std::size_t bad = 0;
  for (NodeId v = 0; v < want.dist.size(); ++v) {
    if (!same_entry(got, want, v) && bad++ == 0) {
      first = describe(got, want, v);
    }
  }
  return bad;
}

/// Number of `targets` whose entry, or the entry of a node on their
/// parent chain in `want`, differs between `got` and `want`; the first
/// such node is described in `first`.
std::size_t target_mismatches(const RouteTable& got, const RouteTable& want,
                              std::span<const NodeId> targets,
                              std::string& first) {
  std::size_t bad = 0;
  for (const NodeId target : targets) {
    for (NodeId v = target;; v = want.parent[v]) {
      if (!same_entry(got, want, v)) {
        if (bad++ == 0) {
          first = describe(got, want, v) + " (on the chain of target " +
                  std::to_string(target) + ")";
        }
        break;
      }
      if (!want.reachable(v) || want.cls[v] == RouteClass::kSelf) break;
    }
  }
  return bad;
}

TEST(Propagation, MatchesReferenceOnGeneratedTopologies) {
  struct Era {
    bool v6;
    int year;
    double scale;
  };
  // Sizes go up and down so the one reused table shrinks and grows.
  const Era eras[] = {{false, 2024, 0.005}, {false, 2004, 0.02},
                      {true, 2014, 0.05},   {false, 2012, 0.008},
                      {true, 2024, 0.02}};
  RouteTable got;  // reused across every topology and run, full or targeted
  RouteTable want;
  std::size_t runs = 0, leak_passes = 0;
  std::uint64_t full_settled = 0, targeted_settled = 0;
  Rng pick(11);  // draws each targeted run's random targets
  for (const Era& era : eras) {
    const topo::EraParams params = era.v6
                                       ? topo::era_params_v6(era.year, era.scale)
                                       : topo::era_params_v4(era.year, era.scale);
    const topo::Topology topo = topo::generate_topology(params, 42);
    const AsGraph& g = topo.graph;
    const PolicySet policies = assign_policies(topo, 42);
    const auto& units = policies.units;
    ASSERT_FALSE(units.empty());
    const Propagator prop(g);
    std::vector<NodeId> every(g.size());
    for (NodeId v = 0; v < g.size(); ++v) every[v] = v;
    std::vector<NodeId> targets;

    RovState rov;
    Rng rng(7);
    for (NodeId n = 0; n < g.size(); ++n) {
      if (rng.chance(0.3)) rov.set_validating(n, true);
    }
    std::vector<NodeId> transits;
    for (NodeId n = 0; n < g.size(); ++n) {
      if (g.node(n).tier == topo::Tier::kTransit) transits.push_back(n);
    }
    ASSERT_FALSE(transits.empty());

    const std::string where = std::string(era.v6 ? "v6 " : "v4 ") +
                              std::to_string(era.year) + " (" +
                              std::to_string(g.size()) + " ASes), unit ";
    // Each case runs twice on the one table: every node a target (the
    // whole table must match), then the vantage points plus a random ~5%
    // of the nodes (the targets and their parent chains must match).
    auto check = [&](std::span<const RouteSource> sources,
                     const GaoRexfordEngine& engine, const char* what,
                     std::size_t u) {
      if (HasFatalFailure()) return;  // report the first mismatch only
      test::reference_compute(g, sources, engine, want);
      prop.compute(sources, engine, every, got);
      full_settled += got.provider_settled();
      std::string first;
      ASSERT_EQ(table_mismatches(got, want, first), 0u)
          << where << u << ", " << what << ": " << first;

      targets.clear();
      for (const auto& vp : topo.vantage_points) targets.push_back(vp.node);
      for (NodeId v = 0; v < g.size(); ++v) {
        if (pick.chance(0.05)) targets.push_back(v);
      }
      prop.compute(sources, engine, targets, got);
      targeted_settled += got.provider_settled();
      ASSERT_EQ(target_mismatches(got, want, targets, first), 0u)
          << where << u << ", " << what << ", targeted: " << first;
      ++runs;
    };

    const GaoRexfordEngine plain(g);
    const GaoRexfordEngine with_rov(g, &rov);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const OriginUnit& unit = units[u];
      const RouteSource own{unit.origin, &unit.policy, false};
      check(std::span(&own, 1), plain, "default engine", u);

      // Every fourth unit also runs the multi-source, ROV and leak cases.
      if (u % 4 != 0) continue;
      const RouteSource moas[] = {own, {units[(u + 7) % units.size()].origin,
                                        nullptr, false}};
      check(moas, plain, "MOAS", u);

      const RouteSource invalid{unit.origin, &unit.policy, true};
      check(std::span(&invalid, 1), with_rov, "ROV, invalid origin", u);
      const RouteSource hijacked[] = {own, {moas[1].origin, nullptr, true}};
      check(hijacked, with_rov, "ROV, invalid second source", u);

      const NodeId leaker = transits[(u / 4) % transits.size()];
      const GaoRexfordEngine leaking(g, nullptr, leaker);
      check(std::span(&own, 1), leaking, "transit leak", u);
      leak_passes += want.cls[leaker] == RouteClass::kPeer ||
                     want.cls[leaker] == RouteClass::kProvider;
    }
  }
  if (HasFatalFailure()) return;
  // The cases reached what they are meant to exercise.
  EXPECT_GT(runs, 1000u);
  EXPECT_GT(leak_passes, 10u) << "no run took the second (leak) pass";
  EXPECT_LT(targeted_settled, full_settled)
      << "the targeted runs' provider phase never left a node out";
  EXPECT_GT(targeted_settled, 0u) << "no target took a provider route";
}

}  // namespace
}  // namespace bgpatoms::routing
