// Reference route propagation for the differential test in
// test_propagation.cpp: the binary-heap implementation Propagator::compute
// once was, kept as the oracle the level-by-level bucket drain is compared
// against. Each phase is a Dijkstra over prepend-weighted hop counts that
// pops one candidate at a time in (dist, next-hop ASN) order and lazily
// skips nodes finalized earlier. It fills only the public
// RouteTable fields.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "routing/propagation.h"

namespace bgpatoms::test {

namespace reference_detail {

using routing::GaoRexfordEngine;
using routing::RouteClass;
using routing::RouteSource;
using routing::RouteTable;
using topo::AsGraph;
using topo::kNoNode;
using topo::Neighbor;
using topo::NodeId;
using topo::Rel;

struct QueueEntry {
  std::uint32_t dist;
  net::Asn parent_asn;  // deterministic tie-break
  NodeId node;
  NodeId parent;
  std::uint8_t prepend;
  std::uint16_t source;

  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.parent_asn != b.parent_asn) return a.parent_asn > b.parent_asn;
    return a.node > b.node;
  }
};

/// One leaked-route entry pinned from the first pass.
struct PinnedEntry {
  NodeId node;
  std::uint32_t dist;
  RouteClass cls;
  NodeId parent;
  std::uint8_t prepend;
  std::uint16_t source;
};

inline void compute_pass(const AsGraph& graph,
                         std::span<const RouteSource> sources,
                         const GaoRexfordEngine& engine,
                         std::span<const PinnedEntry> pinned,
                         std::span<const NodeId> leakers, RouteTable& t) {
  const std::size_t n = graph.size();
  t.dist.assign(n, UINT32_MAX);
  t.cls.assign(n, RouteClass::kNone);
  t.parent.assign(n, kNoNode);
  t.edge_prepend.assign(n, 0);
  t.source.assign(n, routing::kNoSource);

  for (std::uint16_t i = 0; i < sources.size(); ++i) {
    const NodeId origin = sources[i].origin;
    if (t.cls[origin] != RouteClass::kNone) continue;  // first source wins
    t.dist[origin] = 0;
    t.cls[origin] = RouteClass::kSelf;
    t.source[origin] = i;
  }
  for (const PinnedEntry& e : pinned) {
    if (t.cls[e.node] != RouteClass::kNone) continue;  // origins stay kSelf
    t.dist[e.node] = e.dist;
    t.cls[e.node] = e.cls;
    t.parent[e.node] = e.parent;
    t.edge_prepend[e.node] = e.prepend;
    t.source[e.node] = e.source;
  }

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      pq;

  // Pushes a candidate route at `to` learned from `from`. `leak_edge`
  // bypasses the export rule (valley-violating re-export); the import
  // filter still applies.
  auto relax = [&](NodeId from, const Neighbor& to, bool leak_edge = false) {
    if (t.cls[to.node] != RouteClass::kNone) return;  // finalized earlier
    const std::uint16_t si = t.source[from];
    const RouteSource& src = sources[si];
    std::uint8_t prepend = 0;
    if (!leak_edge) {
      const bool from_is_origin = t.cls[from] == RouteClass::kSelf;
      if (!engine.allow_export(src, from_is_origin, from, to, prepend)) {
        return;
      }
    }
    if (!engine.allow_import(src, to.node)) return;
    const std::uint32_t d = t.dist[from] + 1 + prepend;
    pq.push(QueueEntry{d, graph.node(from).asn, to.node, from, prepend, si});
  };

  // Runs one Dijkstra phase: nodes popped get `assign_cls`; the popped
  // node's outgoing edges are relaxed when `edge_ok(rel)` holds.
  auto drain = [&](RouteClass assign_cls, auto edge_ok) {
    while (!pq.empty()) {
      const QueueEntry e = pq.top();
      pq.pop();
      if (t.cls[e.node] != RouteClass::kNone) continue;  // lazy deletion
      t.cls[e.node] = assign_cls;
      t.dist[e.node] = e.dist;
      t.parent[e.node] = e.parent;
      t.edge_prepend[e.node] = e.prepend;
      t.source[e.node] = e.source;
      for (const auto& nb : graph.node(e.node).neighbors) {
        if (edge_ok(nb.rel)) relax(e.node, nb);
      }
    }
  };

  // --- phase 1: customer routes climb provider (and sibling) edges -----
  const auto climb_ok = [](Rel r) {
    return r == Rel::kProvider || r == Rel::kSibling;
  };
  if (pinned.empty()) {
    for (const RouteSource& s : sources) {
      if (t.source[s.origin] == routing::kNoSource) continue;
      for (const auto& nb : graph.node(s.origin).neighbors) {
        if (climb_ok(nb.rel)) relax(s.origin, nb);
      }
    }
  } else {
    // Leak pass: pinned chain nodes were finalized before this phase, so
    // their climb edges must be re-relaxed here too.
    for (NodeId u = 0; u < n; ++u) {
      if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
        continue;
      for (const auto& nb : graph.node(u).neighbors) {
        if (climb_ok(nb.rel)) relax(u, nb);
      }
    }
  }
  // The leaked route reaches the leaker's providers as if customer-
  // learned: it enters selection as customer class at the receivers.
  for (const NodeId leaker : leakers) {
    for (const auto& nb : graph.node(leaker).neighbors) {
      if (nb.rel == Rel::kProvider) relax(leaker, nb, /*leak_edge=*/true);
    }
  }
  drain(RouteClass::kCustomer, climb_ok);

  // --- phase 2: one peer hop, then sibling spread ------------------------
  for (NodeId u = 0; u < n; ++u) {
    if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
      continue;
    for (const auto& nb : graph.node(u).neighbors) {
      if (nb.rel == Rel::kPeer) relax(u, nb);
    }
  }
  for (const NodeId leaker : leakers) {
    for (const auto& nb : graph.node(leaker).neighbors) {
      if (nb.rel == Rel::kPeer) relax(leaker, nb, /*leak_edge=*/true);
    }
  }
  drain(RouteClass::kPeer, [](Rel r) { return r == Rel::kSibling; });

  // --- phase 3: provider routes descend customer (and sibling) edges ---
  const auto descend_ok = [](Rel r) {
    return r == Rel::kCustomer || r == Rel::kSibling;
  };
  for (NodeId u = 0; u < n; ++u) {
    if (t.cls[u] == RouteClass::kNone) continue;
    for (const auto& nb : graph.node(u).neighbors) {
      if (descend_ok(nb.rel)) relax(u, nb);
    }
  }
  drain(RouteClass::kProvider, descend_ok);
}

}  // namespace reference_detail

/// The heap-based Propagator::compute: same sources, engine hooks, phases
/// and leak pass, over `graph`, with every node a target (the full
/// table).
inline void reference_compute(const topo::AsGraph& graph,
                              std::span<const routing::RouteSource> sources,
                              const routing::GaoRexfordEngine& engine,
                              routing::RouteTable& t) {
  using reference_detail::PinnedEntry;
  using routing::RouteClass;
  using topo::NodeId;
  reference_detail::compute_pass(graph, sources, engine, {}, {}, t);

  // Route-leak second pass: re-run with every reachable leaker's learned
  // route re-exported valley-violatingly. A leaker whose route is already
  // customer-class (or its own) exports everywhere under the normal rule,
  // so only peer/provider-class leaker routes need the extra pass.
  std::vector<NodeId> leakers;
  for (const NodeId v : engine.leakers()) {
    if (t.cls[v] == RouteClass::kPeer || t.cls[v] == RouteClass::kProvider) {
      leakers.push_back(v);
    }
  }
  if (leakers.empty()) return;

  // Pin each leaker's full first-pass parent chain: those ASes are on the
  // leaked route's AS path and would reject the looped announcement, so
  // they keep their original entries (this is what keeps parent chains
  // acyclic in the second pass).
  std::vector<PinnedEntry> pinned;
  std::vector<char> seen(graph.size(), 0);
  for (const NodeId leaker : leakers) {
    NodeId cur = leaker;
    while (!seen[cur]) {
      seen[cur] = 1;
      pinned.push_back(PinnedEntry{cur, t.dist[cur], t.cls[cur],
                                   t.parent[cur], t.edge_prepend[cur],
                                   t.source[cur]});
      if (t.cls[cur] == RouteClass::kSelf) break;
      cur = t.parent[cur];
    }
  }
  reference_detail::compute_pass(graph, sources, engine, pinned, leakers, t);
}

}  // namespace bgpatoms::test
