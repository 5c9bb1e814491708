#include "routing/propagation.h"

#include <algorithm>
#include <cassert>

namespace bgpatoms::routing {

namespace {

/// RouteTable::best_ value of a node without a candidate in the level.
constexpr std::uint32_t kNoCandidate = UINT32_MAX;

}  // namespace

using topo::AsGraph;
using topo::kNoNode;
using topo::Neighbor;
using topo::NodeId;
using topo::Rel;

Propagator::Propagator(const AsGraph& graph) : graph_(graph) {}

void Propagator::compute(NodeId origin, const UnitPolicy* policy,
                         RouteTable& out) const {
  const RouteSource source{origin, policy, /*rov_invalid=*/false};
  const GaoRexfordEngine engine(graph_);
  compute(std::span<const RouteSource>(&source, 1), engine, out);
}

void Propagator::compute(std::span<const RouteSource> sources,
                         const PolicyEngine& engine, RouteTable& t) const {
  compute_pass(sources, engine, {}, {}, t);

  // Route-leak second pass: re-run with every reachable leaker's learned
  // route re-exported valley-violatingly. A leaker whose route is already
  // customer-class (or its own) exports everywhere under the normal rule,
  // so only peer/provider-class leaker routes need the extra pass.
  std::vector<NodeId> leakers;
  for (NodeId v = 0; v < graph_.size(); ++v) {
    if (!engine.leaks(v)) continue;
    if (t.cls[v] != RouteClass::kPeer && t.cls[v] != RouteClass::kProvider) {
      continue;
    }
    leakers.push_back(v);
  }
  if (leakers.empty()) return;

  // Pin each leaker's full first-pass parent chain: those ASes are on the
  // leaked route's AS path and would reject the looped announcement, so
  // they keep their original entries (this is what keeps parent chains
  // acyclic in the second pass).
  std::vector<PinnedEntry> pinned;
  std::vector<char> seen(graph_.size(), 0);
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
  compute_pass(sources, engine, pinned, leakers, t);
}

void Propagator::compute_pass(std::span<const RouteSource> sources,
                              const PolicyEngine& engine,
                              std::span<const PinnedEntry> pinned,
                              std::span<const topo::NodeId> leakers,
                              RouteTable& t) const {
  const std::size_t n = graph_.size();
  t.dist.assign(n, UINT32_MAX);
  t.cls.assign(n, RouteClass::kNone);
  t.parent.assign(n, kNoNode);
  t.edge_prepend.assign(n, 0);
  t.source.assign(n, kNoSource);
  t.best_.assign(n, kNoCandidate);

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

  using Candidate = RouteTable::Candidate;
  auto& buckets = t.buckets_;
  std::uint32_t top = 0;  // highest level holding candidates this phase

  // Offers `to` a candidate route learned from `from`. `leak_edge`
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
    if (d >= buckets.size()) buckets.resize(d + 1);
    const std::uint64_t key =
        (std::uint64_t{engine.selection_rank(src, si)} << 32) |
        graph_.node(from).asn;
    buckets[d].push_back(Candidate{key, to.node, from, prepend, si});
    top = std::max(top, d);
  };

  // Drains one phase level by level: each node offered a route at level
  // d takes its lowest-key candidate and `assign_cls`; once the whole
  // level is final, its nodes' edges are relaxed (where `edge_ok(rel)`
  // holds) into the levels above.
  auto drain = [&](RouteClass assign_cls, auto edge_ok) {
    for (std::uint32_t d = 1; d <= top; ++d) {
      std::vector<Candidate> level = std::move(buckets[d]);
      for (std::uint32_t i = 0; i < level.size(); ++i) {
        const Candidate& c = level[i];
        if (t.cls[c.node] != RouteClass::kNone) continue;  // final below d
        std::uint32_t& best = t.best_[c.node];
        if (best == kNoCandidate || c.key < level[best].key) best = i;
      }
      std::size_t won = 0;
      for (std::uint32_t i = 0; i < level.size(); ++i) {
        const Candidate c = level[i];
        if (t.best_[c.node] != i) continue;
        t.best_[c.node] = kNoCandidate;
        t.cls[c.node] = assign_cls;
        t.dist[c.node] = d;
        t.parent[c.node] = c.parent;
        t.edge_prepend[c.node] = c.prepend;
        t.source[c.node] = c.source;
        level[won++] = c;
      }
      level.resize(won);
      for (const Candidate& c : level) {
        for (const auto& nb : graph_.node(c.node).neighbors) {
          if (edge_ok(nb.rel)) relax(c.node, nb);
        }
      }
      level.clear();
      buckets[d] = std::move(level);  // keeps the capacity for reuse
    }
    top = 0;
  };

  // --- phase 1: customer routes climb provider (and sibling) edges -----
  const auto climb_ok = [](Rel r) {
    return r == Rel::kProvider || r == Rel::kSibling;
  };
  if (pinned.empty()) {
    for (const RouteSource& s : sources) {
      if (t.source[s.origin] == kNoSource) continue;
      for (const auto& nb : graph_.node(s.origin).neighbors) {
        if (climb_ok(nb.rel)) relax(s.origin, nb);
      }
    }
  } else {
    // Leak pass: pinned chain nodes were finalized before this phase, so
    // their climb edges must be re-relaxed here too.
    for (NodeId u = 0; u < n; ++u) {
      if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
        continue;
      for (const auto& nb : graph_.node(u).neighbors) {
        if (climb_ok(nb.rel)) relax(u, nb);
      }
    }
  }
  // The leaked route reaches the leaker's providers as if customer-
  // learned: it enters selection as customer class at the receivers.
  for (const NodeId leaker : leakers) {
    for (const auto& nb : graph_.node(leaker).neighbors) {
      if (nb.rel == Rel::kProvider) relax(leaker, nb, /*leak_edge=*/true);
    }
  }
  drain(RouteClass::kCustomer, climb_ok);

  // --- phase 2: one peer hop, then sibling spread ------------------------
  for (NodeId u = 0; u < n; ++u) {
    if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
      continue;
    for (const auto& nb : graph_.node(u).neighbors) {
      if (nb.rel == Rel::kPeer) relax(u, nb);
    }
  }
  for (const NodeId leaker : leakers) {
    for (const auto& nb : graph_.node(leaker).neighbors) {
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
    for (const auto& nb : graph_.node(u).neighbors) {
      if (descend_ok(nb.rel)) relax(u, nb);
    }
  }
  drain(RouteClass::kProvider, descend_ok);
}

void Propagator::append_path(const RouteTable& t, NodeId node,
                             std::vector<net::Asn>& out) const {
  if (node >= t.cls.size() || t.cls[node] == RouteClass::kNone ||
      t.cls[node] == RouteClass::kSelf) {
    return;
  }
  NodeId cur = node;
  while (t.cls[cur] != RouteClass::kSelf) {
    const NodeId p = t.parent[cur];
    assert(p != kNoNode);
    out.insert(out.end(), std::size_t{t.edge_prepend[cur]} + 1,
               graph_.node(p).asn);
    cur = p;
  }
}

}  // namespace bgpatoms::routing
