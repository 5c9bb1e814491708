#include "routing/propagation.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace bgpatoms::routing {

namespace {

/// RouteTable::best_ value of a node without a candidate in the level.
constexpr std::uint32_t kNoCandidate = UINT32_MAX;

/// RouteTable::closure_ values.
enum : std::uint8_t { kOutside = 0, kInside = 1, kBorder = 2 };

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
  std::vector<NodeId> every(graph_.size());
  std::iota(every.begin(), every.end(), NodeId{0});
  compute(std::span<const RouteSource>(&source, 1), engine, every, out);
}

void Propagator::compute(std::span<const RouteSource> sources,
                         const PolicyEngine& engine,
                         std::span<const NodeId> targets, RouteTable& t) const {
  t.provider_settled_ = 0;
  // The leak pass reads each leaker's first-pass class and parent chain,
  // so the leakers are targets of the first pass too.
  const std::span<const NodeId> leaking = engine.leakers();
  std::span<const NodeId> first_targets = targets;
  std::vector<NodeId> with_leakers;
  if (!leaking.empty()) {
    with_leakers.assign(targets.begin(), targets.end());
    with_leakers.insert(with_leakers.end(), leaking.begin(), leaking.end());
    first_targets = with_leakers;
  }
  compute_pass(sources, engine, {}, {}, first_targets, t);

  // Route-leak second pass: re-run with every reachable leaker's learned
  // route re-exported valley-violatingly. A leaker whose route is already
  // customer-class (or its own) exports everywhere under the normal rule,
  // so only peer/provider-class leaker routes need the extra pass.
  std::vector<NodeId> leakers;
  for (const NodeId v : leaking) {
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
  compute_pass(sources, engine, pinned, leakers, targets, t);
}

void Propagator::compute_pass(std::span<const RouteSource> sources,
                              const PolicyEngine& engine,
                              std::span<const PinnedEntry> pinned,
                              std::span<const topo::NodeId> leakers,
                              std::span<const topo::NodeId> targets,
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
  // level is final, its nodes' edges are relaxed (where `edge_ok(nb)`
  // holds) into the levels above. Returns the number of nodes settled.
  auto drain = [&](RouteClass assign_cls, auto edge_ok) {
    std::uint32_t settled = 0;
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
      settled += static_cast<std::uint32_t>(won);
      for (const Candidate& c : level) {
        for (const auto& nb : graph_.node(c.node).neighbors) {
          if (edge_ok(nb)) relax(c.node, nb);
        }
      }
      level.clear();
      buckets[d] = std::move(level);  // keeps the capacity for reuse
    }
    top = 0;
    return settled;
  };

  // --- phase 1: customer routes climb provider (and sibling) edges -----
  const auto climb_ok = [](const Neighbor& nb) {
    return nb.rel == Rel::kProvider || nb.rel == Rel::kSibling;
  };
  if (pinned.empty()) {
    for (const RouteSource& s : sources) {
      if (t.source[s.origin] == kNoSource) continue;
      for (const auto& nb : graph_.node(s.origin).neighbors) {
        if (climb_ok(nb)) relax(s.origin, nb);
      }
    }
  } else {
    // Leak pass: pinned chain nodes were finalized before this phase, so
    // their climb edges must be re-relaxed here too.
    for (NodeId u = 0; u < n; ++u) {
      if (t.cls[u] != RouteClass::kSelf && t.cls[u] != RouteClass::kCustomer)
        continue;
      for (const auto& nb : graph_.node(u).neighbors) {
        if (climb_ok(nb)) relax(u, nb);
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
  drain(RouteClass::kPeer,
        [](const Neighbor& nb) { return nb.rel == Rel::kSibling; });

  // --- phase 3: provider routes descend customer (and sibling) edges ---
  // Only into the upward closure of the still-unrouted targets, walked
  // breadth-first over the edges phase 1 climbs. The routed nodes met on
  // the way border it and seed the phase.
  auto& closure = t.closure_;
  auto& walk = t.walk_;
  closure.assign(n, kOutside);
  walk.clear();
  for (const NodeId target : targets) {
    if (t.cls[target] != RouteClass::kNone || closure[target] != kOutside) {
      continue;
    }
    closure[target] = kInside;
    walk.push_back(target);
  }
  for (std::size_t i = 0; i < walk.size(); ++i) {
    if (closure[walk[i]] == kBorder) continue;
    for (const auto& nb : graph_.node(walk[i]).neighbors) {
      if (!climb_ok(nb) || closure[nb.node] != kOutside) continue;
      closure[nb.node] =
          t.cls[nb.node] == RouteClass::kNone ? kInside : kBorder;
      walk.push_back(nb.node);
    }
  }
  const auto descend_into_closure = [&](const Neighbor& nb) {
    return (nb.rel == Rel::kCustomer || nb.rel == Rel::kSibling) &&
           closure[nb.node] == kInside;
  };
  for (const NodeId u : walk) {
    if (closure[u] != kBorder) continue;
    for (const auto& nb : graph_.node(u).neighbors) {
      if (descend_into_closure(nb)) relax(u, nb);
    }
  }
  t.provider_settled_ += drain(RouteClass::kProvider, descend_into_closure);
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
