#include "routing/propagation.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace bgpatoms::routing {

namespace {

/// RouteTable::best_ value of a node without a candidate in the level.
constexpr std::uint32_t kNoCandidate = UINT32_MAX;

/// RouteTable::walk_pos_ value of a node the provider phase's walk did
/// not reach.
constexpr std::uint32_t kOffWalk = UINT32_MAX;

}  // namespace

using topo::AsGraph;
using topo::kNoNode;
using topo::Neighbor;
using topo::NodeId;
using topo::Rel;

Propagator::Propagator(const AsGraph& graph) : graph_(graph) {
  const auto group_of = [](Rel rel) -> std::size_t {
    switch (rel) {
      case Rel::kProvider:
        return kProviders;
      case Rel::kSibling:
        return kSiblings;
      case Rel::kCustomer:
        return kCustomers;
      case Rel::kPeer:
        break;
    }
    return kPeers;
  };
  const std::size_t n = graph.size();
  asn_.resize(n);
  first_.assign(n * kGroups + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    asn_[v] = graph.node(v).asn;
    for (const Neighbor& nb : graph.node(v).neighbors) {
      ++first_[v * kGroups + group_of(nb.rel) + 1];
    }
  }
  std::partial_sum(first_.begin(), first_.end(), first_.begin());
  edges_.resize(first_.back());
  // Fill each group in the graph's order, then find every entry's
  // reverse: the entries pointing at v, collected in owner order, meet
  // v's own entry for the same edge through a per-owner mark. Each edge
  // has one entry at each end (AsGraph::add_edge), so the entries pointing
  // at v are as many as v's own.
  std::vector<std::uint32_t> next(first_.begin(), first_.end() - 1);
  std::vector<std::uint32_t> incoming_at(n);
  for (NodeId v = 0; v < n; ++v) {
    incoming_at[v] = first_[v * kGroups];
    for (const Neighbor& nb : graph.node(v).neighbors) {
      edges_[next[v * kGroups + group_of(nb.rel)]++] = {nb.node, 0, &nb};
    }
  }
  std::vector<std::pair<NodeId, std::uint32_t>> incoming(edges_.size());
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint32_t j = first_[u * kGroups]; j < first_[(u + 1) * kGroups];
         ++j) {
      incoming[incoming_at[edges_[j].node]++] = {u, j};
    }
  }
  std::vector<std::uint32_t> entry_to(n);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t begin = first_[v * kGroups];
    const std::uint32_t end = first_[(v + 1) * kGroups];
    for (std::uint32_t k = begin; k < end; ++k) entry_to[edges_[k].node] = k;
    for (std::uint32_t i = begin; i < end; ++i) {
      const auto [u, j] = incoming[i];
      edges_[entry_to[u]].reverse = j;
      assert(edges_[entry_to[u]].node == u &&
             edges_[j].neighbor->rel == topo::reverse(
                                            edges_[entry_to[u]].neighbor->rel));
    }
  }
}

void Propagator::compute(NodeId origin, const UnitPolicy* policy,
                         RouteTable& out) const {
  const RouteSource source{origin, policy, /*rov_invalid=*/false};
  const GaoRexfordEngine engine(graph_);
  std::vector<NodeId> every(graph_.size());
  std::iota(every.begin(), every.end(), NodeId{0});
  compute(std::span<const RouteSource>(&source, 1), engine, every, out);
}

void Propagator::compute(std::span<const RouteSource> sources,
                         const GaoRexfordEngine& engine,
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
                              const GaoRexfordEngine& engine,
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

  auto& seeds = t.seeds_;
  seeds.clear();
  for (std::uint16_t i = 0; i < sources.size(); ++i) {
    const NodeId origin = sources[i].origin;
    if (t.cls[origin] != RouteClass::kNone) continue;  // first source wins
    t.dist[origin] = 0;
    t.cls[origin] = RouteClass::kSelf;
    t.source[origin] = i;
    seeds.push_back(origin);
  }
  for (const PinnedEntry& e : pinned) {
    if (t.cls[e.node] != RouteClass::kNone) continue;  // origins stay kSelf
    t.dist[e.node] = e.dist;
    t.cls[e.node] = e.cls;
    t.parent[e.node] = e.parent;
    t.edge_prepend[e.node] = e.prepend;
    t.source[e.node] = e.source;
    if (e.cls == RouteClass::kSelf || e.cls == RouteClass::kCustomer) {
      seeds.push_back(e.node);
    }
  }

  using Candidate = RouteTable::Candidate;
  auto& buckets = t.buckets_;
  std::uint32_t top = 0;  // highest level holding candidates this phase

  // Offers `to`'s node a candidate route learned from `from`. `leak_edge`
  // bypasses the export rule (valley-violating re-export); the import
  // filter still applies.
  auto relax = [&](NodeId from, const Edge& to, bool leak_edge = false) {
    if (t.cls[to.node] != RouteClass::kNone) return;  // finalized earlier
    const std::uint16_t si = t.source[from];
    const RouteSource& src = sources[si];
    std::uint8_t prepend = 0;
    if (!leak_edge) {
      const bool from_is_origin = t.cls[from] == RouteClass::kSelf;
      if (!engine.allow_export(src, from_is_origin, from, *to.neighbor,
                               prepend)) {
        return;
      }
    }
    if (!engine.allow_import(src, to.node)) return;
    const std::uint32_t d = t.dist[from] + 1 + prepend;
    if (d >= buckets.size()) buckets.resize(d + 1);
    buckets[d].push_back(Candidate{asn_[from], to.node, from, prepend, si});
    top = std::max(top, d);
  };
  auto relax_all = [&](NodeId from, std::span<const Edge> entries) {
    for (const Edge& e : entries) relax(from, e);
  };

  // Drains one phase level by level: each node offered a route at level
  // d takes its lowest-key candidate and `assign_cls`; once the whole
  // level is final, `relax_from` relaxes each winner's edges into the
  // levels above. Returns the number of nodes settled.
  auto drain = [&](RouteClass assign_cls, auto relax_from) {
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
      for (const Candidate& c : level) relax_from(c.node);
      level.clear();
      buckets[d] = std::move(level);  // keeps the capacity for reuse
    }
    top = 0;
    return settled;
  };

  // --- phase 1: customer routes climb provider (and sibling) edges -----
  // From the origins and, in the leak pass, the pinned own- or customer-
  // class chain nodes, finalized before this phase.
  for (const NodeId u : seeds) relax_all(u, edges(u, kProviders, kCustomers));
  // The leaked route reaches the leaker's providers as if customer-
  // learned: it enters selection as customer class at the receivers.
  for (const NodeId leaker : leakers) {
    for (const Edge& e : edges(leaker, kProviders, kSiblings)) {
      relax(leaker, e, /*leak_edge=*/true);
    }
  }
  drain(RouteClass::kCustomer, [&](NodeId c) {
    seeds.push_back(c);
    relax_all(c, edges(c, kProviders, kCustomers));
  });

  // --- phase 2: one peer hop, then sibling spread ------------------------
  for (const NodeId u : seeds) relax_all(u, edges(u, kPeers, kGroups));
  for (const NodeId leaker : leakers) {
    for (const Edge& e : edges(leaker, kPeers, kGroups)) {
      relax(leaker, e, /*leak_edge=*/true);
    }
  }
  drain(RouteClass::kPeer,
        [&](NodeId c) { relax_all(c, edges(c, kSiblings, kCustomers)); });

  // --- phase 3: provider routes descend customer (and sibling) edges ---
  // Only into the upward closure of the still-unrouted targets, walked
  // breadth-first over the edges phase 1 climbs. The routed nodes met on
  // the way border it and seed the phase. Every candidate of a closure
  // node comes over the reverse of one of the edges the walk climbs from
  // it, so the walk records those down-edges and the phase relaxes them
  // alone.
  auto& walk = t.walk_;
  auto& pos = t.walk_pos_;
  auto& down = t.down_;
  walk.clear();
  pos.assign(n, kOffWalk);
  down.clear();
  for (const NodeId target : targets) {
    if (t.cls[target] != RouteClass::kNone || pos[target] != kOffWalk) {
      continue;
    }
    pos[target] = static_cast<std::uint32_t>(walk.size());
    walk.push_back(target);
  }
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const NodeId w = walk[i];
    if (t.cls[w] != RouteClass::kNone) continue;  // border: routed
    for (const Edge& e : edges(w, kProviders, kCustomers)) {
      if (pos[e.node] == kOffWalk) {
        pos[e.node] = static_cast<std::uint32_t>(walk.size());
        walk.push_back(e.node);
      }
      down.emplace_back(pos[e.node], e.reverse);
    }
  }
  // Group the down-edges by upper node (a counting sort that keeps walk
  // order within a group): the group of walk index k is
  // [first[k], first[k + 1]).
  auto& first = t.down_first_;
  auto& grouped = t.down_entries_;
  first.assign(walk.size() + 2, 0);
  for (const auto& [upper, entry] : down) ++first[upper + 2];
  std::partial_sum(first.begin(), first.end(), first.begin());
  grouped.resize(down.size());
  for (const auto& [upper, entry] : down) grouped[first[upper + 1]++] = entry;
  const auto relax_down = [&](NodeId u) {
    const std::uint32_t k = pos[u];
    for (std::uint32_t j = first[k]; j < first[k + 1]; ++j) {
      relax(u, edges_[grouped[j]]);
    }
  };
  for (const NodeId u : walk) {
    if (t.cls[u] != RouteClass::kNone) relax_down(u);
  }
  t.provider_settled_ += drain(RouteClass::kProvider, relax_down);
}

void Propagator::append_path(const RouteTable& t, NodeId node,
                             std::vector<net::Asn>& out) const {
  if (node >= t.cls.size() || t.cls[node] == RouteClass::kNone ||
      t.cls[node] == RouteClass::kSelf) {
    return;
  }
  // dist counts the ASN entries the parent chain contributes.
  const std::size_t at = out.size();
  out.resize(at + t.dist[node]);
  net::Asn* hop = out.data() + at;
  for (NodeId cur = node; t.cls[cur] != RouteClass::kSelf;) {
    const NodeId p = t.parent[cur];
    assert(p != kNoNode);
    hop = std::fill_n(hop, std::size_t{t.edge_prepend[cur]} + 1, asn_[p]);
    cur = p;
  }
  assert(hop == out.data() + out.size());
}

}  // namespace bgpatoms::routing
