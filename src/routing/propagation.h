// Valley-free (Gao-Rexford) best-path computation under the
// GaoRexfordEngine's per-AS policy (policy_engine.h).
//
// For one destination — a set of RouteSources announcing the same unit
// (usually one origin; several for MOAS prefixes and origin hijacks) —
// computes every AS's best route under the standard model:
//
//   * export: customer-learned routes go to everyone; peer/provider-learned
//     routes go to customers only; sibling edges re-export everything,
//   * selection: customer-learned > peer-learned > provider-learned, then
//     shortest AS path (prepending included), then lowest next-hop ASN.
//
// The computation runs in three phases (customer routes climbing provider
// edges, a single peer-edge step, provider routes descending customer
// edges). Each phase drains candidate routes level by level, one level
// per prepend-weighted hop count: every node offered a route at level d
// keeps the candidate with the lowest next-hop ASN, the whole level is
// finalized, and only then are its edges relaxed into the levels above.
// This is exact: a hop adds 1 + prepend >= 1, so all of a node's level-d
// candidates come from nodes finalized below d, and the winner is the one
// a Dijkstra ordered by (distance, next-hop ASN) would finalize first.
// Every edge decision — export rule, import filter — is the engine's
// (GaoRexfordEngine, policy_engine.h), so restricted announcement,
// NO_EXPORT, transit rules, prepending and
// ROV dropping are applied during relaxation and a policy change produces
// exactly the path changes real BGP would converge to.
//
// Callers name the nodes whose routes they will read (`targets`; the
// simulator's are its vantage points). Phases 1 and 2 run over the whole
// graph; the provider phase runs only over the upward closure of the
// targets still unrouted after them: every node reachable from those
// targets over provider and sibling edges. This is exact at the targets.
// In phase 3 a node is offered routes only by its providers and
// siblings, so every candidate of a closure node comes from another
// closure node or from a routed node bordering the closure; those border
// nodes seed the phase, relaxation stays inside the closure, and the
// level order and selection key are unchanged. A target's parent chain
// runs through settled nodes only. Passing every node as a target gives
// the full table through the same code.
//
// Each phase scans only the entries it can use. The Propagator groups
// every node's neighbor entries by relation once per graph (providers,
// siblings, customers, peers, each in the graph's order), with each
// entry's reverse entry. Phase 1 relaxes provider and sibling ranges.
// Phase 2 relaxes the peer ranges of the origins and phase 1's winners
// (the only nodes holding customer-class or own routes; in the leak pass
// also the pinned ones), then spreads over siblings. Phase 3's upward
// walk visits every provider and sibling edge of each closure node once
// from below; it records the reverse (down) entry of each, grouped by
// the upper node, and the phase relaxes those recorded edges alone. The
// relaxation order differs from a scan of whole neighbor lists, the
// winners do not: at one level, an equal next-hop ASN means the same
// parent, so equal-key candidates are identical.
//
// Route leaks: when one of the engine's leakers is reachable, a
// second pass re-runs propagation with the leaker's learned route
// re-exported to its providers and peers as if customer-learned — the
// classic valley violation. The leaker's own upstream path is pinned from
// the first pass (its ASes would reject the looped announcement), which
// keeps parent chains acyclic.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/aspath.h"
#include "routing/policy.h"
#include "routing/policy_engine.h"
#include "topo/as_graph.h"

namespace bgpatoms::routing {

/// Route class in selection-preference order (lower wins).
enum class RouteClass : std::uint8_t {
  kSelf = 0,      // the origin itself
  kCustomer = 1,  // learned from a customer (or via siblings from one)
  kPeer = 2,      // learned from a peer
  kProvider = 3,  // learned from a provider
  kNone = 255,
};

/// RouteTable::source value for unreachable nodes.
constexpr std::uint16_t kNoSource = UINT16_MAX;

/// Per-node routing outcome of one propagation run. Exact at the run's
/// targets and at every node on their parent chains; every other entry is
/// unspecified (it may read unreachable where the full table holds a
/// provider route).
struct RouteTable {
  std::vector<std::uint32_t> dist;     // AS-path entry count; UINT32_MAX = ∞
  std::vector<RouteClass> cls;
  std::vector<topo::NodeId> parent;    // neighbor the route was learned from
  std::vector<std::uint8_t> edge_prepend;  // extra parent-ASN copies on hop
  /// Index of the winning RouteSource per node (kNoSource = unreachable).
  std::vector<std::uint16_t> source;

  bool reachable(topo::NodeId v) const {
    return cls[v] != RouteClass::kNone;
  }

  /// Nodes the provider phase settled in the last computation (both
  /// passes of a leak).
  std::uint32_t provider_settled() const { return provider_settled_; }

 private:
  friend class Propagator;

  /// A route offered to `node` by its finalized neighbor `parent`.
  struct Candidate {
    net::Asn key;  // parent ASN; lower wins
    topo::NodeId node;
    topo::NodeId parent;
    std::uint8_t prepend;
    std::uint16_t source;
  };

  // Propagation scratch, kept with the table so repeated computations
  // reuse its storage: the candidates of each level, indexed by
  // prepend-weighted distance (all empty between phases), and per node
  // the index of its best candidate in the level being drained.
  std::vector<std::vector<Candidate>> buckets_;
  std::vector<std::uint32_t> best_;
  // The nodes holding own or customer-class routes when phase 2 starts:
  // the origins, the pinned such nodes and phase 1's winners.
  std::vector<topo::NodeId> seeds_;
  // Provider-phase scratch: the closure and border nodes in the order the
  // walk found them, and per node its index in that order (or none); the
  // recorded down-edges as (walk index of the upper node, entry), then
  // their entries grouped by upper node, with each group's start.
  std::vector<topo::NodeId> walk_;
  std::vector<std::uint32_t> walk_pos_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> down_;
  std::vector<std::uint32_t> down_entries_;
  std::vector<std::uint32_t> down_first_;
  std::uint32_t provider_settled_ = 0;
};

class Propagator {
 public:
  /// Groups `graph`'s neighbor entries by relation, keeping pointers to
  /// them. The Propagator must not outlive its graph, and the graph must
  /// not change while a Propagator over it exists.
  explicit Propagator(const topo::AsGraph& graph);

  /// Computes routes toward `sources` (each an origin announcing the unit)
  /// with every edge decision delegated to `engine`, exact at `targets`
  /// and along their parent chains; other entries of `out` are
  /// unspecified. The provider phase covers only the targets' upward
  /// closure, and the engine's leakers are targets of the first pass.
  /// Reuses `out`'s storage, scratch included. Const and state-free:
  /// concurrent calls are safe with distinct `out` tables.
  void compute(std::span<const RouteSource> sources,
               const GaoRexfordEngine& engine,
               std::span<const topo::NodeId> targets, RouteTable& out) const;

  /// One-line form for tests: `origin` as the only source (nullptr =
  /// default announce-everywhere policy) through the default
  /// GaoRexfordEngine, every node a target (the full table).
  void compute(topo::NodeId origin, const UnitPolicy* policy,
               RouteTable& out) const;

  /// Appends the AS path stored in `node`'s RIB for this run to `out`:
  /// wire order, nearest hop first, origin last; the node's own ASN is NOT
  /// included. Appends nothing if unreachable or if `node` is an origin.
  void append_path(const RouteTable& table, topo::NodeId node,
                   std::vector<net::Asn>& out) const;

  /// Hops (ASN entry count) append_path would append.
  std::uint32_t path_length(const RouteTable& table, topo::NodeId node) const {
    return table.dist[node];
  }

  const topo::AsGraph& graph() const { return graph_; }

 private:
  /// One leaked-route entry pinned from the first pass.
  struct PinnedEntry {
    topo::NodeId node;
    std::uint32_t dist;
    RouteClass cls;
    topo::NodeId parent;
    std::uint8_t prepend;
    std::uint16_t source;
  };

  /// The order of a node's entry groups in edges_, chosen so that the
  /// edges of each phase are one range: providers and siblings climb,
  /// siblings and customers descend, peers take the one peer hop.
  enum Group : std::uint32_t {
    kProviders = 0,
    kSiblings = 1,
    kCustomers = 2,
    kPeers = 3,
    kGroups = 4,
  };

  /// One neighbor entry.
  struct Edge {
    topo::NodeId node;      // the neighbor
    std::uint32_t reverse;  // the neighbor's entry for this edge in edges_
    /// The graph's own entry: allow_export identifies the receiving
    /// neighbor by its address (announce_to and prepend_to hold indices
    /// into the origin's neighbor list).
    const topo::Neighbor* neighbor;
  };

  /// `v`'s entries of groups [first, last).
  std::span<const Edge> edges(topo::NodeId v, Group first, Group last) const {
    const std::uint32_t* at = first_.data() + std::size_t{v} * kGroups;
    return {edges_.data() + at[first], edges_.data() + at[last]};
  }

  /// One three-phase propagation, exact at `targets`. `pinned` entries
  /// (leak pass) are finalized up front; `leakers` additionally re-export
  /// to providers and peers.
  void compute_pass(std::span<const RouteSource> sources,
                    const GaoRexfordEngine& engine,
                    std::span<const PinnedEntry> pinned,
                    std::span<const topo::NodeId> leakers,
                    std::span<const topo::NodeId> targets,
                    RouteTable& out) const;

  const topo::AsGraph& graph_;
  /// Every node's entries, grouped by relation, node after node.
  std::vector<Edge> edges_;
  /// Per node and group, the group's first entry in edges_; the entry
  /// after a node's last group starts the next node (n * kGroups + 1).
  std::vector<std::uint32_t> first_;
  /// Per node, its ASN (bucket keys and append_path).
  std::vector<net::Asn> asn_;
};

}  // namespace bgpatoms::routing
