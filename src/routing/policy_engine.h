// The routing policy the Propagator applies: Gao-Rexford export with the
// per-unit policy knobs, ROV import filtering and route leaks.
//
// The Propagator's level-by-level drain asks the GaoRexfordEngine about
// every edge it relaxes:
//
//   * allow_export — may AS `from` export this source's route over an
//     edge (valley-free export rule + per-unit policy knobs: restricted
//     announcement, NO_EXPORT, transit rules, prepending),
//   * allow_import — may the receiving AS accept the route (ROV drops
//     invalid announcements at validating ASes here),
//   * leakers — the transits that violate the valley-free export rule
//     (route leak): the Propagator re-runs propagation with each leaker's
//     learned route re-exported to its providers and peers.
//
// Best-path selection itself needs no hook: route class, then path
// length, then the lowest next-hop ASN (routing/propagation.h).
//
// A route computation can have several sources (multi-origin prefixes:
// MOAS, origin hijacks), each with its own origin, unit policy and ROV
// validity; the engine receives the concrete source for every decision.
#pragma once

#include <cstdint>
#include <span>

#include "routing/policy.h"
#include "routing/rov.h"
#include "topo/as_graph.h"

namespace bgpatoms::routing {

/// One origin announcing the destination under computation.
struct RouteSource {
  topo::NodeId origin = topo::kNoNode;
  /// Origination policy; nullptr = default announce-everywhere.
  const UnitPolicy* policy = nullptr;
  /// The (prefix, origin) pair fails ROV where anyone validates.
  bool rov_invalid = false;
};

/// Gao-Rexford export with the per-unit policy knobs, optional ROV
/// dropping at validating ASes, optionally one leaking transit. A source
/// that is not `rov_invalid` passes the import filter everywhere, so with
/// no leaker its routes are plain Gao-Rexford.
class GaoRexfordEngine {
 public:
  explicit GaoRexfordEngine(const topo::AsGraph& graph,
                            const RovState* rov = nullptr,
                            topo::NodeId leaker = topo::kNoNode)
      : graph_(graph), rov_(rov), leaker_(leaker) {}

  /// May `from` (holding `src`'s route; `from_is_origin` when it is the
  /// route's origin itself) export over the edge to `to`? Sets `prepend`
  /// to the number of extra ASN copies the hop adds.
  bool allow_export(const RouteSource& src, bool from_is_origin,
                    topo::NodeId from, const topo::Neighbor& to,
                    std::uint8_t& prepend) const;

  /// May `node` accept `src`'s route at all? Called before the candidate
  /// enters best-path selection.
  bool allow_import(const RouteSource& src, topo::NodeId node) const;

  /// The nodes that re-export learned routes in violation of the
  /// valley-free rule (route leak); empty for a leak-free computation.
  /// Read once per computation, so it costs nothing per node.
  std::span<const topo::NodeId> leakers() const {
    if (leaker_ == topo::kNoNode) return {};
    return {&leaker_, 1};
  }

 private:
  const topo::AsGraph& graph_;
  const RovState* rov_;
  topo::NodeId leaker_;
};

}  // namespace bgpatoms::routing
