// Scenario engine: scheduled routing incidents on top of the simulator.
//
// A scenario is a set of bounded-lifetime incidents — origin hijacks,
// sub-prefix hijacks, route leaks — plus ROV deployment (a fixed set of
// validating ASes drawn from the era's adoption curve). The Simulator
// schedules them on a dedicated event queue with a dedicated RNG stream,
// so a campaign with all scenarios disabled is byte-identical to one that
// predates the scenario engine (pinned by tests/test_scenario_compat.cpp).
//
// Incident mechanics (see DESIGN.md "Scenario engine & ROV"):
//   * kOriginHijack — a second origin announces the victim unit's
//     prefixes; propagation runs multi-source and each AS picks whichever
//     origin wins best-path selection. Resolves by withdrawing.
//   * kSubPrefixHijack — the attacker announces a more-specific of one
//     victim prefix (its own single-prefix unit, pre-interned so prefix
//     ids stay stable). Longest-prefix match makes it win wherever it
//     propagates; ROV-invalid wherever the victim holds a ROA.
//   * kRouteLeak — a transit re-exports its learned route for selected
//     units to providers and peers (valley violation), modeled by the
//     Propagator's leak pass.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/records.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "routing/policy.h"
#include "topo/topology.h"

namespace bgpatoms::routing {

/// Earliest incident start (sim-relative seconds) and the window over
/// which starts spread; incidents resolve after roughly
/// kIncidentMeanDuration (0.5x-1.5x), always inside a one-week campaign.
inline constexpr bgp::Timestamp kIncidentFirstStart = 2 * 3600;
inline constexpr bgp::Timestamp kIncidentStartSpread = 4 * 3600;
inline constexpr bgp::Timestamp kIncidentMeanDuration = 30 * 3600;

/// Route leak blast radius: at most this many units re-routed per leak.
inline constexpr std::size_t kLeakUnitsMax = 48;

struct ScenarioOptions {
  /// Number of incidents of each kind scheduled over the campaign.
  int origin_hijacks = 0;
  int subprefix_hijacks = 0;
  int route_leaks = 0;

  /// Enables ROV: per-AS validation and ROAs seeded from the era's
  /// rov_adoption / roa_coverage curves (topo::EraParams).
  bool rov = false;

  bool any_incidents() const {
    return origin_hijacks > 0 || subprefix_hijacks > 0 || route_leaks > 0;
  }
  bool enabled() const { return rov || any_incidents(); }
};

enum class ScenarioKind : std::uint8_t {
  kOriginHijack = 0,
  kSubPrefixHijack = 1,
  kRouteLeak = 2,
};

/// One scheduled incident; the Simulator's incident log entry.
struct ScenarioIncident {
  ScenarioKind kind = ScenarioKind::kOriginHijack;
  bgp::Timestamp start = 0;
  bgp::Timestamp end = 0;
  /// Hijacks: the unit whose prefixes are contested.
  UnitId victim_unit = UINT32_MAX;
  /// Hijacker origin AS or leaking transit.
  topo::NodeId actor = topo::kNoNode;
  /// Sub-prefix hijack: the attacker's pre-created unit.
  UnitId overlay_unit = UINT32_MAX;
  /// Route leak: units re-routed by this leak (filled when applied).
  std::vector<UnitId> affected;
};

/// Deterministically schedules the incidents requested by `opt` against a
/// generated topology + policy set: picks victims (visible multi-prefix
/// units), attackers (edge/content ASes), leakers (transit ASes), start
/// times and bounded lifetimes. Sub-prefix overlay units are created by
/// the Simulator afterwards.
std::vector<ScenarioIncident> schedule_incidents(const topo::Topology& topo,
                                                 const PolicySet& policies,
                                                 const ScenarioOptions& opt,
                                                 Rng& rng);

/// A more-specific of `p`: length + `extra` bits, upper or lower half.
/// nullopt when the result would be longer than the family allows.
std::optional<net::Prefix> make_subprefix(const net::Prefix& p, int extra,
                                          bool upper);

}  // namespace bgpatoms::routing
