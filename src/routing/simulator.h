// BGP measurement-campaign simulator.
//
// Owns a topology + policy set, evolves routing policy over simulated time
// (unit splits/merges driving atom churn), and materializes what the
// collector infrastructure would record: RIB snapshots per peer (with the
// fault injection of Appendix A8.3 — ADD-PATH garbage, a private-ASN
// injector, duplicate emitters, partial feeds) and UPDATE streams packed
// under the BGP message-size limit.
//
// Typical campaign (mirrors the paper's §2.4.1):
//
//   Simulator sim(generate_topology(era, seed), opts);
//   sim.capture();                       // RIB at t0
//   sim.emit_updates(4 * kHour);         // updates for 4h after t0
//   sim.advance_to(8 * kHour);  sim.capture();
//   sim.advance_to(24 * kHour); sim.capture();
//   sim.advance_to(7 * kDay);   sim.capture();
//   // sim.dataset() now holds 4 snapshots + the update stream.
//
// Routes are read only at the vantage points, so every propagation names
// the VP nodes as its targets and the provider phase settles only their
// upward closure (routing/propagation.h). A refresh re-propagates only the
// units whose routing inputs changed: a split parent or merge survivor
// keeps its routes. capture() builds each VP's records directly in
// ascending prefix id, from a per-capture "unit -> path at each VP" table
// and "prefix -> covering units" index; a MOAS prefix keeps the route
// with the shortest selection length, then the lowest path id, then the
// lowest unit id.
//
// A Simulator is fully self-contained: it owns its topology, policies,
// RNG, caches and dataset, and touches no global mutable state. Distinct
// instances may therefore run on concurrent threads (the share-nothing
// property core::run_sweep relies on); a single instance is not
// thread-safe.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "bgp/dataset.h"
#include "net/rng.h"
#include "routing/policy.h"
#include "routing/propagation.h"
#include "routing/rov.h"
#include "routing/scenario.h"
#include "topo/topology.h"

namespace bgpatoms::routing {

constexpr bgp::Timestamp kMinute = 60;
constexpr bgp::Timestamp kHour = 3600;
constexpr bgp::Timestamp kDay = 24 * kHour;
constexpr bgp::Timestamp kWeek = 7 * kDay;

struct SimOptions {
  std::uint64_t seed = 1;
  /// Schedule per-unit composition breaks over the first week from the
  /// era's churn_8h/churn_24h/churn_1w anchors (stability experiments).
  bool weekly_churn = true;
  /// Ongoing split/merge events per day beyond the weekly schedule
  /// (<=0 uses 0; the daily-split experiments set this from the era).
  double daily_event_rate = 0.0;
  /// Scenario engine: scheduled hijacks/leaks plus ROV deployment. The
  /// default (everything off) is byte-identical to a simulator without
  /// the scenario engine; scenario randomness runs on a dedicated RNG
  /// stream so enabling it never perturbs the churn schedule.
  ScenarioOptions scenario;
};

class Simulator {
 public:
  Simulator(topo::Topology topo, SimOptions opt = {});

  const topo::Topology& topology() const { return topo_; }
  const PolicySet& policies() const { return policies_; }
  bgp::Dataset& dataset() { return ds_; }
  const bgp::Dataset& dataset() const { return ds_; }
  bgp::Timestamp now() const { return now_; }

  /// Applies all scheduled composition events with time <= t (sim-relative
  /// seconds) and moves the clock. Time can only move forward.
  void advance_to(bgp::Timestamp t);

  /// Captures all peers' RIBs at the current clock into the dataset.
  /// Returns the snapshot index.
  std::size_t capture();

  /// Appends an update stream covering [now, now+duration) to the dataset:
  /// whole-unit path events, sub-unit partial announcements, withdraw/
  /// re-announce cycles and single-prefix flap noise. Does not move the
  /// composition clock.
  void emit_updates(bgp::Timestamp duration);

  /// Drops snapshot `index` from the dataset (rolling-window campaigns).
  void drop_snapshot(std::size_t index);

  /// Number of composition events applied so far (tests/diagnostics).
  std::size_t events_applied() const { return events_applied_; }

  /// Route propagations run so far, one per group of dirty units sharing
  /// an origin, policy and scenario state (tests/diagnostics).
  std::size_t propagations() const { return propagations_; }

  /// Scheduled scenario incidents (empty unless SimOptions::scenario asks
  /// for any). Route-leak `affected` lists fill in when the leak starts.
  const std::vector<ScenarioIncident>& incidents() const { return incidents_; }

  /// ROV deployment state (default — nobody validates — unless
  /// SimOptions::scenario.rov is set).
  const RovState& rov() const { return rov_; }

  /// True while `u` is a not-yet-started (or already resolved) scenario
  /// overlay unit: excluded from captures and update emission.
  bool unit_suppressed(UnitId u) const {
    return u < unit_suppressed_.size() && unit_suppressed_[u] != 0;
  }

  /// Moves the captured dataset out of the simulator — the campaign layer
  /// keeps only the data, not the machinery that produced it. The
  /// simulator must not be used after.
  bgp::Dataset take_dataset() { return std::move(ds_); }

  /// Moves the topology (the capture's ground truth: vantage points,
  /// fault-injection flags) out. The simulator must not be used after.
  topo::Topology take_topology() { return std::move(topo_); }

 private:
  enum class EventKind : std::uint8_t { kSplitGlobal, kSplitVpLocal, kMerge };
  struct Event {
    bgp::Timestamp time = 0;
    EventKind kind = EventKind::kSplitGlobal;
    UnitId unit = 0;
  };

  /// Current recorded path per (unit, vantage point): the VP's ASN followed
  /// by its RIB path. Indexed by unit id; entries sorted by vp index.
  struct VpPath {
    std::uint16_t vp;
    bgp::PathId path;

    friend bool operator==(const VpPath&, const VpPath&) = default;
  };

  /// One edge of a scenario incident's lifetime on the scenario queue.
  struct ScenarioTransition {
    bgp::Timestamp time = 0;
    std::uint32_t incident = 0;  // index into incidents_
    bool starts = true;
  };

  void schedule_weekly_churn();
  void extend_daily_schedule(bgp::Timestamp until);
  void apply_event(const Event& e);
  void split_unit(UnitId u, bool vp_local);
  void merge_unit(UnitId u);
  void mutate_policy_globally(UnitPolicy& pol, topo::NodeId origin);

  /// Recomputes VP paths for all dirty units.
  void refresh_unit_paths();
  void compute_unit_group(topo::NodeId origin,
                          const std::vector<UnitId>& group);
  /// Interns path_buf_, with its tail folded into an AS_SET under a
  /// nonzero `as_set_mode` (1: the origin, 2: the last two hops).
  bgp::PathId intern_vp_path(std::uint8_t as_set_mode);
  std::uint32_t path_selection_length(bgp::PathId id);
  void inject_faults(std::uint16_t vp_index,
                     std::vector<bgp::RibRecord>& rib);
  std::vector<OriginUnit> policy_clusters() const;
  bgp::PathId inject_private_asn(bgp::PathId id);
  net::IpAddress peer_address(std::uint16_t vp_index) const;
  void emit_unit_event(std::vector<bgp::UpdateRecord>& out,
                       const OriginUnit& unit, const VpPath& entry,
                       bgp::CommunitySetId comms, bgp::Timestamp t,
                       double frag_prob, bool withdraw_first);

  // --- scenario engine ---
  void init_scenarios();
  void seed_rov();
  bool create_overlay_unit(ScenarioIncident& inc,
                           std::unordered_map<net::Prefix, char,
                                              net::PrefixHash>& existing);
  /// Applies (or, with `invert`, exactly reverts) one incident-lifetime
  /// edge; returns the units whose routes it touches, already marked
  /// dirty. Consumes no RNG, so emit_updates can preview transitions.
  std::vector<UnitId> apply_transition(const ScenarioTransition& tr,
                                       bool invert);
  std::vector<UnitId> leak_affected_units(topo::NodeId leaker) const;
  /// Scenario state a unit's route computation depends on; units merge
  /// into one propagation group only when their keys match (always 0
  /// with scenarios off).
  std::uint64_t scenario_unit_key(UnitId u) const;
  void emit_scenario_bursts(std::vector<bgp::UpdateRecord>& out,
                            bgp::Timestamp duration);
  void diff_unit_updates(std::vector<bgp::UpdateRecord>& out, UnitId u,
                         const std::vector<VpPath>& before,
                         bgp::Timestamp t);

  topo::Topology topo_;
  SimOptions opt_;
  PolicySet policies_;
  Propagator propagator_;
  Rng rng_;
  bgp::Dataset ds_;
  bgp::Timestamp now_ = 0;

  std::vector<std::vector<VpPath>> unit_paths_;
  /// Per unit, what the next refresh does with it. A split parent or a
  /// merge survivor keeps its origin, policy and scenario state, so its
  /// routes still hold: kKeepRoutes, not kStale, and no propagation. It
  /// still takes its place in refresh_unit_paths' order (an unstable sort
  /// by origin), which fixes the order new paths are interned in, so no
  /// path id moves.
  static constexpr char kClean = 0, kStale = 1, kKeepRoutes = 2;
  std::vector<char> unit_dirty_;
  /// Owning unit per global prefix id (moves on splits/merges).
  std::vector<UnitId> prefix_unit_;
  std::uint16_t flappy_vp_ = 0;   // dominant split-observing peer (Fig. 7)
  std::uint16_t flappy_vp2_ = 0;  // runner-up
  /// Vantage points at stub/content ASes (local changes stay local).
  std::vector<std::uint16_t> edge_vps_;

  std::deque<Event> schedule_;  // sorted by time
  bgp::Timestamp scheduled_until_ = 0;
  std::vector<std::pair<UnitId, UnitId>> split_history_;
  std::size_t events_applied_ = 0;
  std::size_t propagations_ = 0;

  // --- scenario state (inert unless opt_.scenario asks for anything) ---
  Rng scenario_rng_;  // dedicated stream; rng_ never sees scenario draws
  RovState rov_;
  bool rov_active_ = false;
  std::vector<ScenarioIncident> incidents_;
  std::deque<ScenarioTransition> scenario_schedule_;  // sorted by time
  std::vector<char> unit_suppressed_;
  /// Unit's prefixes are ROA-covered (a hijack of them is ROV-invalid).
  std::vector<char> unit_roa_covered_;
  /// The unit's own announcement fails ROV (stale/misconfigured ROA for
  /// real units; covered-victim more-specifics for overlay units).
  std::vector<char> unit_rov_invalid_;
  std::unordered_map<UnitId, topo::NodeId> hijack_origin_;  // active hijacks
  std::unordered_map<UnitId, topo::NodeId> unit_leaker_;    // active leaks

  // caches / scratch
  /// Node of each vantage point, by VP index: every propagation's targets.
  std::vector<topo::NodeId> vp_nodes_;
  /// Exact at vp_nodes_ and their parent chains only.
  RouteTable scratch_table_;
  std::vector<net::Asn> path_buf_;  // one VP path: peer ASN, then RIB path
  std::vector<std::uint32_t> path_len_cache_;
  std::unordered_map<bgp::PathId, bgp::PathId> private_asn_cache_;
};

}  // namespace bgpatoms::routing
