// Campaign drivers: run one simulated measurement campaign (the paper's
// quarterly procedure, §2.4.1) end to end — topology, routing, capture,
// sanitize, atoms, metrics — and the longitudinal sweeps built on top.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <deque>
#include <vector>

#include "core/analyze.h"
#include "core/atoms.h"
#include "core/formation.h"
#include "core/sanitize.h"
#include "core/stability.h"
#include "core/stats.h"
#include "core/update_corr.h"
#include "routing/simulator.h"

namespace bgpatoms::core {

struct CampaignConfig {
  net::Family family = net::Family::kIPv4;
  double year = 2004.0;
  double scale = 0.05;
  std::uint64_t seed = 1;
  /// Capture a 4-hour update stream after the first snapshot (§2.4.1).
  bool with_updates = false;
  /// Capture +8h / +24h / +1w snapshots and compute stability.
  bool with_stability = false;
  SanitizeConfig sanitize;
  /// Overrides for the collector infrastructure (0 = use era defaults).
  /// The 2002 reproduction (§3.1) pins 1 collector (RRC00) and 13 peers.
  int force_collectors = 0;
  int force_peers = 0;
  double force_full_feed_frac = 0.0;
  /// Scenario engine: scheduled hijacks/leaks + ROV deployment. Default
  /// (all off) leaves the campaign byte-identical to pre-scenario output.
  routing::ScenarioOptions scenario;
};

/// A fully analyzed campaign. Owns the captured data (shared, so derived
/// prefix-pool pointers survive moves) plus the topology ground truth —
/// the simulator that produced them is torn down inside run_campaign()
/// once the capture is taken. Analysis runs through the same
/// view-based analyze() pass the streamed CLI tools use.
struct Campaign {
  topo::EraParams era;
  /// The captured dataset (snapshots + update stream + dictionaries).
  std::shared_ptr<const bgp::Dataset> data;
  /// Capture ground truth: vantage points with their fault-injection
  /// flags (the Table 5 audit), AS graph, prefix plan.
  topo::Topology topology;
  /// Composition events the simulator applied (tests/diagnostics).
  std::size_t events_applied = 0;
  /// Scenario incidents the simulator scheduled (empty with scenarios off).
  std::vector<routing::ScenarioIncident> incidents;
  /// Sanitized view + atoms per captured snapshot (deque: stable addresses).
  std::deque<SanitizedSnapshot> sanitized;
  std::deque<AtomSet> atom_sets;

  GeneralStats stats;  // of the first snapshot
  std::optional<StabilityResult> stability_8h;
  std::optional<StabilityResult> stability_24h;
  std::optional<StabilityResult> stability_1w;
  std::optional<UpdateCorrelation> correlation;
  /// Incrementally maintained partition drift over the captured update
  /// stream (campaigns with with_updates; core::IncrementalAtoms).
  std::optional<LiveUpdateDrift> live;

  const bgp::Dataset& dataset() const { return *data; }
  const AtomSet& atoms() const { return atom_sets.front(); }
};

Campaign run_campaign(const CampaignConfig& config);

/// The era run_campaign simulates: the config's family, year and scale,
/// with its collector overrides applied.
topo::EraParams campaign_era(const CampaignConfig& config);

/// Relative cost of run_campaign(config), read from its era: ASes x
/// collector peer sessions, x 1.6 with the stability captures. Used only
/// to order a batch (core::heaviest_first).
double campaign_cost(const CampaignConfig& config);

/// Compact per-quarter metrics for the trend figures (4, 5, 9, 11, 12, 13)
/// and the data-quality trend.
struct QuarterMetrics {
  double year = 0;
  GeneralStats stats;
  /// Share of atoms formed at distance d (method (iii)), d = 1..5.
  std::array<double, 6> formed_at{};
  /// Same, excluding origins with a single atom (Fig. 4 dashed lines).
  std::array<double, 6> formed_at_multi{};
  double cam_8h = 0, mpm_8h = 0;
  double cam_24h = 0, mpm_24h = 0;
  double cam_1w = 0, mpm_1w = 0;
  /// Reference atoms vs the incrementally maintained partition after the
  /// 4h update stream (0 when the campaign captured no updates).
  double cam_live = 0, mpm_live = 0;
  std::size_t full_feed_peers = 0;
  std::size_t full_feed_threshold = 0;  // max unique prefixes over peers
  std::size_t peers_in = 0;             // peer sessions before sanitization
  /// Data-quality shares of the first snapshot (§2.4.3/§2.4.4): AS_SET
  /// paths per cleaned record, visibility-filtered prefixes per prefix.
  double asset_path_share = 0;
  double visibility_dropped_share = 0;

  friend bool operator==(const QuarterMetrics&,
                         const QuarterMetrics&) = default;
};

/// Extracts the trend metrics from a finished campaign (first snapshot;
/// stability/update fields filled when the campaign captured them).
QuarterMetrics quarter_metrics(const Campaign& campaign, double year);

/// Same from a raw analysis pass (streamed backends): the reference
/// snapshot plays the campaign's first snapshot; the first three
/// stability entries map to the 8h/24h/1w deltas. Bit-identical to the
/// Campaign overload for the same capture.
QuarterMetrics quarter_metrics(const AnalysisResult& analysis, double year);

// --- parallel longitudinal sweeps -----------------------------------------

/// A quarter's campaign as the trend benches run it (§2.4.1 procedure
/// with the stability captures enabled).
CampaignConfig quarter_config(net::Family family, double year, double scale,
                              std::uint64_t seed);

class TaskPool;

/// Runs every campaign (each independent and share-nothing, with its own
/// seed) on the caller's `pool`, heaviest first, and returns their
/// quarter_metrics in `configs` order. Output is bit-identical to running
/// them sequentially, for any thread count.
std::vector<QuarterMetrics> run_sweep(
    const std::vector<CampaignConfig>& configs, TaskPool& pool);

}  // namespace bgpatoms::core
