#include "core/longitudinal.h"

#include "core/parallel.h"

namespace bgpatoms::core {

using routing::kDay;
using routing::kHour;
using routing::kWeek;

topo::EraParams campaign_era(const CampaignConfig& config) {
  topo::EraParams era = config.family == net::Family::kIPv4
                            ? topo::era_params_v4(config.year, config.scale)
                            : topo::era_params_v6(config.year, config.scale);
  if (config.force_collectors > 0) era.n_collectors = config.force_collectors;
  if (config.force_peers > 0) era.n_peers = config.force_peers;
  if (config.force_full_feed_frac > 0) {
    era.full_feed_frac = config.force_full_feed_frac;
  }
  return era;
}

double campaign_cost(const CampaignConfig& config) {
  const topo::EraParams era = campaign_era(config);
  return static_cast<double>(era.n_as) * era.n_peers *
         (config.with_stability ? 1.6 : 1.0);
}

Campaign run_campaign(const CampaignConfig& config) {
  Campaign c;
  c.era = campaign_era(config);

  // Capture phase: the simulator lives only long enough to produce the
  // dataset; the campaign keeps the data and the topology ground truth.
  {
    routing::SimOptions opt;
    opt.seed = config.seed;
    opt.weekly_churn = config.with_stability;
    opt.scenario = config.scenario;
    routing::Simulator sim(topo::generate_topology(c.era, config.seed), opt);

    sim.capture();
    if (config.with_updates) sim.emit_updates(4 * kHour);
    if (config.with_stability) {
      sim.advance_to(8 * kHour);
      sim.capture();
      sim.advance_to(kDay);
      sim.capture();
      sim.advance_to(kWeek);
      sim.capture();
    }

    c.events_applied = sim.events_applied();
    c.incidents = sim.incidents();
    c.topology = sim.take_topology();
    c.data = std::make_shared<bgp::Dataset>(sim.take_dataset());
  }

  // Analysis phase: the same view-driven pass the streamed CLI runs.
  bgp::DatasetView view(*c.data);
  AnalysisConfig ac;
  ac.sanitize = config.sanitize;
  // Campaigns run under run_sweep() are already parallel at the job
  // level; keep the per-snapshot grouping serial.
  ac.atoms.threads = 1;
  ac.with_stability = config.with_stability;
  ac.with_updates = config.with_updates;
  // Campaigns with an update stream follow it through the maintained
  // partition too: O(changes) bookkeeping on top of the correlation
  // drain, surfacing the live-drift metrics (QuarterMetrics::cam_live).
  ac.incremental = config.with_updates;
  ac.keep_all = true;
  AnalysisResult r = analyze(view, &view, ac);

  c.sanitized = std::move(r.sanitized);
  c.atom_sets = std::move(r.atom_sets);
  c.stats = r.stats;
  if (config.with_stability && r.stability.size() >= 3) {
    c.stability_8h = r.stability[0].result;
    c.stability_24h = r.stability[1].result;
    c.stability_1w = r.stability[2].result;
  }
  c.correlation = std::move(r.correlation);
  c.live = r.live;
  return c;
}

namespace {

/// The shared extraction both quarter_metrics overloads feed: reference
/// stats/atoms/report plus the three optional stability deltas.
QuarterMetrics make_quarter_metrics(
    double year, const GeneralStats& stats, const AtomSet& atoms,
    const SanitizedSnapshot& reference,
    const StabilityResult* s8h, const StabilityResult* s24h,
    const StabilityResult* s1w, const LiveUpdateDrift* live) {
  QuarterMetrics m;
  m.year = year;
  m.stats = stats;
  const FormationResult formation = formation_distance(atoms);
  for (int d = 1; d <= 5; ++d) {
    m.formed_at[d] = formation.share_at(d);
    m.formed_at_multi[d] = formation.share_at_multi(d);
  }
  if (s8h) {
    m.cam_8h = s8h->cam;
    m.mpm_8h = s8h->mpm;
  }
  if (s24h) {
    m.cam_24h = s24h->cam;
    m.mpm_24h = s24h->mpm;
  }
  if (s1w) {
    m.cam_1w = s1w->cam;
    m.mpm_1w = s1w->mpm;
  }
  if (live) {
    m.cam_live = live->vs_reference.cam;
    m.mpm_live = live->vs_reference.mpm;
  }
  const auto& report = reference.report;
  m.full_feed_peers = report.full_feed_peers;
  m.full_feed_threshold = report.max_unique_prefixes;
  m.peers_in = report.peers_in;

  std::size_t records = 0;
  for (const auto& vp : reference.vps) records += vp.routes.size();
  m.asset_path_share =
      records ? static_cast<double>(report.asset_paths_expanded +
                                    report.records_dropped_asset) /
                    static_cast<double>(records)
              : 0.0;
  m.visibility_dropped_share =
      report.prefixes_in
          ? static_cast<double>(report.prefixes_dropped_visibility) /
                static_cast<double>(report.prefixes_in)
          : 0.0;
  return m;
}

}  // namespace

QuarterMetrics quarter_metrics(const Campaign& c, double year) {
  return make_quarter_metrics(
      year, c.stats, c.atoms(), c.sanitized.front(),
      c.stability_8h ? &*c.stability_8h : nullptr,
      c.stability_24h ? &*c.stability_24h : nullptr,
      c.stability_1w ? &*c.stability_1w : nullptr,
      c.live ? &*c.live : nullptr);
}

QuarterMetrics quarter_metrics(const AnalysisResult& r, double year) {
  const bool deltas = r.stability.size() >= 3;
  return make_quarter_metrics(
      year, r.stats, r.reference_atoms(), r.reference(),
      deltas ? &r.stability[0].result : nullptr,
      deltas ? &r.stability[1].result : nullptr,
      deltas ? &r.stability[2].result : nullptr,
      r.live ? &*r.live : nullptr);
}

CampaignConfig quarter_config(net::Family family, double year, double scale,
                              std::uint64_t seed) {
  CampaignConfig config;
  config.family = family;
  config.year = year;
  config.scale = scale;
  config.seed = seed;
  config.with_stability = true;
  return config;
}

std::vector<QuarterMetrics> run_sweep(
    const std::vector<CampaignConfig>& configs, TaskPool& pool) {
  std::vector<QuarterMetrics> out(configs.size());
  std::vector<double> cost(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    cost[i] = campaign_cost(configs[i]);
  }
  const std::vector<std::size_t> order = heaviest_first(cost);
  pool.run(configs.size(), [&](std::size_t k) {
    const CampaignConfig& config = configs[order[k]];
    out[order[k]] = quarter_metrics(run_campaign(config), config.year);
  });
  return out;
}

}  // namespace bgpatoms::core
