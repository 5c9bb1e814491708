// Shared helpers for the experiment definitions (the former
// bench/bench_util.h formatting helpers plus the §3.1 repro-2002
// configuration, folded into the report layer).
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/longitudinal.h"
#include "report/experiment.h"

namespace bgpatoms::bench {

using report::Check;
using report::Context;
using report::Experiment;
using report::Registry;
using report::Table;

inline std::string pct(double v, int decimals = 1) {
  if (std::isnan(v)) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, 100.0 * v);
  return buf;
}

inline std::string num(double v, int decimals = 2) {
  if (std::isnan(v)) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

inline std::string fmt(const char* format, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// "a% -> b%" observed-trend text used by several trend checks.
inline std::string arrow_pct(double from, double to, int decimals = 0) {
  return pct(from, decimals) + " -> " + pct(to, decimals);
}

/// Stability quarters with fewer atoms than this are sample-size
/// artifacts (a handful of atoms make CAM quantized and noisy at smoke
/// scales, see EXPERIMENTS.md); trend checks skip them.
constexpr std::size_t kMinAtomsForStabilityCheck = 200;

/// Pr_full(k) buckets backed by fewer updates than this are too noisy to
/// assert shapes on at smoke scales.
constexpr std::size_t kMinUpdatesForCurveCheck = 40;

/// The formation-distance tail (d>=3) compresses with graph size: the
/// paper's +4pp rise only resolves once the 2024 campaign produces this
/// many atoms (full scale yields ~13k; smoke scales a fifth of that).
/// Below the floor, trend checks assert the tail holds near flat instead.
constexpr std::size_t kMinAtomsForDistanceTrendCheck = 5000;

/// The §4 campaigns of Jan 2004 and Oct 2024 (paper seed 42) at base
/// scales `scale04` and `scale24`, with `config`'s capture options.
/// table1, table2 and fig02 plan the identical pair, so a run builds it
/// once.
inline std::vector<core::CampaignConfig> pair_2004_2024(
    const Context& ctx, double scale04, double scale24,
    core::CampaignConfig config = {}) {
  config.seed = ctx.seed(42);
  config.year = 2004.0;
  config.scale = ctx.scale(scale04);
  core::CampaignConfig c2024 = config;
  c2024.year = 2024.75;
  c2024.scale = ctx.scale(scale24);
  return {config, c2024};
}

/// The §3 reproduction input: snapshot of 2002-01-15 08:00 UTC, RIS
/// collector RRC00 only, 13 full-feed peers, no prefix-length filtering
/// (§3.1.4). fig01, fig14 and repro2002 plan it verbatim, so a run builds
/// that snapshot once.
inline core::CampaignConfig repro_2002_config(const Context& ctx) {
  core::CampaignConfig config;
  config.year = 2002.04;  // mid-January 2002
  config.scale = ctx.scale(0.08);
  config.seed = ctx.seed(2002);
  config.force_collectors = 1;  // RRC00 was the only global-scope collector
  config.force_peers = 13;      // its 13 full-feed peers
  config.force_full_feed_frac = 1.0;
  config.sanitize.max_prefix_length = 128;  // "include all prefixes"
  // With 13 peers on one collector, the longitudinal visibility thresholds
  // would be anachronistic; Afek et al. considered all prefixes.
  config.sanitize.min_collectors = 1;
  config.sanitize.min_peer_ases = 1;
  return config;
}

/// Plan of an experiment whose one campaign is repro_2002_config.
inline std::vector<core::CampaignConfig> repro_2002_plan(const Context& ctx) {
  return {repro_2002_config(ctx)};
}

/// The §A8.2 biennial grid (2004, 2006, ..., 2024): one campaign per
/// year at `scale`, seeded `seed_base + year` — the full-feed-threshold
/// trend fig12/fig13/table_vp_value/extra_quality all walk. Distinct seed
/// bases keep the experiments' campaigns independent while staying
/// reproducible.
inline std::vector<core::CampaignConfig> full_feed_trend_jobs(
    const Context& ctx, double scale, int seed_base) {
  std::vector<core::CampaignConfig> configs;
  for (double year = 2004.0; year <= 2024.76; year += 2.0) {
    core::CampaignConfig config;
    config.year = year;
    config.scale = scale;
    config.seed = ctx.seed(seed_base + static_cast<int>(year));
    configs.push_back(config);
  }
  return configs;
}

}  // namespace bgpatoms::bench
