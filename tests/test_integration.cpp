// End-to-end integration tests: full campaigns through run_campaign plus
// cross-module pipeline invariants.
#include <gtest/gtest.h>

#include "bgp/archive.h"
#include "core/longitudinal.h"
#include "core/splits.h"

namespace bgpatoms::core {
namespace {

TEST(Integration, SmallV4CampaignEndToEnd) {
  CampaignConfig config;
  config.year = 2012.0;
  config.scale = 0.01;
  config.seed = 3;
  config.with_updates = true;
  config.with_stability = true;
  const Campaign c = run_campaign(config);

  ASSERT_EQ(c.atom_sets.size(), 4u);  // t0, +8h, +24h, +1w
  EXPECT_GT(c.stats.prefixes, 100u);
  EXPECT_GT(c.stats.ases, 20u);
  EXPECT_GE(c.stats.atoms, c.stats.ases / 2);

  ASSERT_TRUE(c.stability_8h.has_value());
  ASSERT_TRUE(c.stability_1w.has_value());
  EXPECT_GT(c.stability_8h->cam, 0.7);
  EXPECT_LE(c.stability_8h->cam, 1.0);
  // Stability can only degrade with the horizon.
  EXPECT_GE(c.stability_8h->cam, c.stability_24h->cam - 0.02);
  EXPECT_GE(c.stability_24h->cam, c.stability_1w->cam - 0.02);
  EXPECT_GE(c.stability_8h->mpm, c.stability_8h->cam);

  ASSERT_TRUE(c.correlation.has_value());
  EXPECT_GT(c.correlation->updates_seen, 0u);
}

TEST(Integration, AtomsPartitionSanitizedPrefixes) {
  CampaignConfig config;
  config.year = 2016.0;
  config.scale = 0.01;
  config.seed = 4;
  const Campaign c = run_campaign(config);
  const auto& atoms = c.atoms();
  const auto& snap = c.sanitized.front();
  std::size_t total = 0;
  for (const auto& atom : atoms.atoms) {
    EXPECT_GT(atom.size(), 0u);
    total += atom.size();
  }
  EXPECT_EQ(total, snap.prefixes.size());
  EXPECT_EQ(atoms.atom_of.size(), snap.prefixes.size());
}

TEST(Integration, AtomPathsAgreeWithVpTables) {
  // Spot-check: the paths recorded per atom match the sanitized tables.
  CampaignConfig config;
  config.year = 2016.0;
  config.scale = 0.01;
  config.seed = 4;
  const Campaign c = run_campaign(config);
  const auto& atoms = c.atoms();
  const auto& snap = c.sanitized.front();
  std::size_t checked = 0;
  for (const auto& atom : atoms.atoms) {
    if (checked >= 50) break;
    for (const auto& [vp, path] : atom.paths) {
      for (bgp::PrefixId p : atom.prefixes) {
        ASSERT_EQ(snap.vps[vp].path_for(p), path);
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Integration, MoasShareStaysBelowPaperBound) {
  CampaignConfig config;
  config.year = 2020.0;
  config.scale = 0.02;
  config.seed = 5;
  const Campaign c = run_campaign(config);
  EXPECT_LT(c.stats.moas_prefix_share, 0.05);  // §2.4.3: "below 5%"
}

TEST(Integration, V6CampaignWithFiti) {
  CampaignConfig config;
  config.family = net::Family::kIPv6;
  config.year = 2022.0;
  config.scale = 0.04;
  config.seed = 6;
  const Campaign c = run_campaign(config);
  EXPECT_GT(c.era.fiti_ases, 0);
  EXPECT_GT(c.stats.atoms, 0u);
  // FITI inflates the single-prefix-AS population.
  EXPECT_GT(c.stats.one_atom_as_share(), 0.4);
}

TEST(Integration, DatasetSurvivesArchiveRoundTrip) {
  CampaignConfig config;
  config.year = 2010.0;
  config.scale = 0.005;
  config.seed = 7;
  config.with_updates = true;
  const Campaign c = run_campaign(config);
  const auto& ds = c.dataset();

  const auto image = bgp::write_archive(ds);
  const bgp::Dataset back = bgp::read_archive(image);

  // Re-running the analysis over the deserialized dataset gives identical
  // atoms.
  const auto snap2 = sanitize(back, 0);
  const auto atoms2 = compute_atoms(snap2);
  EXPECT_EQ(atoms2.atoms.size(), c.atoms().atoms.size());
  const auto stats2 = general_stats(atoms2);
  EXPECT_EQ(stats2.prefixes, c.stats.prefixes);
  EXPECT_EQ(stats2.mean_atom_size, c.stats.mean_atom_size);
}

TEST(Integration, CampaignDeterminism) {
  CampaignConfig config;
  config.year = 2014.0;
  config.scale = 0.01;
  config.seed = 11;
  config.with_stability = true;
  const Campaign a = run_campaign(config);
  const Campaign b = run_campaign(config);
  EXPECT_EQ(a.stats.atoms, b.stats.atoms);
  EXPECT_EQ(a.stats.prefixes, b.stats.prefixes);
  EXPECT_DOUBLE_EQ(a.stability_1w->cam, b.stability_1w->cam);
  EXPECT_DOUBLE_EQ(a.stability_1w->mpm, b.stability_1w->mpm);
}

TEST(Integration, RunQuarterProducesTrendMetrics) {
  const QuarterMetrics m = quarter_metrics(
      run_campaign(quarter_config(net::Family::kIPv4, 2008.0, 0.008, 2)),
      2008.0);
  EXPECT_EQ(m.year, 2008.0);
  double sum = 0;
  for (int d = 1; d <= 5; ++d) sum += m.formed_at[d];
  EXPECT_GT(sum, 0.9);  // nearly all atoms form within distance 5
  EXPECT_GT(m.cam_8h, 0.5);
  EXPECT_GE(m.mpm_8h, m.cam_8h);
  EXPECT_GT(m.full_feed_peers, 0u);
  EXPECT_GT(m.full_feed_threshold, 0u);
}

TEST(Integration, DailySplitPipeline) {
  // Daily-event mode + split detection: the Fig. 6/7 pipeline in miniature.
  routing::SimOptions opt;
  opt.seed = 13;
  opt.weekly_churn = false;
  opt.daily_event_rate = 25.0;
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2019.0, 0.01), 13), opt);

  std::deque<SanitizedSnapshot> snaps;
  std::deque<AtomSet> atom_sets;
  std::size_t total_events = 0;
  for (int day = 0; day < 6; ++day) {
    sim.advance_to(day * routing::kDay);
    sim.capture();
  }
  const auto& ds = sim.dataset();
  for (std::size_t i = 0; i < ds.snapshots.size(); ++i) {
    snaps.push_back(sanitize(ds, i));
    atom_sets.push_back(compute_atoms(snaps.back()));
  }
  for (std::size_t i = 0; i + 2 < atom_sets.size(); ++i) {
    const auto events =
        detect_splits(atom_sets[i], atom_sets[i + 1], atom_sets[i + 2]);
    for (const auto& ev : events) {
      EXPECT_GE(ev.atom_size, 2u);
      total_events += 1;
    }
  }
  EXPECT_GT(total_events, 0u);
}

TEST(Integration, CampaignInfrastructureOverrides) {
  // The 2002 reproduction pins RRC00's 13 full-feed peers (§3.1).
  CampaignConfig config;
  config.year = 2002.04;
  config.scale = 0.01;
  config.seed = 9;
  config.force_collectors = 1;
  config.force_peers = 13;
  config.force_full_feed_frac = 1.0;
  config.sanitize.max_prefix_length = 128;
  config.sanitize.min_collectors = 1;
  config.sanitize.min_peer_ases = 1;
  const Campaign c = run_campaign(config);
  EXPECT_EQ(c.era.n_collectors, 1);
  EXPECT_EQ(c.era.n_peers, 13);
  EXPECT_EQ(c.dataset().collectors.size(), 1u);
  EXPECT_EQ(c.sanitized.front().report.peers_in, 13u);
  EXPECT_EQ(c.sanitized.front().report.full_feed_peers, 13u);
}

TEST(Integration, SanitizerAblationKeepsMorePrefixesWithoutFilters) {
  CampaignConfig config;
  config.year = 2020.0;
  config.scale = 0.01;
  config.seed = 10;
  const Campaign c = run_campaign(config);
  const auto& ds = c.dataset();
  SanitizeConfig no_filters;
  no_filters.filter_prefixes = false;
  no_filters.max_prefix_length = 128;
  const auto relaxed = sanitize(ds, 0, no_filters);
  EXPECT_GE(relaxed.report.prefixes_kept,
            c.sanitized.front().report.prefixes_kept);
}

}  // namespace
}  // namespace bgpatoms::core
