// Tests for the parallel longitudinal sweep engine (run_sweep) and the
// QuarterMetrics it extracts.
#include <gtest/gtest.h>

#include <vector>

#include "core/longitudinal.h"
#include "core/parallel.h"

namespace bgpatoms::core {
namespace {

std::vector<CampaignConfig> small_jobs() {
  std::vector<CampaignConfig> jobs;
  for (int q = 0; q < 4; ++q)
    jobs.push_back(quarter_config(net::Family::kIPv4, 2006.0 + 2.0 * q, 0.005,
                                  100 + q));
  return jobs;
}

/// One quarter at reduced scale, run on this thread.
QuarterMetrics one_quarter(double year, double scale, std::uint64_t seed) {
  return quarter_metrics(
      run_campaign(quarter_config(net::Family::kIPv4, year, scale, seed)),
      year);
}

TEST(RunSweep, BitIdenticalAcrossThreadCounts) {
  const auto jobs = small_jobs();
  TaskPool pool1(1), pool2(2), pool8(8);
  const auto one = run_sweep(jobs, pool1);
  const auto two = run_sweep(jobs, pool2);
  const auto eight = run_sweep(jobs, pool8);

  ASSERT_EQ(one.size(), jobs.size());
  // QuarterMetrics operator== is field-exact, so this is bit-identity of
  // every derived statistic, not approximate agreement.
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(RunSweep, MatchesSequentialRunQuarter) {
  const auto jobs = small_jobs();
  TaskPool pool(4);
  const auto metrics = run_sweep(jobs, pool);
  ASSERT_EQ(metrics.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CampaignConfig& c = jobs[i];
    EXPECT_EQ(metrics[i], quarter_metrics(run_campaign(c), c.year))
        << "job " << i;
  }
}

TEST(QuarterMetricsTest, TwentyFourHourStabilityPopulated) {
  // Regression: a quarter's metrics used to drop the 24h window — cam_24h
  // and mpm_24h stayed 0 though the campaign captured the +24h snapshot.
  const QuarterMetrics m = one_quarter(2008.0, 0.008, 2);
  EXPECT_GT(m.cam_24h, 0.0);
  EXPECT_GT(m.mpm_24h, 0.0);
  EXPECT_GE(m.mpm_24h, m.cam_24h);
  // The windows nest: a 24h-stable table can't beat the 8h one.
  EXPECT_LE(m.cam_24h, m.cam_8h);
  EXPECT_GE(m.cam_24h, m.cam_1w);
}

TEST(QuarterMetricsTest, DataQualitySharesPopulated) {
  const QuarterMetrics m = one_quarter(2012.0, 0.008, 3);
  EXPECT_GT(m.peers_in, 0u);
  EXPECT_GE(m.peers_in, m.full_feed_peers);
  EXPECT_GE(m.asset_path_share, 0.0);
  EXPECT_LT(m.asset_path_share, 0.05);
  EXPECT_GE(m.visibility_dropped_share, 0.0);
  EXPECT_LT(m.visibility_dropped_share, 0.5);
}

TEST(RunSweep, EmptyJobListIsNoop) {
  TaskPool pool(2);
  EXPECT_TRUE(run_sweep({}, pool).empty());
}

}  // namespace
}  // namespace bgpatoms::core
