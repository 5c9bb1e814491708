// Backend equivalence for the streaming analysis views (bgp/views.h,
// bgp/archive_view.h): the same campaign analyzed through an in-memory
// DatasetView and through an ArchiveView streaming a BGA file must
// produce bit-identical atoms, stats, stability and update correlation —
// the contract that lets every CLI tool stream archives without a
// correctness tax. Also pins the ArchiveView residency bound:
// one snapshot section plus one 64K update chunk, independent of how many
// snapshots the archive holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "bgp/archive.h"
#include "bgp/archive_format.h"
#include "bgp/archive_view.h"
#include "bgp/views.h"
#include "core/analyze.h"
#include "core/longitudinal.h"
#include "obs/obs.h"
#include "routing/simulator.h"

namespace bgpatoms::core {
namespace {

/// Temp file that deletes itself (tests must not leak archives).
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_curve_eq(const PrFullCurve& a, const PrFullCurve& b) {
  EXPECT_EQ(a.n_all, b.n_all);
  EXPECT_EQ(a.n_any, b.n_any);
  ASSERT_EQ(a.pr.size(), b.pr.size());
  for (std::size_t i = 0; i < a.pr.size(); ++i) {
    // Bit-level: NaN marks "no entity of size k", and NaN != NaN.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.pr[i]),
              std::bit_cast<std::uint64_t>(b.pr[i]))
        << "k=" << i;
  }
}

void expect_correlation_eq(const UpdateCorrelation& a,
                           const UpdateCorrelation& b) {
  EXPECT_EQ(a.updates_seen, b.updates_seen);
  expect_curve_eq(a.atom, b.atom);
  expect_curve_eq(a.as_all, b.as_all);
  expect_curve_eq(a.as_multi, b.as_multi);
  expect_curve_eq(a.as_single, b.as_single);
}

void expect_stability_eq(const StabilityResult& a, const StabilityResult& b) {
  EXPECT_EQ(a.cam, b.cam);
  EXPECT_EQ(a.mpm, b.mpm);
  EXPECT_EQ(a.atoms_t1, b.atoms_t1);
  EXPECT_EQ(a.atoms_matched_exactly, b.atoms_matched_exactly);
  EXPECT_EQ(a.prefixes_t1, b.prefixes_t1);
  EXPECT_EQ(a.prefixes_matched, b.prefixes_matched);
}

void expect_analysis_eq(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.snapshots_seen, b.snapshots_seen);
  EXPECT_EQ(a.reference_index, b.reference_index);
  ASSERT_EQ(a.atom_sets.size(), b.atom_sets.size());
  for (std::size_t i = 0; i < a.atom_sets.size(); ++i) {
    EXPECT_EQ(a.atom_sets[i].atoms, b.atom_sets[i].atoms) << "snapshot " << i;
  }
  ASSERT_EQ(a.sanitized.size(), b.sanitized.size());
  for (std::size_t i = 0; i < a.sanitized.size(); ++i) {
    EXPECT_EQ(a.sanitized[i].timestamp, b.sanitized[i].timestamp);
    EXPECT_EQ(a.sanitized[i].report.full_feed_peers,
              b.sanitized[i].report.full_feed_peers);
  }
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.stability.size(), b.stability.size());
  for (std::size_t i = 0; i < a.stability.size(); ++i) {
    EXPECT_EQ(a.stability[i].index, b.stability[i].index);
    EXPECT_EQ(a.stability[i].timestamp, b.stability[i].timestamp);
    expect_stability_eq(a.stability[i].result, b.stability[i].result);
  }
  ASSERT_EQ(a.correlation.has_value(), b.correlation.has_value());
  if (a.correlation) expect_correlation_eq(*a.correlation, *b.correlation);
  // The incrementally maintained partition follows the same stream on
  // both backends: identical drift, identical work counters.
  ASSERT_EQ(a.live.has_value(), b.live.has_value());
  if (a.live) {
    EXPECT_EQ(a.live->atoms, b.live->atoms);
    expect_stability_eq(a.live->vs_reference, b.live->vs_reference);
    EXPECT_EQ(a.live->counters, b.live->counters);
  }
}

/// One small campaign shared by the equivalence tests: 4 snapshots
/// (0/+8h/+24h/+1w) plus a 4-hour update stream.
const Campaign& campaign() {
  static const Campaign c = [] {
    CampaignConfig config;
    config.year = 2010.0;
    config.scale = 0.01;
    config.seed = 7;
    config.with_updates = true;
    config.with_stability = true;
    return run_campaign(config);
  }();
  return c;
}

AnalysisConfig full_config() {
  AnalysisConfig config;
  config.atoms.threads = 1;
  config.with_stability = true;
  config.with_updates = true;
  // Mirrors run_campaign: campaigns with update capture also maintain the
  // partition incrementally (AnalysisResult::live).
  config.incremental = true;
  config.keep_all = true;
  return config;
}

TEST(ViewEquivalence, ArchiveBackendsMatchInMemoryBitForBit) {
  const bgp::Dataset& ds = campaign().dataset();
  const AnalysisConfig config = full_config();

  bgp::DatasetView mem(ds);
  const AnalysisResult want = analyze(mem, &mem, config);
  ASSERT_TRUE(want.has_reference());
  ASSERT_EQ(want.snapshots_seen, 4u);
  ASSERT_EQ(want.stability.size(), 3u);
  ASSERT_TRUE(want.correlation.has_value());

  TempFile file("views_eq.bga");
  bgp::write_archive_file(ds, file.path());

  bgp::ArchiveView streamed(file.path());
  const AnalysisResult got = analyze(streamed, &streamed, config);
  expect_analysis_eq(want, got);
}

TEST(ViewEquivalence, QuarterMetricsMatchTheCampaignOverload) {
  const Campaign& c = campaign();
  const QuarterMetrics want = quarter_metrics(c, 2010.0);

  TempFile file("views_qm.bga");
  bgp::write_archive_file(c.dataset(), file.path());

  bgp::ArchiveView streamed(file.path());
  const AnalysisResult r = analyze(streamed, &streamed, full_config());
  EXPECT_EQ(want, quarter_metrics(r, 2010.0));
}

TEST(ViewEquivalence, ReferenceOnlyModeKeepsOnlyTheReference) {
  const bgp::Dataset& ds = campaign().dataset();

  AnalysisConfig config = full_config();
  bgp::DatasetView mem(ds);
  const AnalysisResult keep_all = analyze(mem, &mem, config);

  config.keep_all = false;
  TempFile file("views_ref.bga");
  bgp::write_archive_file(ds, file.path());
  bgp::ArchiveView streamed(file.path());
  const AnalysisResult lean = analyze(streamed, &streamed, config);

  // O(1) retention: one snapshot's products, everything else transient.
  EXPECT_EQ(lean.atom_sets.size(), 1u);
  EXPECT_EQ(lean.sanitized.size(), 1u);
  EXPECT_EQ(lean.snapshots_seen, keep_all.snapshots_seen);
  EXPECT_EQ(lean.reference_atoms().atoms, keep_all.reference_atoms().atoms);
  EXPECT_EQ(lean.stats, keep_all.stats);
  ASSERT_EQ(lean.stability.size(), keep_all.stability.size());
  for (std::size_t i = 0; i < lean.stability.size(); ++i) {
    EXPECT_EQ(lean.stability[i].index, keep_all.stability[i].index);
    expect_stability_eq(lean.stability[i].result, keep_all.stability[i].result);
  }
  ASSERT_TRUE(lean.correlation.has_value());
  expect_correlation_eq(*lean.correlation, *keep_all.correlation);
}

TEST(ViewEquivalence, LateReferenceBuffersEarlierSnapshots) {
  const bgp::Dataset& ds = campaign().dataset();

  // Reference snapshot 2: stability entries keep the historical order
  // (1, 2-vs-itself, 3) and match the keep_all computation exactly.
  AnalysisConfig config = full_config();
  config.reference_snapshot = 2;
  bgp::DatasetView mem(ds);
  const AnalysisResult want = analyze(mem, &mem, config);
  ASSERT_EQ(want.reference_index, 2u);
  ASSERT_EQ(want.stability.size(), 3u);
  EXPECT_EQ(want.stability[0].index, 1u);
  EXPECT_EQ(want.stability[1].index, 2u);
  EXPECT_EQ(want.stability[1].result.cam, 1.0);  // reference vs itself
  EXPECT_EQ(want.stability[2].index, 3u);

  config.keep_all = false;
  TempFile file("views_lateref.bga");
  bgp::write_archive_file(ds, file.path());
  bgp::ArchiveView streamed(file.path());
  const AnalysisResult got = analyze(streamed, &streamed, config);

  EXPECT_EQ(got.atom_sets.size(), 1u);
  EXPECT_EQ(got.reference_atoms().atoms, want.reference_atoms().atoms);
  ASSERT_EQ(got.stability.size(), want.stability.size());
  for (std::size_t i = 0; i < got.stability.size(); ++i) {
    EXPECT_EQ(got.stability[i].index, want.stability[i].index);
    expect_stability_eq(got.stability[i].result, want.stability[i].result);
  }
}

TEST(ViewEquivalence, ReferenceBeyondStreamReportsNoReference) {
  const bgp::Dataset& ds = campaign().dataset();
  for (const bool keep_all : {false, true}) {
    AnalysisConfig config;
    config.reference_snapshot = 99;
    config.keep_all = keep_all;
    bgp::DatasetView mem(ds);
    const AnalysisResult r = analyze(mem, nullptr, config);
    EXPECT_FALSE(r.has_reference()) << "keep_all=" << keep_all;
    EXPECT_EQ(r.snapshots_seen, 4u);
  }
}

// --- multi-chunk update streams ---------------------------------------------

/// Synthetic dataset whose update stream spans multiple v2 chunks
/// (> bgp::archive_detail::kUpdatesPerChunk records), exercising chunk-boundary
/// behavior in the streamed correlator.
bgp::Dataset chunked_dataset() {
  bgp::Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00", "rrc01"};
  std::vector<bgp::PathId> paths;
  std::vector<bgp::PrefixId> prefixes;
  for (std::uint32_t i = 0; i < 64; ++i) {
    paths.push_back(ds.paths.intern(
        net::AsPath::sequence({64496 + i % 5, 3356, 15169 + i % 11})));
    prefixes.push_back(ds.prefixes.intern(
        net::Prefix(net::IpAddress::v4(0x0A000000u + (i << 8)), 24)));
  }
  for (int s = 0; s < 2; ++s) {
    bgp::Snapshot snap;
    snap.timestamp = 86400 * s;
    for (std::uint32_t pr = 0; pr < 8; ++pr) {
      bgp::PeerFeed feed;
      feed.peer = {64500 + pr, net::IpAddress::v4(0xC0000000u + pr),
                   static_cast<bgp::CollectorIndex>(pr % 2)};
      for (std::uint32_t i = 0; i < 64; ++i) {
        feed.records.push_back({prefixes[i], paths[(i + pr) % 64], 0,
                                bgp::RecordStatus::kValid});
      }
      snap.peers.push_back(std::move(feed));
    }
    ds.snapshots.push_back(std::move(snap));
  }
  const std::size_t n = bgp::archive_detail::kUpdatesPerChunk + 1000;
  for (std::size_t i = 0; i < n; ++i) {
    bgp::UpdateRecord u;
    u.timestamp = static_cast<bgp::Timestamp>(i / 4);
    u.collector = static_cast<bgp::CollectorIndex>(i % 2);
    u.peer = static_cast<bgp::PeerIndex>(i % 8);
    u.path = paths[i % 64];
    u.announced = {prefixes[i % 64]};
    if (i % 5 == 0) u.withdrawn = {prefixes[(i + 3) % 64]};
    ds.updates.push_back(std::move(u));
  }
  return ds;
}

TEST(ViewEquivalence, MultiChunkUpdateStreamCorrelatesIdentically) {
  const bgp::Dataset ds = chunked_dataset();

  AnalysisConfig config;
  config.sanitize.min_collectors = 1;
  config.atoms.threads = 1;
  config.with_updates = true;
  bgp::DatasetView mem(ds);
  const AnalysisResult want = analyze(mem, &mem, config);
  ASSERT_TRUE(want.correlation.has_value());
  EXPECT_EQ(want.correlation->updates_seen, ds.updates.size());

  TempFile file("views_chunks.bga");
  bgp::write_archive_file(ds, file.path());
  bgp::ArchiveView streamed(file.path());
  const AnalysisResult got = analyze(streamed, &streamed, config);
  ASSERT_TRUE(got.correlation.has_value());
  expect_correlation_eq(*want.correlation, *got.correlation);

  // The streamed residency bound: one snapshot section (peers * records)
  // plus one update chunk, NOT the whole update stream.
  const std::size_t snap_records =
      bgp::Dataset::record_count(ds.snapshots.front());
  EXPECT_LE(streamed.peak_resident_records(),
            snap_records + bgp::archive_detail::kUpdatesPerChunk);
  EXPECT_LT(streamed.peak_resident_records(),
            mem.peak_resident_records());
}

#if BGPATOMS_OBS_ENABLED
TEST(ViewEquivalence, InstrumentedCountersMatchAcrossBackends) {
  // The obs work counters are part of the backend-equivalence contract:
  // an ArchiveView must report exactly the records/snapshots a
  // DatasetView does — a silent double-read or skipped section shifts
  // these even when the analysis products still come out identical.
  const bgp::Dataset& ds = campaign().dataset();
  const AnalysisConfig config = full_config();
  const char* kCounters[] = {"analyze.snapshots_seen", "analyze.records_seen",
                             "analyze.update_records_seen",
                             "analyze.atom_sets_computed"};
  auto& registry = obs::registry();

  registry.reset_values();
  bgp::DatasetView mem(ds);
  analyze(mem, &mem, config);
  std::map<std::string, std::uint64_t> want;
  for (const char* name : kCounters) {
    want[name] = registry.counter(name).value();
  }
  EXPECT_GT(want["analyze.snapshots_seen"], 0u);
  EXPECT_GT(want["analyze.records_seen"], 0u);

  TempFile file("views_counters.bga");
  bgp::write_archive_file(ds, file.path());
  registry.reset_values();
  bgp::ArchiveView streamed(file.path());
  analyze(streamed, &streamed, config);
  for (const char* name : kCounters) {
    EXPECT_EQ(registry.counter(name).value(), want[name]) << name;
  }
}
#endif  // BGPATOMS_OBS_ENABLED

// --- streamed residency -----------------------------------------------------

/// Writes a 2020 x0.01 campaign (seed 42) with `snapshots` captures an
/// hour apart and an hour of updates after the first.
void write_residency_archive(int snapshots, const std::string& path) {
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2020.0, 0.01), 42));
  sim.capture();
  sim.emit_updates(routing::kHour);
  for (int i = 1; i < snapshots; ++i) {
    sim.advance_to((i + 1) * routing::kHour);
    sim.capture();
  }
  bgp::write_archive_file(sim.dataset(), path);
}

struct StreamStats {
  std::size_t snapshots = 0;
  std::size_t largest_snapshot_records = 0;
  std::size_t peak_resident_records = 0;
  std::uint64_t peak_buffer_bytes = 0;
  std::uint64_t file_bytes = 0;
};

/// Drains `path` through an ArchiveView, snapshots then update chunks,
/// and reads its residency counters.
StreamStats stream_archive(const std::string& path) {
  bgp::ArchiveView view(path);
  StreamStats s;
  while (const bgp::Snapshot* snap = view.next_snapshot()) {
    ++s.snapshots;
    s.largest_snapshot_records = std::max(s.largest_snapshot_records,
                                          bgp::Dataset::record_count(*snap));
  }
  while (!view.next_chunk().empty()) {
  }
  s.peak_resident_records = view.peak_resident_records();
  s.peak_buffer_bytes = view.archive().peak_buffer_bytes();
  s.file_bytes = view.archive().file_bytes();
  return s;
}

TEST(ArchiveViewResidency, PeakTracksTheLargestSectionNotTheSnapshotCount) {
  TempFile small("residency_2snap.bga");
  TempFile large("residency_8snap.bga");
  write_residency_archive(2, small.path());
  write_residency_archive(8, large.path());
  const StreamStats s2 = stream_archive(small.path());
  const StreamStats s8 = stream_archive(large.path());

  EXPECT_EQ(s2.snapshots, 2u);
  EXPECT_EQ(s8.snapshots, 8u);
  // At most one snapshot section plus one update chunk is resident.
  const std::size_t chunk = bgp::archive_detail::kUpdatesPerChunk;
  EXPECT_LE(s2.peak_resident_records, s2.largest_snapshot_records + chunk);
  EXPECT_LE(s8.peak_resident_records, s8.largest_snapshot_records + chunk);
  // 4x the snapshot sections may move the peak only by per-section
  // variation (25% slack): residency tracks the largest section, never
  // the section count.
  EXPECT_LE(s8.peak_resident_records * 4, s2.peak_resident_records * 5);
  // The stream buffer holds one framed section, well below the file.
  EXPECT_LT(s8.peak_buffer_bytes * 2, s8.file_bytes);
}

// --- DatasetView basics -----------------------------------------------------

TEST(DatasetView, CursorsWalkOnceAndRewind) {
  const bgp::Dataset& ds = campaign().dataset();
  bgp::DatasetView view(ds);

  std::size_t n = 0;
  while (view.next_snapshot() != nullptr) ++n;
  EXPECT_EQ(n, ds.snapshots.size());
  EXPECT_EQ(view.next_snapshot(), nullptr);

  EXPECT_EQ(view.next_chunk().size(), ds.updates.size());
  EXPECT_TRUE(view.next_chunk().empty());

  view.rewind();
  EXPECT_NE(view.next_snapshot(), nullptr);
  EXPECT_EQ(view.next_chunk().size(), ds.updates.size());
}

}  // namespace
}  // namespace bgpatoms::core
