// core::IncrementalAtoms: the maintained partition must be bit-identical
// to a full compute_atoms() recompute over the maintained tables at every
// chunk boundary, for any chunking of the update stream and any thread
// count, and the atoms.incr.* work counters must depend only on the
// record sequence and the flush schedule — never on chunking or threads.
// Also pins the analyze() wiring (AnalysisConfig::incremental), the
// bga_atoms --trend batch error-handling contract (cli/trend.h), and the
// DatasetView configurable chunk size the matrix here relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/io.h"
#include "bgp/views.h"
#include "cli/trend.h"
#include "core/analyze.h"
#include "core/incremental.h"
#include "core/longitudinal.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

/// The maintained partition vs the recompute oracle: materialized atoms,
/// indexes and fingerprint must match compute_atoms() over the rebuilt
/// tables at thread counts {1, 2, 8}. (Atom::paths ids agree because the
/// rebuilt snapshot carries the same evolving pool the live set snapshots.)
void expect_matches_recompute(IncrementalAtoms& inc) {
  const AtomSet live = inc.atoms();
  const std::uint64_t live_fp = partition_fingerprint(live);
  const SanitizedSnapshot rebuilt = inc.rebuild_snapshot();
  for (int threads : {1, 2, 8}) {
    AtomOptions opt;
    opt.threads = threads;
    const AtomSet full = compute_atoms(rebuilt, opt);
    ASSERT_EQ(live.atoms.size(), full.atoms.size());
    EXPECT_EQ(live.atoms, full.atoms);
    EXPECT_EQ(live.atom_of, full.atom_of);
    EXPECT_EQ(live.atoms_by_origin, full.atoms_by_origin);
    EXPECT_EQ(live_fp, partition_fingerprint(full));
  }
}

/// The recompute oracle's partition digest at one boundary.
std::uint64_t recompute_fingerprint(const IncrementalAtoms& inc) {
  const SanitizedSnapshot rebuilt = inc.rebuild_snapshot();
  return partition_fingerprint(compute_atoms(rebuilt));
}

/// Three peers, four prefixes, two of them signature-identical (one
/// seed atom of size 2), plus an update tail exercising announce /
/// withdraw / re-announce / new-path / unknown-prefix records.
DatasetBuilder churn_dataset() {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2")
      .route("10.3.0.0/16", "100 3 1");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2")
      .route("10.3.0.0/16", "200 3 1");
  b.peer(300)
      .route("10.0.0.0/16", "300 1")
      .route("10.1.0.0/16", "300 1")
      .route("10.2.0.0/16", "300 2")
      .route("10.3.0.0/16", "300 1");
  // Split the {10.0, 10.1} atom, churn 10.2, withdraw 10.3 at one VP,
  // re-announce, touch a prefix the snapshot never carried (ignored),
  // then remerge the split pair.
  b.update(10, 0, "100 9 1", {"10.0.0.0/16"});
  b.update(20, 1, "200 2 2", {"10.2.0.0/16"});
  b.update(30, 2, "", {}, {"10.3.0.0/16"});
  b.update(40, 0, "100 5", {"10.9.0.0/16"});  // not in the snapshot
  b.update(50, 2, "300 4 1", {"10.3.0.0/16"});
  b.update(60, 1, "200 1", {"10.1.0.0/16"}, {"10.1.0.0/16"});
  b.update(70, 0, "100 1", {"10.0.0.0/16"});
  b.update(80, 2, "300 2", {"10.2.0.0/16"});
  b.update(90, 1, "200 3 1", {"10.3.0.0/16"});
  return b;
}

TEST(IncrementalAtoms, SeedMatchesBatchKernels) {
  DatasetBuilder b = churn_dataset();
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  IncrementalAtoms inc(snap, b.dataset().paths);
  EXPECT_EQ(inc.num_prefixes(), snap.prefixes.size());
  EXPECT_EQ(inc.num_vps(), snap.vps.size());
  expect_matches_recompute(inc);
  // Seeding does no update work.
  EXPECT_EQ(inc.counters().records, 0u);
  EXPECT_EQ(inc.counters().cell_writes, 0u);
  EXPECT_EQ(inc.counters().splits, 0u);
  EXPECT_EQ(inc.counters().merges, 0u);
  // And the seed partition digests equal to the batch one.
  const AtomSet batch = compute_atoms(snap);
  EXPECT_EQ(partition_fingerprint(inc.atoms()), partition_fingerprint(batch));
}

TEST(IncrementalAtoms, BitIdenticalAtEveryBoundaryForAnyChunking) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();
  const auto snap = sanitize(ds, 0, test::lax_config());

  std::vector<std::uint64_t> final_fp;
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{65536}, std::size_t{0}}) {
    bgp::DatasetView view(ds);
    view.set_chunk_size(chunk);
    IncrementalAtoms inc(snap, ds.paths);
    for (auto span = view.next_chunk(); !span.empty();
         span = view.next_chunk()) {
      inc.apply(span);
      // Every chunk boundary is a snapshot boundary: the maintained
      // partition must equal a full recompute right here.
      EXPECT_EQ(partition_fingerprint(inc.atoms()),
                recompute_fingerprint(inc))
          << "chunk size " << chunk;
    }
    EXPECT_EQ(inc.counters().records, ds.updates.size());
    expect_matches_recompute(inc);
    final_fp.push_back(partition_fingerprint(inc.atoms()));
  }
  for (const std::uint64_t fp : final_fp) EXPECT_EQ(fp, final_fp.front());
}

TEST(IncrementalAtoms, CountersIndependentOfChunkingAndThreads) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();
  const auto snap = sanitize(ds, 0, test::lax_config());

  // Same flush schedule everywhere (flush once, at the end): every
  // counter must be bit-equal across chunkings and thread counts.
  std::vector<IncrementalAtoms::Counters> all;
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{5}, std::size_t{0}}) {
    for (int threads : {1, 2, 8}) {
      AtomOptions opt;
      opt.threads = threads;
      bgp::DatasetView view(ds);
      view.set_chunk_size(chunk);
      IncrementalAtoms inc(snap, ds.paths, opt);
      inc.consume(view);
      (void)partition_fingerprint(inc.atoms());  // the one flush
      all.push_back(inc.counters());
    }
  }
  for (const auto& c : all) {
    EXPECT_EQ(c, all.front());
  }
  EXPECT_EQ(all.front().records, ds.updates.size());
  EXPECT_EQ(all.front().flushes, 1u);
  EXPECT_GT(all.front().cell_writes, 0u);
  EXPECT_GT(all.front().dirty_rows, 0u);
}

TEST(IncrementalAtoms, SplitThenRemerge) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1").route("10.1.0.0/16", "200 1");
  const auto& ds = b.dataset();
  const auto snap = sanitize(ds, 0, test::lax_config());
  IncrementalAtoms inc(snap, ds.paths);
  const std::uint64_t seed_fp = partition_fingerprint(inc.atoms());
  ASSERT_EQ(inc.atoms().atoms.size(), 1u);  // {10.0, 10.1} share signatures

  // Re-route 10.0.0.0/16 at peer 100: the size-2 class splits.
  bgp::UpdateRecord split;
  split.timestamp = 10;
  split.peer = 0;
  split.collector = 0;
  split.path = b.dataset().paths.intern(*net::AsPath::parse("100 2 1"));
  split.announced.push_back(
      b.dataset().prefixes.intern(*net::Prefix::parse("10.0.0.0/16")));
  inc.apply(std::span<const bgp::UpdateRecord>(&split, 1));
  EXPECT_NE(partition_fingerprint(inc.atoms()), seed_fp);
  EXPECT_EQ(inc.atoms().atoms.size(), 2u);
  EXPECT_EQ(inc.counters().splits, 1u);
  EXPECT_EQ(inc.counters().merges, 0u);
  expect_matches_recompute(inc);

  // Restore the original path: the classes remerge, and the partition
  // digests identical to the seed again.
  bgp::UpdateRecord restore = split;
  restore.timestamp = 20;
  restore.path = b.dataset().paths.intern(*net::AsPath::parse("100 1"));
  inc.apply(std::span<const bgp::UpdateRecord>(&restore, 1));
  EXPECT_EQ(partition_fingerprint(inc.atoms()), seed_fp);
  EXPECT_EQ(inc.atoms().atoms.size(), 1u);
  EXPECT_EQ(inc.counters().merges, 1u);
  expect_matches_recompute(inc);
}

TEST(IncrementalAtoms, WithdrawAndReannounceInOneRecordNetsToAnnouncement) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1").route("10.1.0.0/16", "200 1");
  // One record both withdraws and announces 10.1.0.0/16 with its current
  // path (update 60 in churn_dataset does the same at scale): RIB
  // semantics say the announcement wins, so the partition is unchanged.
  b.update(10, 1, "200 1", {"10.1.0.0/16"}, {"10.1.0.0/16"});
  // And one where the re-announce carries a new path: the new path wins
  // (not the withdrawal, not the old value).
  b.update(20, 0, "100 7 1", {"10.0.0.0/16"}, {"10.0.0.0/16"});
  const auto& ds = b.dataset();
  const auto snap = sanitize(ds, 0, test::lax_config());

  IncrementalAtoms inc(snap, ds.paths);
  const std::uint64_t seed_fp = partition_fingerprint(inc.atoms());
  inc.apply(std::span<const bgp::UpdateRecord>(ds.updates.data(), 1));
  EXPECT_EQ(partition_fingerprint(inc.atoms()), seed_fp);
  expect_matches_recompute(inc);

  inc.apply(std::span<const bgp::UpdateRecord>(ds.updates.data() + 1, 1));
  EXPECT_NE(partition_fingerprint(inc.atoms()), seed_fp);
  const SanitizedSnapshot rebuilt = inc.rebuild_snapshot();
  const bgp::PathId p = rebuilt.vps[0].path_for(
      b.dataset().prefixes.intern(*net::Prefix::parse("10.0.0.0/16")));
  EXPECT_EQ(rebuilt.paths.get(p).to_string(), "100 7 1");
  expect_matches_recompute(inc);
}

TEST(IncrementalAtoms, IgnoresUnknownPeersPrefixesAndDroppedPaths) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  b.update(10, 99, "100 2", {"10.0.0.0/16"});     // peer never existed
  b.update(20, 0, "100 5", {"10.9.0.0/16"});      // prefix not retained
  b.update(30, 0, "100 [2 3] 1", {"10.0.0.0/16"});  // multi-member AS_SET
  const auto& ds = b.dataset();
  const auto snap = sanitize(ds, 0, test::lax_config());

  IncrementalAtoms inc(snap, ds.paths);
  const std::uint64_t seed_fp = partition_fingerprint(inc.atoms());
  bgp::DatasetView view(ds);
  inc.consume(view);
  // All three records are consumed but none touches a cell — the same
  // records sanitize would have dropped from a captured table.
  EXPECT_EQ(inc.counters().records, 3u);
  EXPECT_EQ(inc.counters().cell_writes, 0u);
  EXPECT_EQ(partition_fingerprint(inc.atoms()), seed_fp);
  expect_matches_recompute(inc);
}

TEST(IncrementalAtoms, SingletonAsSetExpandsLikeSanitize) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  b.update(10, 0, "100 [5] 1", {"10.0.0.0/16"});
  const auto& ds = b.dataset();
  const auto snap = sanitize(ds, 0, test::lax_config());

  IncrementalAtoms inc(snap, ds.paths);
  bgp::DatasetView view(ds);
  inc.consume(view);
  EXPECT_EQ(inc.counters().cell_writes, 1u);
  const SanitizedSnapshot rebuilt = inc.rebuild_snapshot();
  const bgp::PathId p = rebuilt.vps[0].path_for(
      b.dataset().prefixes.intern(*net::Prefix::parse("10.0.0.0/16")));
  // Mirrors sanitize's AS_SET policy: the singleton set is expanded into
  // the sequence before interning.
  EXPECT_EQ(rebuilt.paths.get(p).to_string(), "100 5 1");
  expect_matches_recompute(inc);
}

TEST(IncrementalAtoms, UpdatePeerIndicesSurviveSanitizePeerRemoval) {
  // Peer 100 is a partial feed that full-feed filtering drops; update
  // records still address peers by their *raw* snapshot index, so raw
  // index 0 must be ignored and raw index 2 must land on AS 300's column.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2")
      .route("10.3.0.0/16", "200 3");
  b.peer(300)
      .route("10.0.0.0/16", "300 1")
      .route("10.1.0.0/16", "300 1")
      .route("10.2.0.0/16", "300 2")
      .route("10.3.0.0/16", "300 3");
  b.update(10, 0, "100 9 1", {"10.1.0.0/16"});  // dropped peer: ignored
  b.update(20, 2, "300 9 1", {"10.1.0.0/16"});  // kept peer, raw index 2
  const auto& ds = b.dataset();
  core::SanitizeConfig config = test::lax_config();
  config.full_feed_only = true;
  const auto snap = sanitize(ds, 0, config);
  ASSERT_EQ(snap.vps.size(), 2u);
  ASSERT_EQ(snap.vps[0].source_index, 1u);
  ASSERT_EQ(snap.vps[1].source_index, 2u);

  IncrementalAtoms inc(snap, ds.paths);
  bgp::DatasetView view(ds);
  inc.consume(view);
  EXPECT_EQ(inc.counters().cell_writes, 1u);  // only the raw-index-2 record
  const SanitizedSnapshot rebuilt = inc.rebuild_snapshot();
  const auto prefix =
      b.dataset().prefixes.intern(*net::Prefix::parse("10.1.0.0/16"));
  EXPECT_EQ(rebuilt.paths.get(rebuilt.vps[1].path_for(prefix)).to_string(),
            "300 9 1");
  // AS 200's column is untouched.
  EXPECT_EQ(rebuilt.paths.get(rebuilt.vps[0].path_for(prefix)).to_string(),
            "200 1");
  expect_matches_recompute(inc);
}

TEST(DatasetView, ConfigurableChunkSize) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();
  ASSERT_EQ(ds.updates.size(), 9u);

  // Default: the whole span in one chunk, then an empty terminator.
  bgp::DatasetView whole(ds);
  EXPECT_EQ(whole.next_chunk().size(), 9u);
  EXPECT_TRUE(whole.next_chunk().empty());

  // Sized: ceil(9/4) chunks whose concatenation is the original span.
  bgp::DatasetView sized(ds);
  sized.set_chunk_size(4);
  std::vector<bgp::UpdateRecord> seen;
  std::vector<std::size_t> sizes;
  for (auto c = sized.next_chunk(); !c.empty(); c = sized.next_chunk()) {
    sizes.push_back(c.size());
    seen.insert(seen.end(), c.begin(), c.end());
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 1}));
  ASSERT_EQ(seen.size(), ds.updates.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].timestamp, ds.updates[i].timestamp);
    EXPECT_EQ(seen[i].peer, ds.updates[i].peer);
  }

  // rewind() restarts the cursor.
  sized.rewind();
  EXPECT_EQ(sized.next_chunk().size(), 4u);
}

TEST(Analyze, IncrementalFlagPopulatesLiveDrift) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();

  AnalysisConfig config;
  config.sanitize = test::lax_config();
  config.with_updates = true;

  bgp::DatasetView plain(ds);
  const AnalysisResult off = analyze(plain, &plain, config);
  ASSERT_TRUE(off.has_reference());
  EXPECT_FALSE(off.live.has_value());

  config.incremental = true;
  bgp::DatasetView view(ds);
  const AnalysisResult on = analyze(view, &view, config);
  ASSERT_TRUE(on.has_reference());
  ASSERT_TRUE(on.live.has_value());
  EXPECT_EQ(on.live->counters.records, ds.updates.size());
  EXPECT_GT(on.live->atoms, 0u);
  EXPECT_GE(on.live->vs_reference.cam, 0.0);
  EXPECT_LE(on.live->vs_reference.cam, 1.0);

  // The maintained path rides alongside correlation without changing it.
  ASSERT_TRUE(off.correlation.has_value());
  ASSERT_TRUE(on.correlation.has_value());
  EXPECT_EQ(off.correlation->updates_seen, on.correlation->updates_seen);

  // Cross-check the reported end-of-stream atom count independently.
  IncrementalAtoms inc(on.reference(), ds.paths, config.atoms);
  bgp::DatasetView replay(ds);
  inc.consume(replay);
  EXPECT_EQ(inc.atoms().atoms.size(), on.live->atoms);
}

TEST(IncrementalAtoms, CampaignScaleRandomizedStream) {
  // A simulator-generated campaign: thousands of prefixes, a real 4-hour
  // update stream, abnormal peers included — the closest in-tests proxy
  // for a live feed. run_campaign itself routes through
  // AnalysisConfig::incremental (with_updates), so Campaign::live is the
  // wired-through result; re-follow the stream here and pin bit-identity.
  CampaignConfig config;
  config.year = 2012.0;
  config.scale = 0.02;
  config.seed = 11;
  config.with_updates = true;
  const Campaign c = run_campaign(config);
  ASSERT_TRUE(c.live.has_value());
  EXPECT_EQ(c.live->counters.records, c.dataset().updates.size());

  IncrementalAtoms inc(c.sanitized.front(), c.dataset().paths);
  bgp::DatasetView view(c.dataset());
  view.set_chunk_size(173);  // deliberately unaligned chunking
  inc.consume(view);
  EXPECT_EQ(inc.atoms().atoms.size(), c.live->atoms);
  expect_matches_recompute(inc);
}

// --- cli/trend.h: the --trend batch error-handling contract --------------

/// Captures everything run_trend wrote to a stdio stream.
class CaptureFile {
 public:
  CaptureFile() : f_(std::tmpfile()) {}
  ~CaptureFile() {
    if (f_) std::fclose(f_);
  }
  std::FILE* file() { return f_; }
  std::string text() {
    std::fflush(f_);
    std::rewind(f_);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f_)) > 0) out.append(buf, n);
    return out;
  }

 private:
  std::FILE* f_;
};

TEST(RunTrend, OneFailingArchiveDoesNotAbortTheBatch) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();
  AnalysisConfig config;
  config.sanitize = test::lax_config();
  config.with_updates = true;
  config.incremental = true;

  CaptureFile out, err;
  const int rc = cli::run_trend(
      {"good1.bga", "bad.bga", "good2.bga"},
      [&](const std::string& path) -> AnalysisResult {
        if (path == "bad.bga") {
          throw bgp::ArchiveError("bad magic in section header");
        }
        bgp::DatasetView view(ds);
        return analyze(view, &view, config);
      },
      out.file(), err.file());

  // The failure is reported with the failing path, the batch continues
  // (good2 prints a row *after* the failure), and the exit is non-zero.
  EXPECT_EQ(rc, 1);
  const std::string err_text = err.text();
  EXPECT_NE(err_text.find("error: bad.bga: bad magic in section header"),
            std::string::npos);
  EXPECT_EQ(err_text.find("good1.bga"), std::string::npos);
  const std::string out_text = out.text();
  EXPECT_NE(out_text.find("good1.bga"), std::string::npos);
  EXPECT_NE(out_text.find("good2.bga"), std::string::npos);
  EXPECT_EQ(out_text.find("bad.bga"), std::string::npos);
}

TEST(RunTrend, NonArchiveExceptionsAreCaughtToo) {
  // The original bug: only bgp::ArchiveError was caught, so any other
  // std::exception (packing limits, bad_alloc relatives, logic errors
  // from a truncated file) aborted the whole batch.
  CaptureFile out, err;
  const int rc = cli::run_trend(
      {"a.bga", "b.bga"},
      [&](const std::string& path) -> AnalysisResult {
        throw std::runtime_error("packing limit exceeded for " + path);
      },
      out.file(), err.file());
  EXPECT_EQ(rc, 1);
  const std::string err_text = err.text();
  EXPECT_NE(err_text.find("error: a.bga: packing limit exceeded for a.bga"),
            std::string::npos);
  EXPECT_NE(err_text.find("error: b.bga:"), std::string::npos);
}

TEST(RunTrend, EmptyArchiveCountsAsFailureAndContinues) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();
  AnalysisConfig config;
  config.sanitize = test::lax_config();

  CaptureFile out, err;
  const int rc = cli::run_trend(
      {"empty.bga", "good.bga"},
      [&](const std::string& path) -> AnalysisResult {
        if (path == "empty.bga") return AnalysisResult{};  // no snapshots
        bgp::DatasetView view(ds);
        return analyze(view, nullptr, config);
      },
      out.file(), err.file());
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.text().find("error: empty.bga: archive has 0 snapshot(s)"),
            std::string::npos);
  EXPECT_NE(out.text().find("good.bga"), std::string::npos);
}

TEST(RunTrend, AllArchivesHealthyExitsZero) {
  DatasetBuilder b = churn_dataset();
  const auto& ds = b.dataset();
  AnalysisConfig config;
  config.sanitize = test::lax_config();
  config.with_updates = true;
  config.incremental = true;

  CaptureFile out, err;
  const int rc = cli::run_trend(
      {"q1.bga", "q2.bga"},
      [&](const std::string&) -> AnalysisResult {
        bgp::DatasetView view(ds);
        return analyze(view, &view, config);
      },
      out.file(), err.file());
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(err.text().empty());
  // The live-drift columns are populated (not the "-" placeholder).
  const std::string out_text = out.text();
  EXPECT_NE(out_text.find("atoms_liv"), std::string::npos);
  EXPECT_NE(out_text.find("q1.bga"), std::string::npos);
  EXPECT_NE(out_text.find("q2.bga"), std::string::npos);
}

}  // namespace
}  // namespace bgpatoms::core
