// Malformed-input harness for the BGA archive layer.
//
// The decode path is the trust boundary every analysis sits on, so the
// contract on hostile bytes is absolute: for any mutation of a valid image
// — truncation, bit flip, random splice, hostile count — read_archive
// either throws ArchiveError or decodes a dataset identical to the
// original (a CRC collision, ~2^-32 per mutant and deterministic here).
// read_archive decodes through bgp::ArchiveReader, the same decoder the
// file tools use, so every mutant here exercises the production path.
// It must never crash, hang, read out of bounds, or allocate absurdly.
// Run it under the asan preset to get the full sanitizer guarantee.
//
// Also holds the ByteReader regression tests for the two decoder
// vulnerabilities fixed alongside the v2 format: the need() integer-overflow
// bypass and varint() silently wrapping values >= 2^64.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "bgp/archive.h"
#include "bgp/archive_format.h"
#include "bgp/archive_view.h"
#include "core/analyze.h"

namespace bgpatoms::bgp {
namespace {

// --- ByteReader regressions -------------------------------------------------

TEST(ByteReaderFuzz, HugeLengthDoesNotBypassBoundsCheck) {
  // Regression: need() computed `pos_ + n > size` which wraps for n near
  // 2^64, letting a hostile varint string length read out of bounds.
  ByteWriter w;
  w.varint(UINT64_MAX);  // string length
  w.bytes("abc", 3);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.string(), ArchiveError);

  for (std::uint64_t n :
       {UINT64_MAX, UINT64_MAX - 1, UINT64_MAX - 8, std::uint64_t{1} << 63}) {
    ByteWriter w2;
    w2.varint(n);
    const auto b2 = w2.take();
    ByteReader r2(b2);
    EXPECT_THROW(r2.string(), ArchiveError) << "length " << n;
  }
}

TEST(ByteReaderFuzz, VarintMaxValueRoundTrips) {
  ByteWriter w;
  w.varint(UINT64_MAX);
  w.varint((std::uint64_t{1} << 63));
  w.varint((std::uint64_t{1} << 63) - 1);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.varint(), UINT64_MAX);
  EXPECT_EQ(r.varint(), std::uint64_t{1} << 63);
  EXPECT_EQ(r.varint(), (std::uint64_t{1} << 63) - 1);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteReaderFuzz, VarintOverflowIsRejected) {
  // Regression: at shift 63 the high bits of the 10th byte were discarded,
  // so a non-canonical encoding of a value >= 2^64 decoded to a small
  // number instead of throwing.
  const std::uint8_t cont = 0xff;
  for (std::uint8_t last : {std::uint8_t{0x02}, std::uint8_t{0x7f},
                            std::uint8_t{0x3e}}) {
    std::vector<std::uint8_t> enc(9, cont);
    enc.push_back(last);
    ByteReader r(enc);
    EXPECT_THROW(r.varint(), ArchiveError) << "last byte " << int{last};
  }
  // 10 continuation bytes: too long outright.
  std::vector<std::uint8_t> too_long(10, cont);
  too_long.push_back(0x00);
  ByteReader r(too_long);
  EXPECT_THROW(r.varint(), ArchiveError);
}

TEST(ByteReaderFuzz, SvarintExtremesRoundTrip) {
  ByteWriter w;
  w.svarint(INT64_MIN);
  w.svarint(INT64_MAX);
  w.svarint(0);
  w.svarint(-1);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.svarint(), INT64_MIN);
  EXPECT_EQ(r.svarint(), INT64_MAX);
  EXPECT_EQ(r.svarint(), 0);
  EXPECT_EQ(r.svarint(), -1);
}

// --- corpus -----------------------------------------------------------------

Dataset tiny_dataset() {
  Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00"};
  return ds;
}

Dataset small_dataset() {
  Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00", "route-views.2"};
  const PathId p1 = ds.paths.intern(net::AsPath::sequence({64496, 3356, 15169}));
  const PathId p2 = ds.paths.intern(*net::AsPath::parse("64496 174 [2914 3257]"));
  const PrefixId a = ds.prefixes.intern(*net::Prefix::parse("8.8.8.0/24"));
  const PrefixId b = ds.prefixes.intern(*net::Prefix::parse("10.0.0.0/8"));
  const auto comm =
      ds.communities.intern({make_community(3356, 100), make_community(1, 2)});

  Snapshot snap;
  snap.timestamp = 1073894400;
  PeerFeed feed;
  feed.peer = {64496, net::IpAddress::v4(0xC6120001u), 0};
  feed.records.push_back({a, p1, comm, RecordStatus::kValid});
  feed.records.push_back({b, p2, 0, RecordStatus::kDuplicateAttribute});
  snap.peers.push_back(std::move(feed));
  ds.snapshots.push_back(std::move(snap));

  UpdateRecord u;
  u.timestamp = 1073894460;
  u.collector = 1;
  u.path = p1;
  u.communities = comm;
  u.announced = {a, b};
  u.withdrawn = {b};
  ds.updates.push_back(std::move(u));
  return ds;
}

Dataset v6_dataset() {
  Dataset ds;
  ds.family = net::Family::kIPv6;
  ds.collectors = {"rrc00"};
  const PrefixId p = ds.prefixes.intern(*net::Prefix::parse("2001:db8::/32"));
  const PathId path = ds.paths.intern(net::AsPath::sequence({65001, 6939}));
  Snapshot snap;
  snap.timestamp = 42;
  PeerFeed feed;
  feed.peer = {65001, net::IpAddress::v6(0x20010db8feed0000ULL, 7), 0};
  feed.records.push_back({p, path, 0, RecordStatus::kValid});
  snap.peers.push_back(std::move(feed));
  ds.snapshots.push_back(std::move(snap));
  return ds;
}

Dataset medium_dataset() {
  Dataset ds;
  ds.family = net::Family::kIPv4;
  ds.collectors = {"rrc00", "rrc01", "route-views.2"};
  std::vector<PathId> paths;
  std::vector<PrefixId> prefixes;
  for (std::uint32_t i = 0; i < 40; ++i) {
    paths.push_back(ds.paths.intern(
        net::AsPath::sequence({64496 + i % 7, 3356, 15169 + i})));
    prefixes.push_back(ds.prefixes.intern(
        net::Prefix(net::IpAddress::v4(0x0A000000u + (i << 8)), 24)));
  }
  for (int s = 0; s < 3; ++s) {
    Snapshot snap;
    snap.timestamp = 1000000 + 86400 * s;
    for (std::uint32_t pr = 0; pr < 4; ++pr) {
      PeerFeed feed;
      feed.peer = {64500 + pr, net::IpAddress::v4(0xC0000000u + pr),
                   static_cast<CollectorIndex>(pr % 3)};
      for (std::uint32_t i = 0; i < 40; ++i) {
        feed.records.push_back({prefixes[i], paths[(i + pr) % 40], 0,
                                RecordStatus::kValid});
      }
      snap.peers.push_back(std::move(feed));
    }
    ds.snapshots.push_back(std::move(snap));
  }
  for (std::uint32_t i = 0; i < 500; ++i) {
    UpdateRecord u;
    u.timestamp = 1000000 + i * 7;
    u.collector = static_cast<CollectorIndex>(i % 3);
    u.peer = i % 4;
    u.path = paths[i % 40];
    u.announced = {prefixes[i % 40], prefixes[(i + 1) % 40]};
    if (i % 3 == 0) u.withdrawn = {prefixes[(i + 2) % 40]};
    ds.updates.push_back(std::move(u));
  }
  return ds;
}

std::vector<Dataset> corpus() {
  std::vector<Dataset> out;
  out.push_back(tiny_dataset());
  out.push_back(small_dataset());
  out.push_back(v6_dataset());
  out.push_back(medium_dataset());
  return out;
}

/// The fuzz oracle: a mutated image must throw ArchiveError or decode to
/// the original dataset (compared via canonical re-encoding). Anything
/// else — other exception, crash, OOB (under sanitizers) — is a failure.
void expect_reject_or_identical(std::span<const std::uint8_t> mutated,
                                const std::vector<std::uint8_t>& canonical,
                                const char* what) {
  try {
    const Dataset decoded = read_archive(mutated);
    EXPECT_EQ(write_archive(decoded), canonical) << what;
  } catch (const ArchiveError&) {
    // The expected loud failure.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": wrong exception type: " << e.what();
  }
}

TEST(ArchiveFuzz, EveryTruncationThrows) {
  for (const auto& ds : corpus()) {
    const auto image = write_archive(ds);
    // A strict prefix can never be valid: it loses its end section.
    const std::size_t stride = image.size() > 2048 ? 7 : 1;
    for (std::size_t len = 0; len < image.size(); len += stride) {
      EXPECT_THROW(
          read_archive(std::span<const std::uint8_t>(image.data(), len)),
          ArchiveError)
          << "len " << len;
    }
  }
}

TEST(ArchiveFuzz, EveryBitFlipRejectsOrDecodesIdentically) {
  for (const auto& ds : corpus()) {
    const auto image = write_archive(ds);
    const std::size_t stride = image.size() > 2048 ? 5 : 1;
    for (std::size_t pos = 0; pos < image.size(); pos += stride) {
      auto mutated = image;
      mutated[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
      expect_reject_or_identical(mutated, image, "bit flip");
    }
  }
}

TEST(ArchiveFuzz, RandomMutationsNeverCrash) {
  std::mt19937_64 rng(0x9E3779B97F4A7C15ULL);  // fixed seed: deterministic
  for (const auto& ds : corpus()) {
    const auto image = write_archive(ds);
    for (int round = 0; round < 300; ++round) {
      auto mutated = image;
      // 1-8 byte splices at random positions.
      const int edits = 1 + static_cast<int>(rng() % 8);
      for (int e = 0; e < edits; ++e) {
        mutated[rng() % mutated.size()] =
            static_cast<std::uint8_t>(rng() & 0xff);
      }
      expect_reject_or_identical(mutated, image, "random splice");
    }
    // Random truncation + tail garbage.
    for (int round = 0; round < 100; ++round) {
      auto mutated = image;
      mutated.resize(rng() % image.size());
      const int tail = static_cast<int>(rng() % 16);
      for (int t = 0; t < tail; ++t) {
        mutated.push_back(static_cast<std::uint8_t>(rng() & 0xff));
      }
      expect_reject_or_identical(mutated, image, "cut + garbage tail");
    }
  }
}

// --- streamed-analysis path -------------------------------------------------
// The CLI tools feed archives straight into core::analyze through
// bgp::ArchiveView, so the same hostile-bytes contract must hold there:
// a mutated file either throws ArchiveError (at open or mid-stream, when
// a later section turns out corrupt) or the full analysis pass produces
// results identical to the original dataset's.

core::AnalysisConfig fuzz_analysis_config() {
  core::AnalysisConfig config;
  config.sanitize.min_collectors = 1;
  config.atoms.threads = 1;
  config.with_stability = true;
  config.with_updates = true;
  config.keep_all = true;
  return config;
}

void expect_analysis_identical(const core::AnalysisResult& want,
                               const core::AnalysisResult& got,
                               const char* what) {
  EXPECT_EQ(want.snapshots_seen, got.snapshots_seen) << what;
  ASSERT_EQ(want.atom_sets.size(), got.atom_sets.size()) << what;
  for (std::size_t i = 0; i < want.atom_sets.size(); ++i) {
    EXPECT_EQ(want.atom_sets[i].atoms, got.atom_sets[i].atoms) << what;
  }
  ASSERT_EQ(want.stability.size(), got.stability.size()) << what;
  for (std::size_t i = 0; i < want.stability.size(); ++i) {
    EXPECT_EQ(want.stability[i].result.cam, got.stability[i].result.cam);
    EXPECT_EQ(want.stability[i].result.mpm, got.stability[i].result.mpm);
  }
  ASSERT_EQ(want.correlation.has_value(), got.correlation.has_value()) << what;
  if (want.correlation) {
    EXPECT_EQ(want.correlation->updates_seen, got.correlation->updates_seen)
        << what;
    EXPECT_EQ(want.correlation->atom.n_all, got.correlation->atom.n_all)
        << what;
    EXPECT_EQ(want.correlation->atom.n_any, got.correlation->atom.n_any)
        << what;
  }
}

/// The streamed oracle: ArchiveView + analyze over a mutated file must
/// throw ArchiveError or match the original's analysis bit for bit.
void expect_streamed_reject_or_identical(
    const std::vector<std::uint8_t>& mutated,
    const core::AnalysisResult& want, const std::string& path,
    const char* what) {
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!mutated.empty()) {
      ASSERT_EQ(std::fwrite(mutated.data(), 1, mutated.size(), f),
                mutated.size());
    }
    std::fclose(f);
  }
  try {
    ArchiveView view(path);
    const core::AnalysisResult got =
        core::analyze(view, &view, fuzz_analysis_config());
    expect_analysis_identical(want, got, what);
  } catch (const ArchiveError&) {
    // The expected loud failure.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": wrong exception type: " << e.what();
  }
}

TEST(ArchiveFuzz, StreamedAnalysisRejectsOrMatchesOnMutants) {
  std::mt19937_64 rng(0xA5A5A5A5DEADBEEFULL);  // fixed seed: deterministic
  const std::string path = testing::TempDir() + "fuzz_streamed.bga";
  for (const auto& ds : corpus()) {
    DatasetView mem(ds);
    const core::AnalysisResult want =
        core::analyze(mem, &mem, fuzz_analysis_config());
    const auto image = write_archive(ds);
    // Unmutated file: the streamed pass must reproduce the in-memory one.
    expect_streamed_reject_or_identical(image, want, path, "identity");
    // Random splices.
    for (int round = 0; round < 40; ++round) {
      auto mutated = image;
      const int edits = 1 + static_cast<int>(rng() % 8);
      for (int e = 0; e < edits; ++e) {
        mutated[rng() % mutated.size()] =
            static_cast<std::uint8_t>(rng() & 0xff);
      }
      expect_streamed_reject_or_identical(mutated, want, path,
                                          "random splice");
    }
    // Truncations (always invalid: the end marker is lost, but the throw
    // may only surface once the cursor reaches the cut).
    for (int round = 0; round < 12; ++round) {
      auto mutated = image;
      mutated.resize(rng() % image.size());
      expect_streamed_reject_or_identical(mutated, want, path, "truncation");
    }
  }
  std::remove(path.c_str());
}

// --- hostile counts ---------------------------------------------------------
// A CRC-valid image whose counts claim more records than the remaining
// bytes could possibly hold must be rejected before any large reserve().

/// Builds a hand-crafted v2 image: valid header, then CRC-sealed sections —
/// only content validation can reject these.
std::vector<std::uint8_t> make_v2(
    const std::vector<std::pair<std::uint8_t, std::vector<std::uint8_t>>>&
        sections) {
  std::vector<std::uint8_t> out = {'B', 'G', 'A', '2', 4};
  const std::uint32_t head_crc =
      crc32(std::span<const std::uint8_t>(out.data(), out.size()));
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(head_crc >> (8 * i)));
  for (const auto& [id, payload] : sections) {
    out.push_back(id);
    for (int i = 0; i < 8; ++i) {
      out.push_back(
          static_cast<std::uint8_t>(std::uint64_t{payload.size()} >> (8 * i)));
    }
    out.insert(out.end(), payload.begin(), payload.end());
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>(payload.data(), payload.size()));
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

std::vector<std::uint8_t> varint_bytes(std::uint64_t v) {
  ByteWriter w;
  w.varint(v);
  return w.take();
}

TEST(ArchiveFuzz, HostileSectionCountsAreRejected) {
  // Collectors section claiming 2^59 strings in a 9-byte payload.
  {
    auto payload = varint_bytes(std::uint64_t{1} << 59);
    const auto image = make_v2({{1, payload}});
    EXPECT_THROW(read_archive(image), ArchiveError);
  }
  // Empty-but-valid dictionaries, then a snapshot claiming 2^40 peers.
  {
    const std::vector<std::uint8_t> empty_count = {0};
    ByteWriter snap;
    snap.svarint(0);                        // timestamp
    snap.varint(std::uint64_t{1} << 40);    // npeers
    const auto image = make_v2({{1, empty_count},
                                {2, empty_count},
                                {3, empty_count},
                                {4, empty_count},
                                {5, snap.take()}});
    EXPECT_THROW(read_archive(image), ArchiveError);
  }
  // Updates chunk claiming 2^60 records.
  {
    const std::vector<std::uint8_t> empty_count = {0};
    const auto image = make_v2({{1, empty_count},
                                {2, empty_count},
                                {3, empty_count},
                                {4, empty_count},
                                {6, varint_bytes(std::uint64_t{1} << 60)}});
    EXPECT_THROW(read_archive(image), ArchiveError);
  }
  // Section frame whose u64 length itself is absurd (no payload behind it).
  {
    std::vector<std::uint8_t> out = {'B', 'G', 'A', '2', 4};
    const std::uint32_t head_crc =
        crc32(std::span<const std::uint8_t>(out.data(), out.size()));
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<std::uint8_t>(head_crc >> (8 * i)));
    out.push_back(1);  // collectors
    for (int i = 0; i < 8; ++i) out.push_back(0xff);  // length = 2^64-1
    EXPECT_THROW(read_archive(out), ArchiveError);
  }
}

TEST(ArchiveFuzz, HostileUpdateCountIsRejectedBeforeAllocation) {
  // One update record whose announced (then withdrawn) prefix count is
  // 2^60, in a CRC-valid chunk: decoding must throw "count exceeds input",
  // not reserve a multi-exabyte vector.
  ByteWriter collectors;
  collectors.varint(1);
  collectors.string("rrc00");
  const auto coll = collectors.take();
  const std::vector<std::uint8_t> empty_count = {0};
  for (const bool announced : {true, false}) {
    ByteWriter chunk;
    chunk.varint(1);   // one update
    chunk.svarint(0);  // timestamp delta
    chunk.varint(0);   // collector
    chunk.varint(0);   // peer
    chunk.varint(0);   // path
    chunk.varint(0);   // communities
    if (!announced) chunk.varint(0);
    chunk.varint(std::uint64_t{1} << 60);
    const auto image = make_v2({{1, coll},
                                {2, empty_count},
                                {3, empty_count},
                                {4, empty_count},
                                {6, chunk.take()}});
    EXPECT_THROW(read_archive(image), ArchiveError)
        << (announced ? "announced" : "withdrawn");
  }
}

TEST(ArchiveFuzz, StructuralCapsSurviveTheRefactor) {
  const std::vector<std::uint8_t> empty_count = {0};
  // Path with 2000 segments: over the 1024 cap.
  {
    ByteWriter paths;
    paths.varint(1);     // one path in the dictionary
    paths.varint(2000);  // absurd segment count
    const auto image = make_v2({{1, empty_count}, {2, paths.take()}});
    EXPECT_THROW(read_archive(image), ArchiveError);
  }
  // Community set with 2^20 members: over the 2^16 cap.
  {
    ByteWriter comm;
    comm.varint(1);
    comm.varint(std::uint64_t{1} << 20);
    const auto image = make_v2({{1, empty_count},
                                {2, empty_count},
                                {3, empty_count},
                                {4, comm.take()}});
    EXPECT_THROW(read_archive(image), ArchiveError);
  }
}

}  // namespace
}  // namespace bgpatoms::bgp
