// Tests for hashing utilities, CRC-32, varint I/O and the deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "bgp/io.h"
#include "net/hash.h"
#include "net/rng.h"

namespace bgpatoms {
namespace {

TEST(Hash, Fnv1aKnownVectors) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, Mix64Avalanche) {
  // Flipping one input bit flips roughly half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    total += std::popcount(mix64(0x1234567890abcdefULL) ^
                           mix64(0x1234567890abcdefULL ^ (1ULL << bit)));
  }
  const double avg = total / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Hash, CombineOrderDependent) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

TEST(Hash, SpanHashingRespectsSeed) {
  const std::vector<std::uint32_t> v{1, 2, 3};
  EXPECT_NE(hash_span<std::uint32_t>(v, 1), hash_span<std::uint32_t>(v, 2));
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value: "123456789" -> 0xCBF43926.
  const char* s = "123456789";
  bgp::Crc32 crc;
  crc.update(s, 9);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
  bgp::Crc32 a;
  a.update(data.data(), 4);
  a.update(data.data() + 4, 4);
  EXPECT_EQ(a.value(), bgp::crc32(data));
}

// The bitwise CRC-32 loop the table version replaced: the reference the
// slice-by-8 tables must reproduce.
std::uint32_t bitwise_crc32(std::uint32_t value, const std::uint8_t* p,
                            std::size_t len) {
  std::uint32_t c = ~value;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (~(c & 1) + 1));
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseReference) {
  Rng rng(0xc7c32);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> buf(rng.next_below(300));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
    // Feed the buffer in random pieces so every alignment and tail length
    // of the eight-byte step is hit.
    bgp::Crc32 crc;
    std::uint32_t want = 0;
    std::size_t at = 0;
    while (at < buf.size()) {
      const std::size_t n = 1 + rng.next_below(buf.size() - at);
      crc.update(buf.data() + at, n);
      want = bitwise_crc32(want, buf.data() + at, n);
      at += n;
      ASSERT_EQ(crc.value(), want) << "round " << round << " at " << at;
    }
    EXPECT_EQ(bgp::crc32(buf), want) << "round " << round;
  }
}

TEST(ByteIo, VarintRoundTripBoundaries) {
  bgp::ByteWriter w;
  const std::vector<std::uint64_t> values{
      0, 1, 127, 128, 16383, 16384, UINT32_MAX, UINT64_MAX};
  for (auto v : values) w.varint(v);
  bgp::ByteReader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteIo, SignedVarintRoundTrip) {
  bgp::ByteWriter w;
  const std::vector<std::int64_t> values{0, -1, 1, -64, 63, INT64_MIN,
                                         INT64_MAX};
  for (auto v : values) w.svarint(v);
  bgp::ByteReader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.svarint(), v);
}

TEST(ByteIo, FixedIntegersLittleEndian) {
  bgp::ByteWriter w;
  w.u32(0x01020304u);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[3], 0x01);
  w.u64(0x0102030405060708ULL);
  bgp::ByteReader r(w.buffer());
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
}

TEST(ByteIo, StringRoundTrip) {
  bgp::ByteWriter w;
  w.string("route-views.sydney");
  w.string("");
  bgp::ByteReader r(w.buffer());
  EXPECT_EQ(r.string(), "route-views.sydney");
  EXPECT_EQ(r.string(), "");
}

TEST(ByteIo, TruncationThrows) {
  bgp::ByteWriter w;
  w.u32(42);
  bgp::ByteReader r(std::span<const std::uint8_t>(w.buffer().data(), 2));
  EXPECT_THROW(r.u32(), bgp::ArchiveError);
}

TEST(ByteIo, OverlongVarintThrows) {
  std::vector<std::uint8_t> bad(11, 0x80);
  bgp::ByteReader r(bad);
  EXPECT_THROW(r.varint(), bgp::ArchiveError);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, HeavyTailBoundsAndMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.heavy_tail(5.0, 2.0, 1 << 16);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1u << 16);
    sum += static_cast<double>(v);
  }
  // The discretized bounded Pareto lands near the requested mean.
  EXPECT_NEAR(sum / n, 5.0, 1.5);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(21);
  Rng child = a.fork(1);
  Rng child2 = a.fork(1);
  // Sequential forks from the same parent differ (parent state advanced).
  EXPECT_NE(child.next_u64(), child2.next_u64());
}

}  // namespace
}  // namespace bgpatoms
