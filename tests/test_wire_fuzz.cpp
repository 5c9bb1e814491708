// Property tests for the wire and MRT codecs: random structured inputs
// must round-trip exactly, and random byte mutations must never crash the
// decoders (they throw typed errors or decode something harmlessly). MRT
// mutants cover v4 and v6 RIB dumps and BGP4MP streams, under asan_smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "bgp/mrt.h"
#include "bgp/wire.h"
#include "net/rng.h"

namespace bgpatoms::bgp {
namespace {

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

Dataset random_dataset(Rng& rng, net::Family family, int n_prefixes) {
  Dataset ds;
  ds.family = family;
  ds.collectors = {"rrc00"};
  Snapshot snap;
  snap.timestamp = 1'000'000'000 + static_cast<Timestamp>(rng.next_below(1u << 20));
  PeerFeed feed;
  feed.peer = {static_cast<net::Asn>(1 + rng.next_below(1u << 18)),
               family == net::Family::kIPv4
                   ? net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()))
                   : net::IpAddress::v6(rng.next_u64(), rng.next_u64()),
               0};

  for (int i = 0; i < n_prefixes; ++i) {
    // Random path with occasional prepending and AS_SET tails.
    std::vector<net::Asn> hops;
    const int len = 1 + static_cast<int>(rng.next_below(6));
    for (int k = 0; k < len; ++k) {
      const auto asn = static_cast<net::Asn>(1 + rng.next_below(1u << 16));
      hops.push_back(asn);
      if (rng.chance(0.2)) hops.push_back(asn);  // prepend
    }
    net::AsPath path = net::AsPath::sequence(hops);
    if (rng.chance(0.1)) {
      path = net::AsPath::from_segments(
          {{net::SegmentType::kSequence, hops},
           {net::SegmentType::kSet,
            {static_cast<net::Asn>(1 + rng.next_below(1000)),
             static_cast<net::Asn>(2000 + rng.next_below(1000))}}});
    }
    std::vector<Community> comms;
    for (std::uint64_t k = 0; k < rng.next_below(4); ++k) {
      comms.push_back(static_cast<Community>(rng.next_u64()));
    }
    const net::Prefix prefix =
        family == net::Family::kIPv4
            ? net::Prefix(net::IpAddress::v4(
                              static_cast<std::uint32_t>(rng.next_u64())),
                          1 + static_cast<int>(rng.next_below(32)))
            : net::Prefix(net::IpAddress::v6(rng.next_u64(), rng.next_u64()),
                          1 + static_cast<int>(rng.next_below(64)));
    RibRecord rec;
    rec.prefix = ds.prefixes.intern(prefix);
    rec.path = ds.paths.intern(path);
    rec.communities = ds.communities.intern(comms);
    feed.records.push_back(rec);
  }
  snap.peers.push_back(std::move(feed));
  ds.snapshots.push_back(std::move(snap));
  return ds;
}

TEST_P(CodecFuzz, UpdateRoundTripRandomRecords) {
  Rng rng(GetParam());
  for (net::Family family : {net::Family::kIPv4, net::Family::kIPv6}) {
    Dataset ds = random_dataset(rng, family, 40);
    // Build update records from random subsets of the table.
    const auto& records = ds.snapshots[0].peers[0].records;
    for (int trial = 0; trial < 20; ++trial) {
      UpdateRecord u;
      u.path = records[rng.next_below(records.size())].path;
      u.communities = records[rng.next_below(records.size())].communities;
      for (std::uint64_t k = 0; k < 1 + rng.next_below(5); ++k) {
        u.announced.push_back(records[rng.next_below(records.size())].prefix);
      }
      if (family == net::Family::kIPv4) {
        for (std::uint64_t k = 0; k < rng.next_below(3); ++k) {
          u.withdrawn.push_back(
              records[rng.next_below(records.size())].prefix);
        }
      }
      const auto decoded = decode_update(encode_update(ds, u), family);
      ASSERT_EQ(decoded.announced.size(), u.announced.size());
      for (std::size_t i = 0; i < u.announced.size(); ++i) {
        EXPECT_EQ(decoded.announced[i], ds.prefixes.get(u.announced[i]));
      }
      EXPECT_EQ(decoded.path, ds.paths.get(u.path));
      EXPECT_EQ(decoded.communities, ds.communities.get(u.communities));
    }
  }
}

TEST_P(CodecFuzz, MrtRoundTripRandomTables) {
  Rng rng(GetParam() ^ 0xabcdULL);
  for (net::Family family : {net::Family::kIPv4, net::Family::kIPv6}) {
    const Dataset ds = random_dataset(rng, family, 60);
    const Dataset back = read_mrt(write_mrt_rib(ds, 0, 0));
    ASSERT_EQ(back.snapshots.size(), 1u);
    ASSERT_EQ(back.snapshots[0].peers.size(), 1u);
    // MRT groups by prefix: same record multiset, possibly reordered and
    // with duplicate-prefix rows collapsed per (prefix, peer) pair kept.
    EXPECT_EQ(back.snapshots[0].peers[0].records.size(),
              ds.snapshots[0].peers[0].records.size());
    // Spot-check: every original (prefix, path) pair survives.
    for (const auto& rec : ds.snapshots[0].peers[0].records) {
      const auto& want_prefix = ds.prefixes.get(rec.prefix);
      const auto& want_path = ds.paths.get(rec.path);
      bool found = false;
      for (const auto& got : back.snapshots[0].peers[0].records) {
        if (back.prefixes.get(got.prefix) == want_prefix &&
            back.paths.get(got.path) == want_path) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << want_prefix.to_string();
    }
  }
}

TEST_P(CodecFuzz, MutatedUpdateNeverCrashes) {
  Rng rng(GetParam() ^ 0x5555ULL);
  Dataset ds = random_dataset(rng, net::Family::kIPv4, 20);
  UpdateRecord u;
  u.path = ds.snapshots[0].peers[0].records[0].path;
  u.announced = {ds.snapshots[0].peers[0].records[0].prefix,
                 ds.snapshots[0].peers[0].records[1].prefix};
  const auto msg = encode_update(ds, u);
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = msg;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const auto decoded = decode_update(mutated);
      (void)decoded;  // harmless decode is fine
    } catch (const WireError&) {
      // typed rejection is fine
    }
  }
}

/// (offset, width) of a well-formed MRT stream's length and count fields:
/// record length, view-name length, peer count, RIB entry count and
/// attribute length, BGP4MP message, withdrawn and attribute lengths.
std::vector<std::pair<std::size_t, std::size_t>> length_fields(
    const std::vector<std::uint8_t>& s) {
  const auto u16 = [&](std::size_t at) -> std::size_t {
    return std::size_t{s[at]} << 8 | s[at + 1];
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t rec = 0; rec < s.size();
       rec += 12 + (u16(rec + 8) << 16 | u16(rec + 10))) {
    out.emplace_back(rec + 8, 4);
    const std::size_t body = rec + 12;
    if (u16(rec + 4) == 13 && u16(rec + 6) == 1) {  // PEER_INDEX_TABLE
      out.emplace_back(body + 4, 2);
      out.emplace_back(body + 6 + u16(body + 4), 2);
    } else if (u16(rec + 4) == 13) {  // RIB_IPV4_UNICAST / RIB_IPV6_UNICAST
      const std::size_t count = body + 5 + (s[body + 4] + 7) / 8;
      out.emplace_back(count, 2);
      std::size_t entry = count + 2;
      for (std::size_t i = 0; i < u16(count); ++i) {
        out.emplace_back(entry + 6, 2);
        entry += 8 + u16(entry + 6);
      }
    } else {  // BGP4MP_MESSAGE_AS4: AFI 2 carries IPv6 addresses
      const std::size_t message = body + 12 + (u16(body + 10) == 2 ? 32 : 8);
      const std::size_t withdrawn = message + 19;
      out.emplace_back(message + 16, 2);
      out.emplace_back(withdrawn, 2);
      out.emplace_back(withdrawn + 2 + u16(withdrawn), 2);
    }
  }
  return out;
}

/// `m` mutated once: 1-8 flipped bytes, 0x00 or 0xFF over one of its
/// length `fields`, a run of `donor` spliced in over a run of it, or an
/// inserted or deleted run of bytes.
std::vector<std::uint8_t> mutate(
    Rng& rng, std::vector<std::uint8_t> m,
    const std::vector<std::pair<std::size_t, std::size_t>>& fields,
    const std::vector<std::uint8_t>& donor) {
  const std::size_t pos = rng.next_below(m.size());
  const auto run_end = [&](std::size_t max_len) {
    return m.begin() + std::min(m.size(), pos + 1 + rng.next_below(max_len));
  };
  switch (rng.next_below(5)) {
    case 0:
      for (std::uint64_t k = 0, n = 1 + rng.next_below(8); k < n; ++k) {
        m[rng.next_below(m.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      break;
    case 1: {
      const auto [offset, width] = fields[rng.next_below(fields.size())];
      std::fill_n(m.begin() + offset, width, rng.chance(0.5) ? 0x00 : 0xFF);
      break;
    }
    case 2: {
      const std::size_t from = rng.next_below(donor.size());
      const std::size_t len =
          1 + rng.next_below(std::min<std::size_t>(64, donor.size() - from));
      m.erase(m.begin() + pos, run_end(64));
      m.insert(m.begin() + pos, donor.begin() + from,
               donor.begin() + from + len);
      break;
    }
    case 3: {
      std::vector<std::uint8_t> run(1 + rng.next_below(16));
      for (auto& b : run) b = static_cast<std::uint8_t>(rng.next_u64());
      m.insert(m.begin() + pos, run.begin(), run.end());
      break;
    }
    default:
      m.erase(m.begin() + pos, run_end(16));
  }
  return m;
}

TEST_P(CodecFuzz, MutatedMrtNeverCrashes) {
  Rng rng(GetParam() ^ 0x7777ULL);
  std::vector<std::vector<std::uint8_t>> inputs;  // v4/v6 RIB dump + updates
  for (net::Family family : {net::Family::kIPv4, net::Family::kIPv6}) {
    Dataset ds = random_dataset(rng, family, 40);
    const auto& records = ds.snapshots[0].peers[0].records;
    for (int i = 0; i < 30; ++i) {
      const RibRecord& rec = records[rng.next_below(records.size())];
      UpdateRecord u;
      u.timestamp = ds.snapshots[0].timestamp + i;
      if (i % 4 == 3) {
        u.withdrawn = {rec.prefix};
      } else {
        u.path = rec.path;
        u.communities = rec.communities;
        u.announced = {rec.prefix,
                       records[rng.next_below(records.size())].prefix};
      }
      ds.updates.push_back(std::move(u));
    }
    inputs.push_back(write_mrt_rib(ds, 0, 0));
    inputs.push_back(write_mrt_updates(ds, 0));
  }
  // Every input decodes or throws MrtError/WireError; any other exception
  // (or, under the asan preset, any memory error) fails.
  const auto check = [](std::span<const std::uint8_t> bytes, const char* what) {
    try {
      (void)read_mrt(bytes);
    } catch (const MrtError&) {
    } catch (const WireError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": wrong exception type: " << e.what();
    }
  };
  for (const auto& input : inputs) {
    ASSERT_NO_THROW(read_mrt(input));
    const std::size_t prefix =
        std::min<std::size_t>(input.size(), 1024 + rng.next_below(1025));
    for (std::size_t len = 0; len < prefix; ++len) {
      check({input.data(), len}, "truncation");
    }
    const auto fields = length_fields(input);
    for (int trial = 0; trial < 500; ++trial) {
      check(mutate(rng, input, fields, inputs[rng.next_below(inputs.size())]),
            "mutant");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace bgpatoms::bgp
