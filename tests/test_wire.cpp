// Tests for the RFC 4271 UPDATE wire codec.
#include <gtest/gtest.h>

#include "bgp/nlri.h"
#include "bgp/wire.h"
#include "routing/simulator.h"

namespace bgpatoms::bgp {
namespace {

struct Fixture {
  Dataset ds;
  PathId path;
  CommunitySetId comms;

  explicit Fixture(net::Family family = net::Family::kIPv4) {
    ds.family = family;
    ds.collectors = {"rrc00"};
    path = ds.paths.intern(*net::AsPath::parse("64496 3356 15169"));
    comms = ds.communities.intern(
        {make_community(3356, 100), make_community(3257, 2990)});
  }

  PrefixId prefix(const char* text) {
    return ds.prefixes.intern(*net::Prefix::parse(text));
  }

  UpdateRecord record(std::vector<PrefixId> announced,
                      std::vector<PrefixId> withdrawn = {}) {
    UpdateRecord rec;
    rec.path = announced.empty() ? 0 : path;
    rec.communities = announced.empty() ? 0 : comms;
    rec.announced = std::move(announced);
    rec.withdrawn = std::move(withdrawn);
    return rec;
  }
};

TEST(Wire, HeaderLayout) {
  Fixture f;
  const auto msg = encode_update(f.ds, f.record({f.prefix("8.8.8.0/24")}));
  ASSERT_GE(msg.size(), 19u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(msg[i], 0xFF) << "marker byte " << i;
  const std::size_t length = (std::size_t{msg[16]} << 8) | msg[17];
  EXPECT_EQ(length, msg.size());
  EXPECT_EQ(msg[18], 2);  // UPDATE
  EXPECT_EQ(peek_update_length(msg), msg.size());
}

TEST(Wire, RoundTripV4Announcement) {
  Fixture f;
  const auto rec =
      f.record({f.prefix("8.8.8.0/24"), f.prefix("10.0.0.0/8"),
                f.prefix("192.0.2.0/25")});
  const auto decoded = decode_update(encode_update(f.ds, rec));

  ASSERT_EQ(decoded.announced.size(), 3u);
  EXPECT_EQ(decoded.announced[0], *net::Prefix::parse("8.8.8.0/24"));
  EXPECT_EQ(decoded.announced[1], *net::Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(decoded.announced[2], *net::Prefix::parse("192.0.2.0/25"));
  EXPECT_EQ(decoded.path, *net::AsPath::parse("64496 3356 15169"));
  EXPECT_EQ(decoded.communities,
            f.ds.communities.get(f.comms));
  EXPECT_EQ(decoded.origin, WireOrigin::kIgp);
  ASSERT_TRUE(decoded.next_hop.has_value());
  EXPECT_TRUE(decoded.next_hop->is_v4());
}

TEST(Wire, RoundTripV4Withdrawal) {
  Fixture f;
  const auto rec = f.record({}, {f.prefix("8.8.8.0/24")});
  const auto msg = encode_update(f.ds, rec);
  const auto decoded = decode_update(msg);
  ASSERT_EQ(decoded.withdrawn.size(), 1u);
  EXPECT_EQ(decoded.withdrawn[0], *net::Prefix::parse("8.8.8.0/24"));
  EXPECT_TRUE(decoded.announced.empty());
  EXPECT_TRUE(decoded.path.empty());
}

TEST(Wire, RoundTripV6ViaMpReach) {
  Fixture f(net::Family::kIPv6);
  const auto rec = f.record({f.prefix("2001:db8::/32"),
                             f.prefix("2001:db8:1::/48")},
                            {f.prefix("2001:db9::/32")});
  // Four distinct 32-bit words, so a swapped word shows.
  const auto next_hop =
      net::IpAddress::v6(0x20010db8'00010002ULL, 0x00030004'00050006ULL);
  const auto decoded = decode_update(encode_update(f.ds, rec, next_hop),
                                     net::Family::kIPv6);
  ASSERT_EQ(decoded.announced.size(), 2u);
  EXPECT_EQ(decoded.announced[0], *net::Prefix::parse("2001:db8::/32"));
  EXPECT_EQ(decoded.announced[1], *net::Prefix::parse("2001:db8:1::/48"));
  ASSERT_EQ(decoded.withdrawn.size(), 1u);
  EXPECT_EQ(decoded.withdrawn[0], *net::Prefix::parse("2001:db9::/32"));
  EXPECT_EQ(decoded.next_hop, next_hop);
}

TEST(Wire, ExplicitNextHop) {
  Fixture f;
  const auto rec = f.record({f.prefix("8.8.8.0/24")});
  const auto decoded = decode_update(
      encode_update(f.ds, rec, net::IpAddress::v4(0x0A0B0C0DU)));
  EXPECT_EQ(decoded.next_hop, net::IpAddress::v4(0x0A0B0C0DU));
}

TEST(Wire, AsSetSegmentSurvives) {
  Fixture f;
  f.path = f.ds.paths.intern(*net::AsPath::parse("64496 174 [2914 3257]"));
  const auto rec = f.record({f.prefix("8.8.8.0/24")});
  const auto decoded = decode_update(encode_update(f.ds, rec));
  EXPECT_EQ(decoded.path, *net::AsPath::parse("64496 174 [2914 3257]"));
}

TEST(Wire, LongPrependedPathNeedsExtendedLength) {
  // >63 four-byte ASNs exceeds 255 bytes of AS_PATH: exercises the
  // extended-length attribute encoding.
  Fixture f;
  std::vector<net::Asn> hops(80, 64496);
  hops.push_back(15169);
  f.path = f.ds.paths.intern(net::AsPath::sequence(hops));
  const auto rec = f.record({f.prefix("8.8.8.0/24")});
  const auto decoded = decode_update(encode_update(f.ds, rec));
  EXPECT_EQ(decoded.path.flat().size(), 81u);
  EXPECT_EQ(decoded.path.origin(), 15169u);
}

TEST(Wire, FourOctetAsns) {
  Fixture f;
  f.path = f.ds.paths.intern(net::AsPath::sequence({64496, 396161, 4200000001u}));
  const auto rec = f.record({f.prefix("8.8.8.0/24")});
  const auto decoded = decode_update(encode_update(f.ds, rec));
  EXPECT_EQ(decoded.path.flat(),
            (std::vector<net::Asn>{64496, 396161, 4200000001u}));
}

TEST(Wire, PackedMessagesAlwaysFitTheWire) {
  // The nlri.h size estimates must be conservative: every record produced
  // by pack_updates must encode within 4096 bytes.
  Fixture f;
  std::vector<PrefixId> many;
  for (int i = 0; i < 3000; ++i) {
    many.push_back(f.prefix(
        ("10." + std::to_string(i / 250) + "." + std::to_string(i % 250) +
         ".0/24")
            .c_str()));
  }
  const auto records =
      pack_updates(f.ds, 0, 0, 0, f.path, f.comms, many, {});
  ASSERT_GT(records.size(), 1u);
  for (const auto& rec : records) {
    const auto msg = encode_update(f.ds, rec);
    EXPECT_LE(msg.size(), kMaxMessageSize);
  }
}

TEST(Wire, RejectsCorruptMarker) {
  Fixture f;
  auto msg = encode_update(f.ds, f.record({f.prefix("8.8.8.0/24")}));
  msg[3] = 0x00;
  EXPECT_THROW(decode_update(msg), WireError);
}

TEST(Wire, RejectsTruncation) {
  Fixture f;
  const auto msg = encode_update(f.ds, f.record({f.prefix("8.8.8.0/24")}));
  EXPECT_THROW(decode_update(std::span<const std::uint8_t>(msg.data(),
                                                           msg.size() - 3)),
               WireError);
  EXPECT_THROW(peek_update_length(
                   std::span<const std::uint8_t>(msg.data(), 10)),
               WireError);
}

TEST(Wire, RejectsNonUpdateType) {
  Fixture f;
  auto msg = encode_update(f.ds, f.record({f.prefix("8.8.8.0/24")}));
  msg[18] = 1;  // OPEN
  EXPECT_THROW(decode_update(msg), WireError);
}

TEST(Wire, RejectsBadNlriLength) {
  Fixture f;
  auto msg = encode_update(f.ds, f.record({f.prefix("8.8.8.0/24")}));
  msg[msg.size() - 4] = 60;  // /60 is invalid for IPv4
  EXPECT_THROW(decode_update(msg), WireError);
}

TEST(Wire, RoundTripSimulatedStream) {
  // Every update the simulator emits encodes and decodes losslessly.
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2016.0, 0.005), 3));
  sim.capture();
  sim.emit_updates(routing::kHour);
  const auto& ds = sim.dataset();
  ASSERT_GT(ds.updates.size(), 0u);
  std::size_t checked = 0;
  for (const auto& rec : ds.updates) {
    if (checked++ > 500) break;
    const auto decoded = decode_update(encode_update(ds, rec));
    ASSERT_EQ(decoded.announced.size(), rec.announced.size());
    ASSERT_EQ(decoded.withdrawn.size(), rec.withdrawn.size());
    for (std::size_t i = 0; i < rec.announced.size(); ++i) {
      EXPECT_EQ(decoded.announced[i], ds.prefixes.get(rec.announced[i]));
    }
    if (!rec.announced.empty()) {
      EXPECT_EQ(decoded.path, ds.paths.get(rec.path));
    }
  }
}

}  // namespace
}  // namespace bgpatoms::bgp
