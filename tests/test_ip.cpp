// Unit tests for net::IpAddress and net::Prefix.
#include <gtest/gtest.h>

#include "net/ip.h"
#include "net/prefix.h"

namespace bgpatoms::net {
namespace {

TEST(IpAddress, ParseV4Basic) {
  const auto a = IpAddress::parse("192.0.2.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->family(), Family::kIPv4);
  EXPECT_EQ(a->v4_value(), 0xC0000201u);
}

TEST(IpAddress, ParseV4Boundaries) {
  EXPECT_EQ(IpAddress::parse("0.0.0.0")->v4_value(), 0u);
  EXPECT_EQ(IpAddress::parse("255.255.255.255")->v4_value(), 0xFFFFFFFFu);
}

TEST(IpAddress, ParseV4Rejects) {
  EXPECT_FALSE(IpAddress::parse("256.0.0.1").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.").has_value());
  EXPECT_FALSE(IpAddress::parse(".1.2.3.4").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4 ").has_value());
}

TEST(IpAddress, FormatV4) {
  EXPECT_EQ(IpAddress::v4(0xC0000201u).to_string(), "192.0.2.1");
  EXPECT_EQ(IpAddress::v4(0).to_string(), "0.0.0.0");
  EXPECT_EQ(IpAddress::v4(0xFFFFFFFFu).to_string(), "255.255.255.255");
}

TEST(IpAddress, ParseV6Full) {
  const auto a = IpAddress::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->family(), Family::kIPv6);
  EXPECT_EQ(a->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo(), 1ULL);
}

TEST(IpAddress, ParseV6Compressed) {
  EXPECT_EQ(IpAddress::parse("2001:db8::1")->lo(), 1ULL);
  EXPECT_EQ(IpAddress::parse("2001:db8::1")->hi(), 0x20010db800000000ULL);
  EXPECT_EQ(IpAddress::parse("::")->hi(), 0ULL);
  EXPECT_EQ(IpAddress::parse("::")->lo(), 0ULL);
  EXPECT_EQ(IpAddress::parse("::1")->lo(), 1ULL);
  EXPECT_EQ(IpAddress::parse("1::")->hi(), 0x0001000000000000ULL);
  EXPECT_EQ(IpAddress::parse("1::")->lo(), 0ULL);
}

TEST(IpAddress, ParseV6Rejects) {
  EXPECT_FALSE(IpAddress::parse("2001:db8").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(IpAddress::parse("1::2::3").has_value());
  EXPECT_FALSE(IpAddress::parse("12345::").has_value());
  EXPECT_FALSE(IpAddress::parse(":1:2:3:4:5:6:7").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:").has_value());
  EXPECT_FALSE(IpAddress::parse("g::1").has_value());
}

TEST(IpAddress, FormatV6CompressesLongestZeroRun) {
  EXPECT_EQ(IpAddress::v6(0x20010db800000000ULL, 1).to_string(), "2001:db8::1");
  EXPECT_EQ(IpAddress::v6(0, 0).to_string(), "::");
  EXPECT_EQ(IpAddress::v6(0, 1).to_string(), "::1");
  EXPECT_EQ(IpAddress::v6(0x0001000000000000ULL, 0).to_string(), "1::");
  // Of two equally long runs the first is compressed; the longer wins.
  EXPECT_EQ(IpAddress::parse("1:0:0:2:0:0:3:4")->to_string(), "1::2:0:0:3:4");
  EXPECT_EQ(IpAddress::parse("1:0:0:2:3:0:0:0")->to_string(), "1:0:0:2:3::");
  EXPECT_EQ(IpAddress::v6(~0ULL, ~0ULL).to_string(),
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff");
}

TEST(IpAddress, FormatV6NoCompressionForSingleZero) {
  // A lone zero group is not compressed to "::" (RFC 5952 style).
  const auto a = IpAddress::parse("1:0:2:3:4:5:6:7");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "1:0:2:3:4:5:6:7");
}

TEST(IpAddress, RoundTripV6) {
  for (const char* text :
       {"2001:db8::1", "::", "::1", "1::", "fe80::1:2:3",
        "2001:db8:1:2:3:4:5:6", "240a:a000::"}) {
    const auto a = IpAddress::parse(text);
    ASSERT_TRUE(a.has_value()) << text;
    EXPECT_EQ(a->to_string(), text);
  }
}

TEST(IpAddress, BitIndexing) {
  const auto a = IpAddress::v4(0x80000001u);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(31));
  const auto b = IpAddress::v6(0x8000000000000000ULL, 1);
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(127));
  EXPECT_FALSE(b.bit(126));
}

TEST(IpAddress, MaskedClearsHostBits) {
  EXPECT_EQ(IpAddress::v4(0xC0A80101u).masked(24),
            IpAddress::v4(0xC0A80100u));
  EXPECT_EQ(IpAddress::v4(0xFFFFFFFFu).masked(0), IpAddress::v4(0));
  EXPECT_EQ(IpAddress::v4(0xC0A80101u).masked(32),
            IpAddress::v4(0xC0A80101u));
  EXPECT_EQ(IpAddress::v6(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL)
                .masked(64),
            IpAddress::v6(0xFFFFFFFFFFFFFFFFULL, 0));
  EXPECT_EQ(IpAddress::v6(0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL)
                .masked(48),
            IpAddress::v6(0xFFFFFFFFFFFF0000ULL, 0));
  EXPECT_EQ(IpAddress::v6(0xAAULL, 0xFFFFFFFFFFFFFFFFULL).masked(96),
            IpAddress::v6(0xAAULL, 0xFFFFFFFF00000000ULL));
}

TEST(Prefix, ConstructionCanonicalizes) {
  const Prefix a(IpAddress::v4(0xC0A80101u), 24);
  EXPECT_EQ(a.address(), IpAddress::v4(0xC0A80100u));
  EXPECT_EQ(a.length(), 24);
  EXPECT_EQ(a, Prefix::v4(0xC0A80100u, 24));
}

TEST(Prefix, ParseAndFormat) {
  const auto p = Prefix::parse("10.0.0.0/8");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.0.0.0/8");
  const auto q = Prefix::parse("2001:db8::/32");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->to_string(), "2001:db8::/32");
  // Host bits are cleared on parse too.
  EXPECT_EQ(Prefix::parse("10.1.2.3/8")->to_string(), "10.0.0.0/8");
  EXPECT_EQ(Prefix::v6(0, 1, 128).to_string(), "::1/128");
  EXPECT_EQ(Prefix::v4(0, 0).to_string(), "0.0.0.0/0");
}

TEST(Prefix, ParseRejects) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Prefix::parse("2001:db8::/129").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/a").has_value());
  EXPECT_FALSE(Prefix::parse("/8").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/8x").has_value());
}

TEST(Prefix, ContainsPrefix) {
  const auto p8 = *Prefix::parse("10.0.0.0/8");
  const auto p16 = *Prefix::parse("10.1.0.0/16");
  const auto other = *Prefix::parse("11.0.0.0/16");
  EXPECT_TRUE(p8.contains(p16));
  EXPECT_FALSE(p16.contains(p8));
  EXPECT_TRUE(p8.contains(p8));
  EXPECT_FALSE(p8.contains(other));
  // Cross-family containment is always false.
  EXPECT_FALSE(p8.contains(*Prefix::parse("::/0")));
}

TEST(Prefix, ContainsAddress) {
  const auto p = *Prefix::parse("192.0.2.0/24");
  EXPECT_TRUE(p.contains(*IpAddress::parse("192.0.2.255")));
  EXPECT_FALSE(p.contains(*IpAddress::parse("192.0.3.0")));
}

TEST(Prefix, OrderingGroupsCoveringBlocksFirst) {
  const auto p8 = *Prefix::parse("10.0.0.0/8");
  const auto p16 = *Prefix::parse("10.0.0.0/16");
  EXPECT_LT(p8, p16);  // same address, shorter first
  EXPECT_LT(*Prefix::parse("9.0.0.0/8"), p8);
}

TEST(Prefix, HashDistinguishesLengthAndFamily) {
  EXPECT_NE(Prefix::parse("10.0.0.0/8")->hash(),
            Prefix::parse("10.0.0.0/16")->hash());
  EXPECT_NE(Prefix::v4(0, 0).hash(), Prefix::v6(0, 0, 0).hash());
}

TEST(Prefix, ZeroLengthContainsEverything) {
  const auto def = *Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(def.contains(*Prefix::parse("203.0.113.0/24")));
}

}  // namespace
}  // namespace bgpatoms::net
