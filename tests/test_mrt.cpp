// Tests for MRT (RFC 6396) import/export.
#include <gtest/gtest.h>

#include <filesystem>

#include "bgp/mrt.h"
#include "core/atoms.h"
#include "core/sanitize.h"
#include "routing/simulator.h"

namespace bgpatoms::bgp {
namespace {

Dataset tiny_dataset(net::Family family = net::Family::kIPv4) {
  Dataset ds;
  ds.family = family;
  ds.collectors = {"rrc00", "route-views.2"};
  const bool v6 = family == net::Family::kIPv6;
  const PathId p1 = ds.paths.intern(*net::AsPath::parse("64496 3356 15169"));
  const PathId p2 = ds.paths.intern(*net::AsPath::parse("64497 174 15169"));
  const PrefixId a =
      ds.prefixes.intern(*net::Prefix::parse(v6 ? "2001:db8::/32" : "8.8.8.0/24"));
  const PrefixId b = ds.prefixes.intern(
      *net::Prefix::parse(v6 ? "2001:db9::/32" : "10.0.0.0/8"));
  const auto comms = ds.communities.intern({make_community(3356, 100)});

  Snapshot snap;
  snap.timestamp = 1'100'000'000;
  PeerFeed f1;
  f1.peer = {64496,
             v6 ? net::IpAddress::v6(0x20010db8feed0000ULL, 1)
                : net::IpAddress::v4(0xC6120001u),
             0};
  f1.records.push_back({a, p1, comms, RecordStatus::kValid});
  f1.records.push_back({b, p1, 0, RecordStatus::kValid});
  snap.peers.push_back(f1);
  PeerFeed f2;
  f2.peer = {64497,
             v6 ? net::IpAddress::v6(0x20010db8feed0000ULL, 2)
                : net::IpAddress::v4(0xC6120002u),
             0};
  f2.records.push_back({a, p2, 0, RecordStatus::kValid});
  snap.peers.push_back(f2);
  // A peer on another collector: excluded from rrc00's MRT file.
  PeerFeed f3;
  f3.peer = {64498,
             v6 ? net::IpAddress::v6(0x20010db8feed0000ULL, 3)
                : net::IpAddress::v4(0xC6120003u),
             1};
  f3.records.push_back({b, p2, 0, RecordStatus::kValid});
  snap.peers.push_back(f3);
  ds.snapshots.push_back(std::move(snap));

  UpdateRecord u;
  u.timestamp = 1'100'000'060;
  u.collector = 0;
  u.peer = 0;
  u.path = p1;
  u.communities = comms;
  u.announced = {a};
  if (!v6) u.withdrawn = {b};
  ds.updates.push_back(u);
  return ds;
}

TEST(Mrt, RibRoundTripV4) {
  const Dataset ds = tiny_dataset();
  const auto bytes = write_mrt_rib(ds, 0, /*collector=*/0);
  const Dataset back = read_mrt(bytes);

  EXPECT_EQ(back.family, net::Family::kIPv4);
  ASSERT_EQ(back.collectors.size(), 1u);
  EXPECT_EQ(back.collectors[0], "rrc00");  // view name carries the collector
  ASSERT_EQ(back.snapshots.size(), 1u);
  EXPECT_EQ(back.snapshots[0].timestamp, 1'100'000'000);
  ASSERT_EQ(back.snapshots[0].peers.size(), 2u);  // collector-0 peers only
  EXPECT_EQ(back.snapshots[0].peers[0].peer.asn, 64496u);
  EXPECT_EQ(back.snapshots[0].peers[0].records.size(), 2u);
  EXPECT_EQ(back.snapshots[0].peers[1].records.size(), 1u);

  // Paths and communities survive.
  const auto& rec = back.snapshots[0].peers[0].records[0];
  EXPECT_EQ(back.paths.get(rec.path), *net::AsPath::parse("64496 3356 15169"));
  EXPECT_EQ(back.communities.get(rec.communities),
            (std::vector<Community>{make_community(3356, 100)}));
}

TEST(Mrt, RibRoundTripV6) {
  const Dataset ds = tiny_dataset(net::Family::kIPv6);
  const Dataset back = read_mrt(write_mrt_rib(ds, 0, 0));
  EXPECT_EQ(back.family, net::Family::kIPv6);
  ASSERT_EQ(back.snapshots[0].peers.size(), 2u);
  const auto& rec = back.snapshots[0].peers[0].records[0];
  EXPECT_EQ(back.prefixes.get(rec.prefix), *net::Prefix::parse("2001:db8::/32"));
  // Each address's four 32-bit words differ, so a swapped word shows.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.snapshots[0].peers[i].peer.address,
              ds.snapshots[0].peers[i].peer.address)
        << "peer " << i;
  }
}

TEST(Mrt, UpdatesRoundTrip) {
  const Dataset ds = tiny_dataset();
  // RIB first (peer table), then the update trace, as real pipelines do.
  auto bytes = write_mrt_rib(ds, 0, 0);
  const auto updates = write_mrt_updates(ds, 0);
  bytes.insert(bytes.end(), updates.begin(), updates.end());

  const Dataset back = read_mrt(bytes);
  ASSERT_EQ(back.updates.size(), 1u);
  const auto& u = back.updates[0];
  EXPECT_EQ(u.timestamp, 1'100'000'060);
  ASSERT_EQ(u.announced.size(), 1u);
  EXPECT_EQ(back.prefixes.get(u.announced[0]), *net::Prefix::parse("8.8.8.0/24"));
  ASSERT_EQ(u.withdrawn.size(), 1u);
  // The update's peer resolves to the RIB peer with the same identity.
  EXPECT_EQ(back.snapshots[0].peers[u.peer].peer.asn, 64496u);
}

TEST(Mrt, UpdatesWithoutRibCreateImplicitPeers) {
  const Dataset ds = tiny_dataset();
  const Dataset back = read_mrt(write_mrt_updates(ds, 0));
  ASSERT_EQ(back.updates.size(), 1u);
  ASSERT_EQ(back.snapshots.size(), 1u);  // implicit snapshot for peers
  EXPECT_EQ(back.snapshots[0].peers.size(), 1u);
  EXPECT_EQ(back.snapshots[0].peers[0].peer.asn, 64496u);
}

TEST(Mrt, CorruptRecordsAreNotExported) {
  Dataset ds = tiny_dataset();
  ds.snapshots[0].peers[0].records[0].status = RecordStatus::kCorruptSubtype;
  const Dataset back = read_mrt(write_mrt_rib(ds, 0, 0));
  EXPECT_EQ(back.snapshots[0].peers[0].records.size(), 1u);
}

TEST(Mrt, UnknownRecordTypesSkipped) {
  const Dataset ds = tiny_dataset();
  auto bytes = write_mrt_rib(ds, 0, 0);
  // Prepend an OSPFv2 record (type 11) with a 4-byte body.
  std::vector<std::uint8_t> unknown{0, 0, 0, 1, 0, 11, 0, 0,
                                    0, 0, 0, 4, 1, 2, 3, 4};
  unknown.insert(unknown.end(), bytes.begin(), bytes.end());
  const Dataset back = read_mrt(unknown);
  EXPECT_EQ(back.snapshots.size(), 1u);
}

TEST(Mrt, TruncationDetected) {
  const Dataset ds = tiny_dataset();
  const auto bytes = write_mrt_rib(ds, 0, 0);
  EXPECT_THROW(read_mrt(std::span<const std::uint8_t>(bytes.data(),
                                                      bytes.size() - 5)),
               MrtError);
}

TEST(Mrt, RibEntryBeforePeerTableRejected) {
  const Dataset ds = tiny_dataset();
  const auto bytes = write_mrt_rib(ds, 0, 0);
  // Find the first RIB record (after the PEER_INDEX_TABLE) and feed the
  // stream starting there.
  const std::size_t pit_len =
      12 + ((std::size_t{bytes[8]} << 24) | (std::size_t{bytes[9]} << 16) |
            (std::size_t{bytes[10]} << 8) | bytes[11]);
  EXPECT_THROW(
      read_mrt(std::span<const std::uint8_t>(bytes).subspan(pit_len)),
      MrtError);
}

TEST(Mrt, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "test_rib.mrt";
  const Dataset ds = tiny_dataset();
  write_mrt_rib_file(ds, 0, 0, path.string());
  const Dataset back = read_mrt_file(path.string());
  EXPECT_EQ(back.snapshots.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Mrt, SimulatedSnapshotSurvivesMrtAndYieldsSameAtoms) {
  // Full-circle: simulate -> export MRT per collector -> concatenate ->
  // import -> sanitize -> atoms. The atom structure must be identical to
  // the direct pipeline (statuses are dropped by MRT, so run the direct
  // pipeline without abnormal peers for a fair comparison: era 2012 has
  // none).
  routing::Simulator sim(
      topo::generate_topology(topo::era_params_v4(2012.0, 0.005), 5));
  sim.capture();
  const auto& ds = sim.dataset();

  std::vector<std::uint8_t> all;
  for (std::uint16_t c = 0; c < ds.collectors.size(); ++c) {
    const auto bytes = write_mrt_rib(ds, 0, c);
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  const Dataset back = read_mrt(all);

  const auto direct = core::compute_atoms(core::sanitize(ds, 0));
  // MRT import produces one snapshot per collector's PEER_INDEX_TABLE;
  // merge them back into one by re-homing all peers into snapshot 0.
  Dataset merged = back;
  while (merged.snapshots.size() > 1) {
    auto& extra = merged.snapshots.back();
    for (auto& feed : extra.peers) {
      merged.snapshots[0].peers.push_back(std::move(feed));
    }
    merged.snapshots.pop_back();
  }
  const auto via_mrt = core::compute_atoms(core::sanitize(merged, 0));
  EXPECT_EQ(via_mrt.atoms.size(), direct.atoms.size());
}

}  // namespace
}  // namespace bgpatoms::bgp
