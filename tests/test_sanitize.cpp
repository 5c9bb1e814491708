// Tests for the §2.4 sanitization pipeline on hand-built dirty datasets,
// plus a seeded differential test against the reference implementation in
// sanitize_reference.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/views.h"
#include "core/sanitize.h"
#include "net/rng.h"
#include "sanitize_reference.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

TEST(Sanitize, FullFeedInference) {
  DatasetBuilder b;
  b.collector("rrc00");
  // Peer 1: 20 prefixes (the max). Peer 2: 19 (95% >= 90%: kept). Peer 3:
  // 9 (45%: cut). The rule is "at least 90% of the maximum count" (§2.4).
  b.peer(100);
  for (int i = 0; i < 20; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 19; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  b.peer(300);
  for (int i = 0; i < 9; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "300 50");
  }

  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.max_unique_prefixes, 20u);
  EXPECT_EQ(snap.report.full_feed_peers, 2u);
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 300u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kPartialFeed);
}

TEST(Sanitize, ExactlyNinetyPercentIsFullFeed) {
  // Boundary regression (§2.4): 0.9 × 10 = 9 exactly, and a peer carrying
  // exactly the threshold count qualifies — the rule is >=, not >. A peer
  // one prefix short does not.
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 9; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  b.peer(300);
  for (int i = 0; i < 8; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "300 50");
  }
  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.full_feed_peers, 2u);
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 300u);
}

TEST(Sanitize, BinaryEpsilonAtTheFullFeedBoundary) {
  // 0.8 has no exact binary representation: 0.8 * 35 computes to
  // 28.000000000000004, so a bare ceil() would demand 29 prefixes and
  // silently drop a peer sitting exactly at 80%. The threshold is
  // computed as ceil(fraction * max - 1e-9) to keep the >= rule exact
  // under that representation error; this pins it.
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 35; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);  // exactly 28 of 35 = 80%: must qualify
  for (int i = 0; i < 28; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  b.peer(300);  // 27 of 35: one short, must not
  for (int i = 0; i < 27; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "300 50");
  }
  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  config.full_feed_fraction = 0.8;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.full_feed_peers, 2u);
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 300u);
}

TEST(Sanitize, FullFeedThresholdConfigurable) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 5; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  SanitizeConfig config;
  config.min_collectors = 1;
  config.min_peer_ases = 1;
  config.full_feed_fraction = 0.4;  // 5/10 > 40%: both kept
  EXPECT_EQ(sanitize(b.dataset(), 0, config).report.full_feed_peers, 2u);
}

TEST(Sanitize, AddPathBrokenPeerRemoved) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 20; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(666);
  for (int i = 0; i < 20; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "666 50",
            i % 5 == 0 ? bgp::RecordStatus::kCorruptSubtype
                       : bgp::RecordStatus::kValid);
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 666u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kAddPathArtifacts);
}

TEST(Sanitize, PrivateAsnInjectorRemoved) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(25885);  // the paper's misconfigured peer
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16",
            i < 6 ? "25885 65000 50" : "25885 50");
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 25885u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kPrivateAsnInjection);
  EXPECT_NEAR(snap.report.removed_peers[0].artifact_share, 0.6, 0.01);
}

TEST(Sanitize, OwnPrivateAsnHeadDoesNotTriggerRemoval) {
  // A private peer ASN in the FIRST hop is the peer itself (common for
  // route servers); only bogons deeper in the path signal injection.
  DatasetBuilder b;
  b.peer(65000);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "65000 50");
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  EXPECT_TRUE(snap.report.removed_peers.empty());
}

TEST(Sanitize, DuplicateEmitterRemoved) {
  DatasetBuilder b;
  b.peer(100);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "100 50");
  }
  b.peer(200);
  for (int i = 0; i < 10; ++i) {
    b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
    if (i < 2) b.route("10." + std::to_string(i) + ".0.0/16", "200 50");
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config_with_abnormal());
  ASSERT_EQ(snap.report.removed_peers.size(), 1u);
  EXPECT_EQ(snap.report.removed_peers[0].peer.asn, 200u);
  EXPECT_EQ(snap.report.removed_peers[0].reason,
            PeerRemovalReason::kExcessiveDuplicates);
}

TEST(Sanitize, VisibilityFilterCollectors) {
  DatasetBuilder b;
  b.collector("rrc00").collector("rrc01");
  // Prefix A seen at both collectors (4 peer ASes), prefix B only at one.
  for (int coll = 0; coll < 2; ++coll) {
    for (int p = 0; p < 2; ++p) {
      b.peer(100 + coll * 10 + p, static_cast<std::uint16_t>(coll));
      b.route("10.0.0.0/16", "1 50");
      if (coll == 0) b.route("10.1.0.0/16", "1 50");
    }
  }
  SanitizeConfig config;
  config.min_collectors = 2;
  config.min_peer_ases = 4;
  config.full_feed_only = false;  // isolate the visibility filter
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);
  EXPECT_EQ(snap.report.prefixes_dropped_visibility, 1u);
  ASSERT_EQ(snap.prefixes.size(), 1u);
  EXPECT_EQ(snap.prefix(snap.prefixes[0]), *net::Prefix::parse("10.0.0.0/16"));
}

TEST(Sanitize, VisibilityFilterPeerAses) {
  DatasetBuilder b;
  b.collector("rrc00").collector("rrc01");
  // Prefix seen at 2 collectors but only 3 distinct peer ASes.
  b.peer(100, 0).route("10.0.0.0/16", "1 50");
  b.peer(200, 1).route("10.0.0.0/16", "1 50");
  b.peer(300, 0).route("10.0.0.0/16", "1 50");
  SanitizeConfig config;
  config.min_collectors = 2;
  config.min_peer_ases = 4;
  config.full_feed_only = false;
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.prefixes_kept, 0u);
}

TEST(Sanitize, LengthFilterPerFamily) {
  DatasetBuilder b4(net::Family::kIPv4);
  b4.peer(100).route("10.0.0.0/24", "1 50").route("10.1.0.0/25", "1 50");
  auto snap = sanitize(b4.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.prefixes_dropped_length, 1u);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);

  DatasetBuilder b6(net::Family::kIPv6);
  b6.peer(100)
      .route("2001:db8::/48", "1 50")
      .route("2001:db9::/49", "1 50");
  snap = sanitize(b6.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.prefixes_dropped_length, 1u);
}

TEST(Sanitize, LengthFilterDisabled) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/28", "1 50");
  auto config = test::lax_config();
  config.max_prefix_length = 128;  // the 2002 reproduction setting (§3.1.3)
  const auto snap = sanitize(b.dataset(), 0, config);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);
}

TEST(Sanitize, SingletonAsSetExpanded) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 2 [3]");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.asset_paths_expanded, 1u);
  ASSERT_EQ(snap.vps.size(), 1u);
  ASSERT_EQ(snap.vps[0].routes.size(), 1u);
  const auto& path = snap.paths.get(snap.vps[0].routes[0].second);
  EXPECT_FALSE(path.has_set());
  EXPECT_EQ(path, net::AsPath::sequence({100, 2, 3}));
}

TEST(Sanitize, MultiMemberAsSetDropped) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 2 [3 4]")
      .route("10.1.0.0/16", "100 2 5");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.records_dropped_asset, 1u);
  EXPECT_EQ(snap.vps[0].routes.size(), 1u);
}

TEST(Sanitize, CorruptRecordsDropped) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 50", bgp::RecordStatus::kInvalidNlri)
      .route("10.1.0.0/16", "100 50");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.records_dropped_corrupt, 1u);
  EXPECT_EQ(snap.vps[0].routes.size(), 1u);
}

TEST(Sanitize, DuplicateRecordsCollapse) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 50")
      .route("10.0.0.0/16", "100 50")
      .route("10.0.0.0/16", "100 60 50");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  ASSERT_EQ(snap.vps[0].routes.size(), 1u);
}

TEST(Sanitize, DedupKeepsFirstRecordInFeedOrder) {
  // Peer 200 announces 10.0/16 via "7 6", then again via "9 8". The first
  // record wins, whether or not another peer interned "9 8" earlier: one
  // VP's cleaned table must not depend on which other peers are kept.
  for (const bool with_peer_100 : {true, false}) {
    SCOPED_TRACE(with_peer_100 ? "with peer 100" : "without peer 100");
    DatasetBuilder b;
    if (with_peer_100) b.peer(100).route("10.1.0.0/16", "9 8");
    b.peer(200).route("10.0.0.0/16", "7 6").route("10.0.0.0/16", "9 8");
    const auto snap = sanitize(b.dataset(), 0, test::lax_config());
    const auto& table = snap.vps.back();
    ASSERT_EQ(table.peer.asn, 200u);
    ASSERT_EQ(table.routes.size(), 1u);
    EXPECT_EQ(snap.paths.get(table.routes[0].second),
              net::AsPath::sequence({7, 6}));
  }
}

TEST(Sanitize, MoasCountedNotRemoved) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 2");  // different origin
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(snap.report.moas_prefixes, 1u);
  EXPECT_EQ(snap.report.prefixes_kept, 1u);  // kept, per §2.4.3
}

TEST(Sanitize, PathForLookup) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.2.0.0/16", "100 2");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto& table = snap.vps[0];
  const auto present = snap.prefixes[0];
  EXPECT_NE(table.path_for(present), net::PathPool::kEmptyPathId);
  EXPECT_EQ(table.path_for(9999), net::PathPool::kEmptyPathId);
}

/// Seeded dirty snapshots covering every rule sanitize applies:
/// duplicates with differing paths, singleton and multi-member AS_SETs,
/// bogons at and behind the head hop, ADD-PATH statuses, peers sharing a
/// collector, an ASN or both, partial feeds, over-long prefixes, MOAS,
/// unsorted feeds, and dictionary entries no record uses.
bgp::Dataset random_dirty_dataset(std::uint64_t seed) {
  Rng rng(seed);
  bgp::Dataset ds;
  ds.family = seed % 5 == 4 ? net::Family::kIPv6 : net::Family::kIPv4;
  ds.collectors = {"rrc00", "rrc01", "rrc02"};
  const bool v4 = ds.family == net::Family::kIPv4;

  struct PrefixPlan {
    bgp::PrefixId id = 0;
    net::Asn origin = 0;
  };
  std::vector<PrefixPlan> plan;
  const auto num_prefixes = 30 + rng.next_below(40);
  for (std::uint64_t i = 0; i < num_prefixes; ++i) {
    const auto n = static_cast<std::uint32_t>(i + 1);
    const net::Prefix prefix =
        v4 ? net::Prefix::v4((10u << 24) | (n << 16),
                             static_cast<int>(rng.next_int(16, 27)))
           : net::Prefix::v6(0x20010db800000000ULL | (std::uint64_t{n} << 16),
                             0, static_cast<int>(rng.next_int(40, 56)));
    const auto id = ds.prefixes.intern(prefix);
    // Every fifth prefix stays in the dictionary only.
    if (i % 5 != 3) {
      plan.push_back({id, static_cast<net::Asn>(1000 + rng.next_below(12))});
    }
  }

  const auto random_path = [&](net::Asn head, net::Asn origin,
                               bool inject_bogon) {
    if (rng.chance(0.01)) return net::AsPath{};
    std::vector<net::PathSegment> segs;
    std::vector<net::Asn> hops = {rng.chance(0.95) ? head : net::Asn{65010}};
    const auto middle = rng.next_below(3);
    for (std::uint64_t h = 0; h < middle; ++h) {
      hops.push_back(static_cast<net::Asn>(20 + rng.next_below(6)));
    }
    if (inject_bogon || rng.chance(0.03)) {
      const net::Asn bogons[] = {65000, 64512, 23456, 0, 4200000001u};
      hops.push_back(bogons[rng.next_below(5)]);
    }
    if (rng.chance(0.05)) {  // a singleton set in the middle
      segs.push_back({net::SegmentType::kSequence, hops});
      hops = {static_cast<net::Asn>(30 + rng.next_below(3))};
      segs.push_back({net::SegmentType::kSet, hops});
      hops.clear();
    }
    const double tail = rng.next_double();
    if (tail < 0.08) {  // singleton AS_SET origin
      segs.push_back({net::SegmentType::kSequence, hops});
      segs.push_back({net::SegmentType::kSet, {origin}});
    } else if (tail < 0.13) {  // multi-member AS_SET
      segs.push_back({net::SegmentType::kSequence, hops});
      segs.push_back({net::SegmentType::kSet, {origin, origin + 1}});
    } else {
      hops.push_back(origin);
      segs.push_back({net::SegmentType::kSequence, hops});
    }
    return net::AsPath::from_segments(std::move(segs));
  };

  const net::Asn peer_asns[] = {100, 200, 300, 400, 64600};
  for (bgp::Timestamp t : {bgp::Timestamp{1000}, bgp::Timestamp{2000}}) {
    bgp::Snapshot snap;
    snap.timestamp = t;
    const auto num_peers = 5 + rng.next_below(9);
    for (std::uint64_t k = 0; k < num_peers; ++k) {
      bgp::PeerFeed feed;
      feed.peer.asn = peer_asns[rng.next_below(5)];
      feed.peer.collector = static_cast<bgp::CollectorIndex>(rng.next_below(3));
      feed.peer.address =
          net::IpAddress::v4(0x0A000000u + static_cast<std::uint32_t>(k));
      const double coverage =
          rng.chance(0.7) ? 1.0 : 0.4 + 0.5 * rng.next_double();
      const double corrupt = rng.chance(0.15) ? 0.06 : 0.005;
      const double dups = rng.chance(0.2) ? 0.2 : 0.03;
      const bool injector = rng.chance(0.15);
      for (const auto& p : plan) {
        if (rng.next_double() >= coverage) continue;
        const net::Asn origin = rng.chance(0.08) ? p.origin + 50 : p.origin;
        const auto copies = rng.chance(dups) ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
          bgp::RibRecord rec;
          rec.prefix = p.id;
          rec.path = ds.paths.intern(random_path(
              feed.peer.asn, origin, injector && rng.chance(0.4)));
          if (rng.chance(corrupt)) {
            rec.status = rng.chance(0.5) ? bgp::RecordStatus::kCorruptSubtype
                                         : bgp::RecordStatus::kInvalidNlri;
          }
          feed.records.push_back(rec);
        }
      }
      if (rng.chance(0.4)) rng.shuffle(feed.records);
      snap.peers.push_back(std::move(feed));
    }
    ds.snapshots.push_back(std::move(snap));
  }
  return ds;
}

/// Requires every field of the two sanitized snapshots to be equal.
void expect_same_snapshot(const SanitizedSnapshot& got,
                          const SanitizedSnapshot& want) {
  EXPECT_EQ(got.prefix_pool, want.prefix_pool);
  EXPECT_EQ(got.timestamp, want.timestamp);
  const auto& g = got.report;
  const auto& w = want.report;
  EXPECT_EQ(g.peers_in, w.peers_in);
  EXPECT_EQ(g.full_feed_peers, w.full_feed_peers);
  EXPECT_EQ(g.max_unique_prefixes, w.max_unique_prefixes);
  EXPECT_EQ(g.prefixes_in, w.prefixes_in);
  EXPECT_EQ(g.prefixes_kept, w.prefixes_kept);
  EXPECT_EQ(g.prefixes_dropped_visibility, w.prefixes_dropped_visibility);
  EXPECT_EQ(g.prefixes_dropped_length, w.prefixes_dropped_length);
  EXPECT_EQ(g.records_dropped_corrupt, w.records_dropped_corrupt);
  EXPECT_EQ(g.records_dropped_asset, w.records_dropped_asset);
  EXPECT_EQ(g.asset_paths_expanded, w.asset_paths_expanded);
  EXPECT_EQ(g.moas_prefixes, w.moas_prefixes);
  ASSERT_EQ(g.removed_peers.size(), w.removed_peers.size());
  for (std::size_t i = 0; i < g.removed_peers.size(); ++i) {
    EXPECT_EQ(g.removed_peers[i].peer, w.removed_peers[i].peer);
    EXPECT_EQ(g.removed_peers[i].reason, w.removed_peers[i].reason);
    EXPECT_EQ(g.removed_peers[i].artifact_share,
              w.removed_peers[i].artifact_share);
  }
  ASSERT_EQ(got.vps.size(), want.vps.size());
  for (std::size_t i = 0; i < got.vps.size(); ++i) {
    EXPECT_EQ(got.vps[i].peer, want.vps[i].peer);
    EXPECT_EQ(got.vps[i].source_index, want.vps[i].source_index);
    EXPECT_EQ(got.vps[i].routes, want.vps[i].routes);
  }
  EXPECT_EQ(got.prefixes, want.prefixes);
  ASSERT_EQ(got.paths.size(), want.paths.size());
  for (bgp::PathId id = 0; id < got.paths.size(); ++id) {
    EXPECT_EQ(got.paths.get(id), want.paths.get(id)) << "path id " << id;
  }
}

TEST(Sanitize, MatchesReferenceOnRandomDirtySnapshots) {
  std::vector<SanitizeConfig> configs;
  for (int mask = 0; mask < 32; ++mask) {
    SanitizeConfig c;
    c.remove_abnormal_peers = (mask & 1) != 0;
    c.filter_prefixes = (mask & 2) != 0;
    c.full_feed_only = (mask & 4) != 0;
    c.max_prefix_length = (mask & 8) != 0 ? 128 : 0;
    if ((mask & 16) != 0) {  // thresholds small tables can pass
      c.min_collectors = 1;
      c.min_peer_ases = 2;
      c.full_feed_fraction = 0.6;
    }
    configs.push_back(c);
  }
  SanitizeReport seen;  // coverage of the generator under the defaults
  std::size_t removed[4] = {};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const bgp::Dataset ds = random_dirty_dataset(seed);
    const bgp::DatasetView view(ds);
    for (std::size_t s = 0; s < ds.snapshots.size(); ++s) {
      for (std::size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " snapshot " +
                     std::to_string(s) + " config " + std::to_string(c));
        const auto got = sanitize(view, ds.snapshots[s], configs[c]);
        expect_same_snapshot(
            got, test::reference_sanitize(view, ds.snapshots[s], configs[c]));
        if (c != 7 && c != 23) continue;  // defaults, both threshold sets
        seen.records_dropped_corrupt += got.report.records_dropped_corrupt;
        seen.records_dropped_asset += got.report.records_dropped_asset;
        seen.asset_paths_expanded += got.report.asset_paths_expanded;
        seen.prefixes_dropped_length += got.report.prefixes_dropped_length;
        seen.prefixes_dropped_visibility +=
            got.report.prefixes_dropped_visibility;
        seen.prefixes_kept += got.report.prefixes_kept;
        seen.moas_prefixes += got.report.moas_prefixes;
        for (const auto& r : got.report.removed_peers) {
          ++removed[static_cast<int>(r.reason)];
        }
      }
    }
  }
  // Every rule fired somewhere, so the comparison above covered it.
  EXPECT_GT(seen.records_dropped_corrupt, 0u);
  EXPECT_GT(seen.records_dropped_asset, 0u);
  EXPECT_GT(seen.asset_paths_expanded, 0u);
  EXPECT_GT(seen.prefixes_dropped_length, 0u);
  EXPECT_GT(seen.prefixes_dropped_visibility, 0u);
  EXPECT_GT(seen.prefixes_kept, 0u);
  EXPECT_GT(seen.moas_prefixes, 0u);
  for (const std::size_t n : removed) EXPECT_GT(n, 0u);
}

TEST(Sanitize, ReasonStrings) {
  EXPECT_STREQ(to_string(PeerRemovalReason::kAddPathArtifacts),
               "ADD-PATH artifacts");
  EXPECT_STREQ(to_string(PeerRemovalReason::kPartialFeed), "partial feed");
}

}  // namespace
}  // namespace bgpatoms::core
