// Tests for the measurement-campaign simulator: capture shape, fault
// injection, determinism, events, and update emission.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "routing/simulator.h"

namespace bgpatoms::routing {
namespace {

Simulator make_sim(double year = 2012.0, double scale = 0.02,
                   std::uint64_t seed = 5, SimOptions opt = {}) {
  opt.seed = seed;
  return Simulator(
      topo::generate_topology(topo::era_params_v4(year, scale), seed), opt);
}

TEST(Simulator, CaptureProducesOneFeedPerVantagePoint) {
  auto sim = make_sim();
  const auto idx = sim.capture();
  EXPECT_EQ(idx, 0u);
  const auto& snap = sim.dataset().snapshots.at(0);
  EXPECT_EQ(snap.peers.size(), sim.topology().vantage_points.size());
  EXPECT_GT(bgp::Dataset::record_count(snap), 0u);
}

TEST(Simulator, PeerIdentitiesAreStableAndDistinct) {
  auto sim = make_sim();
  sim.capture();
  sim.advance_to(8 * kHour);
  sim.capture();
  const auto& ds = sim.dataset();
  std::unordered_set<std::uint32_t> addresses;
  for (std::size_t i = 0; i < ds.snapshots[0].peers.size(); ++i) {
    const auto& p0 = ds.snapshots[0].peers[i].peer;
    const auto& p1 = ds.snapshots[1].peers[i].peer;
    EXPECT_EQ(p0, p1) << "peer order must be stable across snapshots";
    EXPECT_TRUE(addresses.insert(p0.address.v4_value()).second);
  }
}

TEST(Simulator, RecordsSortedAndUniquePerPeer) {
  auto sim = make_sim();
  sim.capture();
  for (const auto& feed : sim.dataset().snapshots[0].peers) {
    if (sim.topology().vantage_points.empty()) break;
    // Find this VP's fault flags (order matches vantage_points).
    for (std::size_t i = 1; i < feed.records.size(); ++i) {
      EXPECT_LE(feed.records[i - 1].prefix, feed.records[i].prefix);
    }
  }
}

TEST(Simulator, DeterministicCapture) {
  auto a = make_sim(2012.0, 0.02, 9);
  auto b = make_sim(2012.0, 0.02, 9);
  a.capture();
  b.capture();
  const auto& sa = a.dataset().snapshots[0];
  const auto& sb = b.dataset().snapshots[0];
  ASSERT_EQ(sa.peers.size(), sb.peers.size());
  for (std::size_t i = 0; i < sa.peers.size(); ++i) {
    EXPECT_EQ(sa.peers[i].records.size(), sb.peers[i].records.size());
  }
  EXPECT_EQ(bgp::Dataset::record_count(sa), bgp::Dataset::record_count(sb));
}

TEST(Simulator, PartialFeedsShareFewerPrefixes) {
  auto sim = make_sim(2024.0, 0.02);
  sim.capture();
  const auto& vps = sim.topology().vantage_points;
  const auto& snap = sim.dataset().snapshots[0];
  std::size_t max_records = 0;
  for (const auto& feed : snap.peers) {
    max_records = std::max(max_records, feed.records.size());
  }
  for (std::size_t i = 0; i < vps.size(); ++i) {
    if (vps[i].share_fraction < 0.8) {
      EXPECT_LT(snap.peers[i].records.size(), max_records * 9 / 10)
          << "partial feed " << i << " shares a full table";
    }
  }
}

TEST(Simulator, AddPathBrokenPeersEmitMalformedRecords) {
  auto sim = make_sim(2022.0, 0.02);  // era with ADD-PATH breakage
  sim.capture();
  const auto& vps = sim.topology().vantage_points;
  const auto& snap = sim.dataset().snapshots[0];
  bool any_broken = false;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    std::size_t corrupt = 0;
    for (const auto& rec : snap.peers[i].records) {
      corrupt += bgp::is_addpath_artifact(rec.status);
    }
    if (vps[i].addpath_broken) {
      any_broken = true;
      EXPECT_GT(corrupt, snap.peers[i].records.size() / 50)
          << "broken peer " << i << " looks clean";
    } else {
      EXPECT_EQ(corrupt, 0u) << "healthy peer " << i << " emits garbage";
    }
  }
  EXPECT_TRUE(any_broken);
}

TEST(Simulator, PrivateAsnInjectorRewritesPaths) {
  auto sim = make_sim(2021.5, 0.02);  // AS25885-style window
  sim.capture();
  const auto& vps = sim.topology().vantage_points;
  const auto& ds = sim.dataset();
  const auto& snap = ds.snapshots[0];
  bool found_injector = false;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    std::size_t with_private = 0;
    for (const auto& rec : snap.peers[i].records) {
      const auto hops = ds.paths.get(rec.path).flat();
      for (std::size_t h = 1; h < hops.size(); ++h) {
        if (hops[h] == 65000) {
          ++with_private;
          break;
        }
      }
    }
    if (vps[i].private_asn_injector) {
      found_injector = true;
      EXPECT_GT(with_private, snap.peers[i].records.size() / 4);
    } else {
      EXPECT_EQ(with_private, 0u);
    }
  }
  EXPECT_TRUE(found_injector);
}

TEST(Simulator, DuplicateEmitterRepeatsPrefixes) {
  auto sim = make_sim(2022.0, 0.02);
  sim.capture();
  const auto& vps = sim.topology().vantage_points;
  const auto& snap = sim.dataset().snapshots[0];
  for (std::size_t i = 0; i < vps.size(); ++i) {
    std::unordered_set<bgp::PrefixId> seen;
    std::size_t dup = 0;
    for (const auto& rec : snap.peers[i].records) {
      if (!seen.insert(rec.prefix).second) ++dup;
    }
    if (vps[i].duplicate_emitter) {
      EXPECT_GT(dup, snap.peers[i].records.size() / 20);
    }
  }
}

TEST(Simulator, WeeklyChurnAppliesEventsInOrder) {
  SimOptions opt;
  opt.weekly_churn = true;
  auto sim = make_sim(2024.0, 0.02, 5, opt);
  sim.capture();
  const auto before = sim.events_applied();
  EXPECT_EQ(before, 0u);
  sim.advance_to(8 * kHour);
  const auto at8h = sim.events_applied();
  EXPECT_GT(at8h, 0u);
  sim.advance_to(kWeek);
  EXPECT_GT(sim.events_applied(), at8h);
}

TEST(Simulator, MoasTieKeepsTheLowerUnitsRoute) {
  // A unit whose policy is the default but for its communities, and a
  // second unit of the same origin announcing one of its prefixes with
  // the default policy (a moas_extra entry naming the owner itself): both
  // offer every VP one path for that prefix. The tie goes to the lower
  // unit id, the owner's, so each record keeps the owner's communities,
  // exactly as in a capture without the second unit.
  const topo::Topology base =
      topo::generate_topology(topo::era_params_v4(2024.75, 0.01), 3);
  const PolicySet policies = assign_policies(base, 3);
  const OriginUnit* owner = nullptr;
  for (const auto& unit : policies.units) {
    UnitPolicy plain = unit.policy;
    plain.communities.clear();
    const net::Prefix& first = policies.all_prefixes[unit.prefixes.at(0)];
    if (unit.policy.communities.empty() || !(plain == UnitPolicy{}) ||
        std::any_of(base.moas_extra.begin(), base.moas_extra.end(),
                    [&](const auto& extra) { return extra.second == first; })) {
      continue;
    }
    owner = &unit;
    break;
  }
  ASSERT_NE(owner, nullptr) << "no unit with communities only";
  const GlobalPrefixId prefix = owner->prefixes[0];

  SimOptions opt;
  opt.seed = 3;
  opt.weekly_churn = false;
  Simulator alone(base, opt);
  topo::Topology extended = base;
  extended.moas_extra.emplace_back(owner->origin,
                                   policies.all_prefixes[prefix]);
  Simulator twice(std::move(extended), opt);
  ASSERT_EQ(twice.policies().units.size(), policies.units.size() + 1);
  alone.capture();
  twice.capture();

  const auto record = [&](const Simulator& sim, std::size_t vp) {
    const auto& records = sim.dataset().snapshots[0].peers[vp].records;
    const auto it = std::find_if(
        records.begin(), records.end(), [&](const bgp::RibRecord& r) {
          return r.prefix == prefix && r.status == bgp::RecordStatus::kValid;
        });
    return it == records.end() ? nullptr : &*it;
  };
  std::size_t ties = 0;
  for (std::size_t vp = 0; vp < alone.topology().vantage_points.size();
       ++vp) {
    const bgp::RibRecord* a = record(alone, vp);
    const bgp::RibRecord* b = record(twice, vp);
    ASSERT_EQ(a == nullptr, b == nullptr) << "vp " << vp;
    if (a == nullptr) continue;
    const auto hops = [](const Simulator& sim, bgp::PathId id) {
      const auto flat = sim.dataset().paths.get(id).flat();
      return std::vector<net::Asn>(flat.begin(), flat.end());
    };
    EXPECT_EQ(hops(alone, a->path), hops(twice, b->path)) << "vp " << vp;
    EXPECT_EQ(alone.dataset().communities.get(a->communities),
              twice.dataset().communities.get(b->communities))
        << "vp " << vp;
    ++ties;
  }
  EXPECT_GT(ties, 0u);
}

TEST(Simulator, EventsChangeCapturedTables) {
  SimOptions opt;
  opt.weekly_churn = true;
  auto sim = make_sim(2024.0, 0.02, 5, opt);
  sim.capture();
  sim.advance_to(kWeek);
  sim.capture();
  ASSERT_GT(sim.events_applied(), 0u);
  const auto& ds = sim.dataset();
  // At least one peer's table content must differ between the snapshots.
  bool any_diff = false;
  for (std::size_t i = 0;
       i < ds.snapshots[0].peers.size() && !any_diff; ++i) {
    any_diff = ds.snapshots[0].peers[i].records !=
               ds.snapshots[1].peers[i].records;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Simulator, AdvanceBackwardsIsRejected) {
  auto sim = make_sim();
  sim.advance_to(kHour);
  EXPECT_EQ(sim.now(), kHour);
#ifndef NDEBUG
  EXPECT_DEATH(sim.advance_to(0), "");
#endif
}

TEST(Simulator, UpdatesAreTimestampSortedWithinWindow) {
  auto sim = make_sim(2012.0, 0.02);
  sim.capture();
  sim.emit_updates(4 * kHour);
  const auto& updates = sim.dataset().updates;
  ASSERT_GT(updates.size(), 0u);
  for (std::size_t i = 1; i < updates.size(); ++i) {
    EXPECT_LE(updates[i - 1].timestamp, updates[i].timestamp);
  }
  const auto t0 = sim.dataset().snapshots[0].timestamp;
  for (const auto& u : updates) {
    EXPECT_GE(u.timestamp, t0);
    // Chunk trains may spill a few seconds past the nominal window.
    EXPECT_LE(u.timestamp, t0 + 4 * kHour + 60);
  }
}

TEST(Simulator, UpdatesReferenceValidIds) {
  auto sim = make_sim(2012.0, 0.02);
  sim.capture();
  sim.emit_updates(kHour);
  const auto& ds = sim.dataset();
  for (const auto& u : ds.updates) {
    EXPECT_LT(u.peer, ds.snapshots[0].peers.size());
    EXPECT_LT(u.collector, ds.collectors.size());
    EXPECT_LT(u.path, ds.paths.size());
    for (auto p : u.announced) EXPECT_LT(p, ds.prefixes.size());
    for (auto p : u.withdrawn) EXPECT_LT(p, ds.prefixes.size());
  }
}

TEST(Simulator, DropSnapshotKeepsOthers) {
  auto sim = make_sim();
  sim.capture();
  sim.advance_to(kDay);
  sim.capture();
  sim.advance_to(2 * kDay);
  sim.capture();
  const auto t1 = sim.dataset().snapshots[1].timestamp;
  sim.drop_snapshot(0);
  ASSERT_EQ(sim.dataset().snapshots.size(), 2u);
  EXPECT_EQ(sim.dataset().snapshots[0].timestamp, t1);
}

TEST(Simulator, DropSnapshotMiddleAndLast) {
  auto sim = make_sim();
  sim.capture();
  sim.advance_to(kDay);
  sim.capture();
  sim.advance_to(2 * kDay);
  sim.capture();
  const auto t0 = sim.dataset().snapshots[0].timestamp;
  const auto t2 = sim.dataset().snapshots[2].timestamp;

  sim.drop_snapshot(1);  // middle: neighbors must close ranks in order
  ASSERT_EQ(sim.dataset().snapshots.size(), 2u);
  EXPECT_EQ(sim.dataset().snapshots[0].timestamp, t0);
  EXPECT_EQ(sim.dataset().snapshots[1].timestamp, t2);

  sim.drop_snapshot(1);  // last: earlier snapshots untouched
  ASSERT_EQ(sim.dataset().snapshots.size(), 1u);
  EXPECT_EQ(sim.dataset().snapshots[0].timestamp, t0);

  sim.drop_snapshot(0);  // sole remaining snapshot
  EXPECT_TRUE(sim.dataset().snapshots.empty());
}

TEST(Simulator, DropSnapshotSupportsRollingWindowCampaign) {
  // The daily-splits workflow keeps a bounded window: capture a day,
  // analyze, drop the oldest. Record content must match a straight run
  // that never dropped anything.
  SimOptions opt;
  opt.weekly_churn = false;
  opt.daily_event_rate = 8.0;

  auto rolling = make_sim(2019.0, 0.02, 5, opt);
  auto straight = make_sim(2019.0, 0.02, 5, opt);
  for (int day = 0; day < 4; ++day) {
    rolling.advance_to(day * kDay + 1);
    rolling.capture();
    straight.advance_to(day * kDay + 1);
    straight.capture();
    while (rolling.dataset().snapshots.size() > 2) rolling.drop_snapshot(0);
    ASSERT_LE(rolling.dataset().snapshots.size(), 2u);
  }
  // The rolling window's snapshots are the straight run's last two.
  const auto& rs = rolling.dataset().snapshots;
  const auto& ss = straight.dataset().snapshots;
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_EQ(ss.size(), 4u);
  for (std::size_t w = 0; w < 2; ++w) {
    const auto& a = rs[w];
    const auto& b = ss[ss.size() - 2 + w];
    EXPECT_EQ(a.timestamp, b.timestamp);
    ASSERT_EQ(a.peers.size(), b.peers.size());
    for (std::size_t p = 0; p < a.peers.size(); ++p) {
      EXPECT_EQ(a.peers[p].records, b.peers[p].records);
    }
  }
}

TEST(Simulator, NonPositiveDailyEventRateSchedulesNothing) {
  for (const double rate : {0.0, -3.5}) {
    SimOptions opt;
    opt.weekly_churn = false;
    opt.daily_event_rate = rate;
    auto sim = make_sim(2019.0, 0.02, 5, opt);
    sim.capture();
    sim.advance_to(5 * kDay);
    sim.capture();
    EXPECT_EQ(sim.events_applied(), 0u) << "rate " << rate;
    // With no churn at all the two captures must be identical.
    const auto& ds = sim.dataset();
    ASSERT_EQ(ds.snapshots.size(), 2u);
    for (std::size_t p = 0; p < ds.snapshots[0].peers.size(); ++p) {
      EXPECT_EQ(ds.snapshots[0].peers[p].records,
                ds.snapshots[1].peers[p].records);
    }
  }
}

TEST(Simulator, DailyEventModeGeneratesSplits) {
  SimOptions opt;
  opt.weekly_churn = false;
  opt.daily_event_rate = 20.0;
  auto sim = make_sim(2019.0, 0.02, 5, opt);
  sim.capture();
  sim.advance_to(5 * kDay);
  EXPECT_GT(sim.events_applied(), 30u);
}

TEST(Simulator, CaptureAfterSplitsPropagatesOnlyTheNewUnits) {
  // The first simulated day schedules splits only (a merge reverses an
  // earlier split, and there is none yet). A split parent keeps its
  // origin, policy and scenario state, so its routes still hold: the next
  // capture propagates for the split-off units alone, at most once each.
  SimOptions opt;
  opt.weekly_churn = false;
  opt.daily_event_rate = 20.0;
  auto sim = make_sim(2019.0, 0.02, 5, opt);
  sim.capture();
  const std::size_t units = sim.policies().units.size();
  const std::size_t before = sim.propagations();
  EXPECT_GT(before, 0u);
  sim.advance_to(kDay);
  const std::size_t split_off = sim.policies().units.size() - units;
  ASSERT_GT(split_off, 5u);
  sim.capture();
  EXPECT_GT(sim.propagations(), before);
  EXPECT_LE(sim.propagations() - before, split_off);
}

}  // namespace
}  // namespace bgpatoms::routing
