// Unit tests for the AS-path model, including the paper's §3.4.2
// prepending semantics and the AS_SET handling of §2.4.4.
#include <gtest/gtest.h>

#include <map>

#include "net/aspath.h"
#include "net/rng.h"

namespace bgpatoms::net {
namespace {

TEST(AsPath, SequenceBasics) {
  const auto p = AsPath::sequence({10, 20, 30});
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.selection_length(), 3);
  EXPECT_EQ(p.origin(), 30u);
  EXPECT_EQ(p.to_string(), "10 20 30");
}

TEST(AsPath, EmptyPath) {
  const AsPath p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.selection_length(), 0);
  EXPECT_EQ(p.origin(), std::nullopt);
  EXPECT_EQ(p.to_string(), "");
}

TEST(AsPath, ParseSimple) {
  const auto p = AsPath::parse("1 2 3");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, AsPath::sequence({1, 2, 3}));
}

TEST(AsPath, ParseWithAsSet) {
  // The paper's notation: "1 2 [3 4 5]".
  const auto p = AsPath::parse("1 2 [3 4 5]");
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->segments().size(), 2u);
  EXPECT_EQ(p->segments()[0].type, SegmentType::kSequence);
  EXPECT_EQ(p->segments()[1].type, SegmentType::kSet);
  EXPECT_EQ(p->to_string(), "1 2 [3 4 5]");
  EXPECT_TRUE(p->has_set());
  EXPECT_EQ(p->selection_length(), 3);  // a set counts as one hop
}

TEST(AsPath, ParseRejectsMalformed) {
  EXPECT_FALSE(AsPath::parse("1 [2").has_value());
  EXPECT_FALSE(AsPath::parse("1 ]2[").has_value());
  EXPECT_FALSE(AsPath::parse("1 [[2]]").has_value());
  EXPECT_FALSE(AsPath::parse("[]").has_value());
  EXPECT_FALSE(AsPath::parse("1 x 2").has_value());
}

TEST(AsPath, ParseEmptyString) {
  const auto p = AsPath::parse("");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST(AsPath, OriginAfterAggregation) {
  // Origin is known only for sequences and singleton sets.
  EXPECT_EQ(AsPath::parse("1 2 [3]")->origin(), 3u);
  EXPECT_EQ(AsPath::parse("1 2 [3 4]")->origin(), std::nullopt);
}

TEST(AsPath, SingletonSetExpansion) {
  const auto p = *AsPath::parse("1 2 [3]");
  EXPECT_TRUE(p.sets_all_singleton());
  const auto expanded = p.with_singleton_sets_expanded();
  EXPECT_FALSE(expanded.has_set());
  EXPECT_EQ(expanded, AsPath::sequence({1, 2, 3}));
}

TEST(AsPath, SingletonSetExpansionInMiddle) {
  const auto p = *AsPath::parse("1 [2] 3");
  const auto expanded = p.with_singleton_sets_expanded();
  EXPECT_EQ(expanded, AsPath::sequence({1, 2, 3}));
}

TEST(AsPath, MultiSetNotExpanded) {
  const auto p = *AsPath::parse("1 [2 3]");
  EXPECT_FALSE(p.sets_all_singleton());
  EXPECT_TRUE(p.with_singleton_sets_expanded().has_set());
}

TEST(AsPath, StrippedCollapsesPrepending) {
  const auto p = AsPath::sequence({1, 2, 2, 2, 3, 3});
  EXPECT_EQ(p.stripped(), AsPath::sequence({1, 2, 3}));
  // Idempotent.
  EXPECT_EQ(p.stripped().stripped(), p.stripped());
}

TEST(AsPath, StrippedKeepsNonAdjacentDuplicates) {
  const auto p = AsPath::sequence({1, 2, 1});
  EXPECT_EQ(p.stripped(), p);
}

TEST(AsPath, RunsFromOriginReversesAndCounts) {
  // Wire order: head first, origin last. 30 is the origin, prepended x3.
  const auto p = AsPath::sequence({10, 20, 20, 30, 30, 30});
  const auto runs = p.runs_from_origin();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (AsRun{30, 3}));
  EXPECT_EQ(runs[1], (AsRun{20, 2}));
  EXPECT_EQ(runs[2], (AsRun{10, 1}));
}

TEST(AsPath, FlatConcatenatesSegments) {
  const auto p = *AsPath::parse("1 2 [3 4]");
  EXPECT_EQ(p.flat(), (std::vector<Asn>{1, 2, 3, 4}));
}

TEST(AsPath, FromSegmentsDropsEmpty) {
  const auto p = AsPath::from_segments(
      {{SegmentType::kSequence, {}}, {SegmentType::kSequence, {1, 2}}});
  EXPECT_EQ(p, AsPath::sequence({1, 2}));
}

TEST(AsPath, HashDiffersForSetVsSequence) {
  EXPECT_NE(AsPath::parse("1 [2]")->hash(), AsPath::parse("1 2")->hash());
  EXPECT_NE(AsPath::sequence({1, 2}).hash(), AsPath::sequence({2, 1}).hash());
}

TEST(AsPath, ComparisonIsStructural) {
  EXPECT_EQ(*AsPath::parse("1 2 [3 4]"), *AsPath::parse("1 2 [3 4]"));
  EXPECT_NE(*AsPath::parse("1 2 [3 4]"), *AsPath::parse("1 2 3 4"));
}

TEST(PathPool, EmptyPathIsIdZero) {
  PathPool pool;
  EXPECT_EQ(pool.intern(AsPath()), PathPool::kEmptyPathId);
  EXPECT_TRUE(pool.get(PathPool::kEmptyPathId).empty());
  EXPECT_EQ(pool.size(), 1u);
}

TEST(PathPool, InternDeduplicates) {
  PathPool pool;
  const auto a = pool.intern(AsPath::sequence({1, 2, 3}));
  const auto b = pool.intern(AsPath::sequence({1, 2, 3}));
  const auto c = pool.intern(AsPath::sequence({1, 2, 4}));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.size(), 3u);  // empty + two distinct
  EXPECT_EQ(pool.get(a), AsPath::sequence({1, 2, 3}));
}

TEST(PathPool, PrependingCreatesDistinctIds) {
  PathPool pool;
  const auto a = pool.intern(AsPath::sequence({1, 2, 3}));
  const auto b = pool.intern(AsPath::sequence({1, 2, 2, 3}));
  EXPECT_NE(a, b);
}

TEST(PathPool, ManyPathsStayConsistent) {
  PathPool pool;
  std::vector<PathPool::PathId> ids;
  for (Asn a = 1; a <= 500; ++a) {
    ids.push_back(pool.intern(AsPath::sequence({a, a + 1, a + 2})));
  }
  for (Asn a = 1; a <= 500; ++a) {
    EXPECT_EQ(pool.intern(AsPath::sequence({a, a + 1, a + 2})), ids[a - 1]);
  }
  EXPECT_EQ(pool.size(), 501u);
}

TEST(PathPool, IdentityIsStructural) {
  PathPool pool;
  const auto seq = pool.intern(AsPath::sequence({1, 2}));
  const auto set = pool.intern(*AsPath::parse("1 [2]"));
  const auto split = pool.intern(AsPath::from_segments(
      {{SegmentType::kSequence, {1}}, {SegmentType::kSequence, {2}}}));
  EXPECT_NE(seq, set);
  EXPECT_NE(seq, split);
  EXPECT_NE(set, split);
  EXPECT_EQ(pool.get(split).segments().size(), 2u);
  // A one-segment sequence layout is the single-sequence path.
  const Asn hops[] = {1, 2};
  const SegmentEnd one[] = {{SegmentType::kSequence, 2}};
  EXPECT_EQ(pool.intern(hops, one), seq);
}

// A random path from a small ASN alphabet, so that equal paths recur, in
// the shapes the pool must keep apart: the empty path, long prepend runs,
// AS_SETs at the head, middle and tail, singleton sets and two adjacent
// AS_SEQUENCE segments.
AsPath random_path(Rng& rng) {
  const auto hops = [&](std::uint64_t max_len) {
    std::vector<Asn> v(1 + rng.next_below(max_len));
    for (auto& a : v) a = static_cast<Asn>(1 + rng.next_below(40));
    return v;
  };
  const auto seq = SegmentType::kSequence;
  const auto set = SegmentType::kSet;
  switch (rng.next_below(8)) {
    case 0:
      return AsPath();
    case 1: {
      auto v = hops(4);
      const Asn prepended = v[rng.next_below(v.size())];
      const auto at = static_cast<std::ptrdiff_t>(rng.next_below(v.size()));
      v.insert(v.begin() + at, 2 + rng.next_below(30), prepended);
      return AsPath::sequence(v);
    }
    case 2:
      return AsPath::from_segments({{set, hops(3)}, {seq, hops(4)}});
    case 3:
      return AsPath::from_segments({{seq, hops(3)}, {set, hops(3)}, {seq, hops(3)}});
    case 4:
      return AsPath::from_segments({{seq, hops(5)}, {set, hops(3)}});
    case 5:
      return AsPath::from_segments({{seq, hops(4)}, {set, hops(1)}, {seq, hops(2)}});
    case 6:
      return AsPath::from_segments({{seq, hops(3)}, {seq, hops(3)}});
    default:
      return AsPath::sequence(hops(6));
  }
}

// Every intern entry point against a std::map reference: an AsPath, a span
// with its layout, a view from another pool, a view from the same pool, a
// sub-span of the pool's own hop arena and a layout from its own layout
// arena. Ids are dense in first-intern order, so the reference id of a new
// path is the map's size.
TEST(PathPool, MatchesMapReference) {
  PathPool pool;
  PathPool other;
  std::map<AsPath, PathPool::PathId> ref{{AsPath(), PathPool::kEmptyPathId}};
  const auto expect_id = [&](const AsPath& path, PathPool::PathId got) {
    const auto [it, inserted] =
        ref.emplace(path, static_cast<PathPool::PathId>(ref.size()));
    EXPECT_EQ(got, it->second) << path.to_string();
  };

  Rng rng(0x9a7b);
  for (int round = 0; round < 4000; ++round) {
    const AsPath path = random_path(rng);
    expect_id(path, pool.intern(path));
    const PathView view = path;
    expect_id(path, pool.intern(view.hops(), view.layout()));
    expect_id(path, pool.intern(other.get(other.intern(path))));
    // The same hops as one AS_SEQUENCE: a set, or a seam between two
    // sequences, must keep it a different path.
    const AsPath merged = AsPath::sequence(path.flat());
    expect_id(merged, pool.intern(merged));

    const PathPool::PathId id = static_cast<PathPool::PathId>(
        rng.next_below(pool.size()));
    EXPECT_EQ(pool.intern(pool.get(id)), id);
    // A tail of a stored path's hops, read from the arena the intern may
    // grow and move.
    const auto stored = pool.get(id).hops();
    const auto tail = stored.subspan(rng.next_below(stored.size() + 1));
    const AsPath want = AsPath::sequence({tail.begin(), tail.end()});
    expect_id(want, pool.intern(tail));
    // A stored path's layout over other hops: a new path whose layout
    // the intern reads from the pool's own layout arena.
    const PathView shape = pool.get(id);
    std::vector<Asn> shifted(shape.hops().begin(), shape.hops().end());
    for (auto& a : shifted) a += 1000;
    const PathView reshaped(shifted, shape.layout());
    const AsPath want_reshaped(reshaped);
    expect_id(want_reshaped, pool.intern(reshaped));
  }
  // 4000 rounds store thousands of paths: the index doubled many times.
  ASSERT_GT(ref.size(), 2000u);
  ASSERT_EQ(pool.size(), ref.size());

  PathPool copy = pool;
  for (const auto& [path, id] : ref) {
    EXPECT_EQ(AsPath(pool.get(id)), path) << "id " << id;
    EXPECT_EQ(copy.intern(path), id) << path.to_string();
  }
  EXPECT_EQ(copy.size(), ref.size());
  const AsPath fresh = AsPath::sequence({1000, 2000});
  EXPECT_EQ(copy.intern(fresh), pool.intern(fresh));
}

}  // namespace
}  // namespace bgpatoms::net
