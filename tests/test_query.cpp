// Query layer: AtomIndex longest-prefix-match resolution pinned against a
// linear-scan oracle (default route /0, host routes /32 and /128, IPv6,
// misses, aliased network addresses), batch-build identity vs
// compute_atoms(), and Timeline history / partition equivalence across
// snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/atoms.h"
#include "core/incremental.h"
#include "query/atom_index.h"
#include "query/timeline.h"
#include "testutil.h"

namespace bgpatoms::query {
namespace {

using test::DatasetBuilder;

/// Lax sanitize with prefix filtering fully off, so /0 and host routes
/// survive into the snapshot.
core::SanitizeConfig open_config() {
  core::SanitizeConfig config = test::lax_config();
  config.filter_prefixes = false;
  config.max_prefix_length = 128;
  return config;
}

net::IpAddress addr(const char* text) {
  return *net::IpAddress::parse(text);
}

/// The linear-scan LPM oracle the index must agree with bit-for-bit.
std::optional<net::Prefix> oracle_match(const core::SanitizedSnapshot& snap,
                                        const net::IpAddress& a) {
  std::optional<net::Prefix> best;
  for (const auto id : snap.prefixes) {
    const auto& p = snap.prefix(id);
    if (p.contains(a) && (!best || p.length() > best->length())) best = p;
  }
  return best;
}

/// member-set -> the per-VP path strings, for cross-representation
/// comparison (ids may differ between pools; rendered paths cannot).
std::map<std::vector<bgp::PrefixId>, std::vector<std::string>> index_paths(
    const AtomIndex& idx) {
  std::map<std::vector<bgp::PrefixId>, std::vector<std::string>> out;
  std::map<std::uint32_t, std::vector<bgp::PrefixId>> by_atom;
  for (std::uint32_t row = 0;
       row < static_cast<std::uint32_t>(idx.prefix_count()); ++row) {
    by_atom[idx.lookup(idx.prefix_at(row))->atom].push_back(
        idx.prefix_id_at(row));
  }
  for (auto& [atom, members] : by_atom) {
    std::sort(members.begin(), members.end());
    const AtomRecord* rec = idx.atom(atom);
    std::vector<std::string> paths;
    for (const auto& [vp, pid] : rec->paths) {
      paths.push_back(std::to_string(vp) + ":" +
                      std::string(idx.path_text(pid)));
    }
    out[members] = std::move(paths);
  }
  return out;
}

std::map<std::vector<bgp::PrefixId>, std::vector<std::string>> batch_paths(
    const core::AtomSet& atoms) {
  std::map<std::vector<bgp::PrefixId>, std::vector<std::string>> out;
  for (const auto& atom : atoms.atoms) {
    std::vector<std::string> paths;
    for (const auto& [vp, pid] : atom.paths) {
      paths.push_back(std::to_string(vp) + ":" +
                      atoms.paths().get(pid).to_string());
    }
    out[atom.prefixes] = std::move(paths);
  }
  return out;
}

/// Two peers over a default route, nested aliased prefixes and a host
/// route — the LPM edge cases in one table.
DatasetBuilder lpm_dataset() {
  DatasetBuilder b;
  b.peer(100)
      .route("0.0.0.0/0", "100 1")
      .route("10.0.0.0/8", "100 2")
      .route("10.0.0.0/16", "100 3")
      .route("10.0.0.7/32", "100 4");
  b.peer(200)
      .route("0.0.0.0/0", "200 1")
      .route("10.0.0.0/8", "200 2")
      .route("10.0.0.0/16", "200 3")
      .route("10.0.0.7/32", "200 4");
  return b;
}

TEST(AtomIndex, LongestMatchEdgeCases) {
  DatasetBuilder b = lpm_dataset();
  const auto snap = sanitize(b.dataset(), 0, open_config());
  ASSERT_EQ(snap.prefixes.size(), 4u);
  const core::AtomSet atoms = core::compute_atoms(snap);
  const AtomIndex idx = AtomIndex::build(atoms);
  EXPECT_EQ(idx.prefix_count(), 4u);

  // Host route beats the aliased /16 and /8 covering the same address.
  EXPECT_EQ(idx.lookup(addr("10.0.0.7"))->prefix.to_string(), "10.0.0.7/32");
  // One bit over falls through to the /16 …
  EXPECT_EQ(idx.lookup(addr("10.0.0.8"))->prefix.to_string(), "10.0.0.0/16");
  // … out of the /16 to the /8 …
  EXPECT_EQ(idx.lookup(addr("10.1.2.3"))->prefix.to_string(), "10.0.0.0/8");
  // … and anywhere else to the default route.
  EXPECT_EQ(idx.lookup(addr("192.0.2.1"))->prefix.to_string(), "0.0.0.0/0");

  // CIDR queries match covering-or-equal: the exact prefix if stored,
  // else the longest strict supernet.
  EXPECT_EQ(idx.lookup(*net::Prefix::parse("10.0.0.0/16"))->prefix.to_string(),
            "10.0.0.0/16");
  EXPECT_EQ(idx.lookup(*net::Prefix::parse("10.0.0.0/12"))->prefix.to_string(),
            "10.0.0.0/8");

  // Every answer above (and the atom it carries) agrees with the oracle.
  for (const char* probe : {"10.0.0.7", "10.0.0.8", "10.1.2.3", "192.0.2.1",
                            "0.0.0.0", "255.255.255.255"}) {
    const auto got = idx.lookup(addr(probe));
    const auto want = oracle_match(snap, addr(probe));
    ASSERT_EQ(got.has_value(), want.has_value()) << probe;
    if (got) {
      EXPECT_EQ(got->prefix, *want) << probe;
      EXPECT_EQ(got->atom, atoms.atom_of.at(idx.prefix_id_at(got->row)))
          << probe;
    }
  }
}

TEST(AtomIndex, MissWithoutDefaultRoute) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/8", "100 1");
  b.peer(200).route("10.0.0.0/8", "200 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const AtomIndex idx = AtomIndex::build(core::compute_atoms(snap));
  EXPECT_FALSE(idx.lookup(addr("11.0.0.1")).has_value());
  EXPECT_FALSE(idx.lookup(addr("9.255.255.255")).has_value());
  // A supernet of everything stored is not covered either.
  EXPECT_FALSE(idx.lookup(*net::Prefix::parse("0.0.0.0/0")).has_value());
  EXPECT_TRUE(idx.lookup(addr("10.200.0.1")).has_value());
}

TEST(AtomIndex, IPv6HostAndDefaultRoutes) {
  DatasetBuilder b(net::Family::kIPv6);
  b.peer(100)
      .route("::/0", "100 1")
      .route("2001:db8::/32", "100 2")
      .route("2001:db8::/48", "100 3")
      .route("2001:db8::7/128", "100 4");
  b.peer(200)
      .route("::/0", "200 1")
      .route("2001:db8::/32", "200 2")
      .route("2001:db8::/48", "200 3")
      .route("2001:db8::7/128", "200 4");
  const auto snap = sanitize(b.dataset(), 0, open_config());
  ASSERT_EQ(snap.prefixes.size(), 4u);
  const core::AtomSet atoms = core::compute_atoms(snap);
  const AtomIndex idx = AtomIndex::build(atoms);

  EXPECT_EQ(idx.lookup(addr("2001:db8::7"))->prefix.to_string(),
            "2001:db8::7/128");
  EXPECT_EQ(idx.lookup(addr("2001:db8::8"))->prefix.to_string(),
            "2001:db8::/48");
  EXPECT_EQ(idx.lookup(addr("2001:db8:1::1"))->prefix.to_string(),
            "2001:db8::/32");
  EXPECT_EQ(idx.lookup(addr("2001:db9::1"))->prefix.to_string(), "::/0");

  for (const char* probe :
       {"2001:db8::7", "2001:db8::8", "2001:db9::1", "::", "::1"}) {
    const auto got = idx.lookup(addr(probe));
    const auto want = oracle_match(snap, addr(probe));
    ASSERT_EQ(got.has_value(), want.has_value()) << probe;
    if (got) {
      EXPECT_EQ(got->prefix, *want) << probe;
      EXPECT_EQ(got->atom, atoms.atom_of.at(idx.prefix_id_at(got->row)))
          << probe;
    }
  }
}

/// Three peers, six prefixes in five atoms (one of size 2). 10.4/16 is
/// reached over prepended paths and 10.5/16 over singleton AS_SETs that
/// sanitize expands.
DatasetBuilder three_peer_dataset() {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2")
      .route("10.3.0.0/16", "100 3 1")
      .route("10.4.0.0/16", "100 100 4 4 1")
      .route("10.5.0.0/16", "100 [7] 1");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2")
      .route("10.3.0.0/16", "200 3 1")
      .route("10.4.0.0/16", "200 4 1")
      .route("10.5.0.0/16", "200 7 1");
  b.peer(300)
      .route("10.0.0.0/16", "300 1")
      .route("10.1.0.0/16", "300 1")
      .route("10.2.0.0/16", "300 2")
      .route("10.3.0.0/16", "300 1")
      .route("10.4.0.0/16", "300 4 4 4 1")
      .route("10.5.0.0/16", "300 [7] 1");
  return b;
}

TEST(AtomIndex, BatchBuildIsBitIdenticalToComputeAtoms) {
  DatasetBuilder b = three_peer_dataset();
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const core::AtomSet atoms = core::compute_atoms(snap);
  const AtomIndex idx = AtomIndex::build(atoms);

  EXPECT_EQ(idx.prefix_count(), snap.prefixes.size());
  EXPECT_EQ(idx.atom_count(), atoms.atoms.size());
  EXPECT_EQ(idx.vp_count(), snap.vps.size());
  EXPECT_EQ(idx.timestamp(), snap.timestamp);
  EXPECT_EQ(idx.partition_fingerprint(), core::partition_fingerprint(atoms));

  // Atom ids equal AtomSet indices: record contents must be identical.
  for (std::uint32_t i = 0; i < atoms.atoms.size(); ++i) {
    const AtomRecord* rec = idx.atom(i);
    ASSERT_NE(rec, nullptr);
    std::vector<bgp::PrefixId> members;
    for (const auto row : rec->rows) members.push_back(idx.prefix_id_at(row));
    EXPECT_EQ(members, atoms.atoms[i].prefixes);
    EXPECT_EQ(rec->paths, atoms.atoms[i].paths);
    EXPECT_EQ(rec->origin, atoms.atoms[i].origin);
    EXPECT_EQ(rec->moas, atoms.atoms[i].moas);
    // atom_prefixes resolves members to values, ascending.
    const auto values = idx.atom_prefixes(i);
    ASSERT_EQ(values.size(), members.size());
    EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  }
  EXPECT_EQ(idx.atom(static_cast<std::uint32_t>(atoms.atoms.size())), nullptr);
  EXPECT_EQ(idx.atom(AtomIndex::kNoAtom), nullptr);
  EXPECT_EQ(index_paths(idx), batch_paths(atoms));

  // Both helpers render through PathView::to_string, so pin the text
  // itself: prepending kept, singleton sets expanded.
  const auto texts = [&](const char* address) {
    std::vector<std::string> out;
    for (const auto& [vp, pid] : idx.atom(idx.lookup(addr(address))->atom)->paths) {
      out.push_back(std::to_string(vp) + ":" + std::string(idx.path_text(pid)));
    }
    return out;
  };
  EXPECT_EQ(texts("10.4.0.1"), (std::vector<std::string>{
                                   "0:100 100 4 4 1", "1:200 4 1",
                                   "2:300 4 4 4 1"}));
  EXPECT_EQ(texts("10.5.0.1"),
            (std::vector<std::string>{"0:100 7 1", "1:200 7 1", "2:300 7 1"}));
}

/// Two captures: at t=100 the {10.0, 10.1} atom splits at peer 100 while
/// the 10.2 atom is untouched.
DatasetBuilder two_snapshot_dataset() {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");
  b.snapshot(100);
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 9 1")  // diverges: the atom splits
      .route("10.2.0.0/16", "100 2");
  b.peer(200)
      .route("10.0.0.0/16", "200 1")
      .route("10.1.0.0/16", "200 1")
      .route("10.2.0.0/16", "200 2");
  return b;
}

TEST(Timeline, HistoryAndEquivalence) {
  DatasetBuilder b = two_snapshot_dataset();
  const auto snap0 = sanitize(b.dataset(), 0, test::lax_config());
  const auto snap1 = sanitize(b.dataset(), 1, test::lax_config());

  Timeline timeline;
  timeline.add("t0", std::make_shared<AtomIndex>(
                         AtomIndex::build(core::compute_atoms(snap0))));
  timeline.add("t1", std::make_shared<AtomIndex>(
                         AtomIndex::build(core::compute_atoms(snap1))));
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.label(0), "t0");
  EXPECT_EQ(&timeline.latest(), &timeline.at(1));

  // The partitions differ, so the snapshots are not equivalent; a
  // re-added t1 index is equivalent to itself.
  EXPECT_FALSE(timeline.equivalent(0, 1));
  timeline.add("t1-again", timeline.share(1));
  EXPECT_TRUE(timeline.equivalent(1, 2));

  // 10.2's atom is composition-identical across snapshots.
  const auto stable = timeline.history(addr("10.2.0.5"));
  ASSERT_EQ(stable.size(), 3u);
  EXPECT_TRUE(stable[0].present);
  EXPECT_FALSE(stable[0].same_as_previous);
  EXPECT_TRUE(stable[1].present);
  EXPECT_TRUE(stable[1].same_as_previous);
  EXPECT_EQ(stable[1].matched.to_string(), "10.2.0.0/16");
  EXPECT_EQ(stable[1].size, 1u);
  EXPECT_EQ(stable[1].origin, 2u);

  // 10.0's atom shrinks from {10.0, 10.1} to {10.0}: present both times
  // but not the same composition.
  const auto split = timeline.history(addr("10.0.0.5"));
  ASSERT_EQ(split.size(), 3u);
  EXPECT_TRUE(split[0].present);
  EXPECT_EQ(split[0].size, 2u);
  EXPECT_TRUE(split[1].present);
  EXPECT_EQ(split[1].size, 1u);
  EXPECT_FALSE(split[1].same_as_previous);
  EXPECT_TRUE(split[2].same_as_previous);  // t1 re-added: unchanged

  // An uncovered address is absent everywhere.
  const auto miss = timeline.history(addr("192.0.2.1"));
  ASSERT_EQ(miss.size(), 3u);
  for (const auto& entry : miss) EXPECT_FALSE(entry.present);
}

TEST(Timeline, CompositionDigestIsOrderIndependent) {
  // The same composed value sets through two archives whose PrefixId
  // spaces differ (interning order reversed): digests must still match.
  DatasetBuilder fwd;
  fwd.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  fwd.peer(200).route("10.0.0.0/16", "200 1").route("10.1.0.0/16", "200 1");
  DatasetBuilder rev;
  rev.peer(100).route("10.1.0.0/16", "100 1").route("10.0.0.0/16", "100 1");
  rev.peer(200).route("10.1.0.0/16", "200 1").route("10.0.0.0/16", "200 1");

  const auto snap_f = sanitize(fwd.dataset(), 0, test::lax_config());
  const auto snap_r = sanitize(rev.dataset(), 0, test::lax_config());
  const AtomIndex a = AtomIndex::build(core::compute_atoms(snap_f));
  const AtomIndex b = AtomIndex::build(core::compute_atoms(snap_r));

  const auto ma = a.lookup(addr("10.0.0.1"));
  const auto mb = b.lookup(addr("10.0.0.1"));
  ASSERT_TRUE(ma && mb);
  EXPECT_EQ(a.composition_digest(ma->atom), b.composition_digest(mb->atom));
  EXPECT_EQ(a.atom_prefixes(ma->atom), b.atom_prefixes(mb->atom));
}

}  // namespace
}  // namespace bgpatoms::query
