// Tests for policy-atom computation on hand-crafted snapshots.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/atoms.h"
#include "testutil.h"

namespace bgpatoms::core {
namespace {

using test::DatasetBuilder;

TEST(Atoms, SamePathsGroupTogether) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1").route("10.1.0.0/16", "200 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_EQ(atoms.atoms[0].size(), 2u);
  EXPECT_EQ(atoms.atoms[0].origin, 1u);
  EXPECT_FALSE(atoms.atoms[0].moas);
  EXPECT_EQ(atoms.atoms[0].paths.size(), 2u);
}

TEST(Atoms, PathDifferenceAtOneVpSplits) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1").route("10.1.0.0/16", "200 2 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  EXPECT_EQ(atoms.atoms.size(), 2u);
}

TEST(Atoms, AbsenceAtOneVpSplits) {
  // The paper's "empty path" rule: a prefix missing at one VP cannot share
  // an atom with a prefix present there.
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");  // 10.1/16 missing here
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  EXPECT_EQ(atoms.atoms.size(), 2u);
}

TEST(Atoms, PrependingDifferenceSplits) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 1 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  EXPECT_EQ(compute_atoms(snap).atoms.size(), 2u);
}

TEST(Atoms, DifferentOriginsNeverShareAtom) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1").route("10.1.0.0/16", "100 2");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  EXPECT_EQ(atoms.atoms.size(), 2u);
  EXPECT_EQ(atoms.as_count(), 2u);
}

TEST(Atoms, MoasConflictFlagged) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 2");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_TRUE(atoms.atoms[0].moas);
}

TEST(Atoms, AtomOfIsCompletePartition) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 1")
      .route("10.2.0.0/16", "100 2 1")
      .route("10.3.0.0/16", "100 3");
  b.peer(200).route("10.0.0.0/16", "200 1").route("10.2.0.0/16", "200 2 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);

  // Every retained prefix is in exactly one atom.
  EXPECT_EQ(atoms.atom_of.size(), snap.prefixes.size());
  std::size_t total = 0;
  for (const auto& atom : atoms.atoms) total += atom.size();
  EXPECT_EQ(total, snap.prefixes.size());
  for (bgp::PrefixId p : snap.prefixes) {
    ASSERT_TRUE(atoms.atom_of.contains(p));
    const auto& members = atoms.atoms[atoms.atom_of.at(p)].prefixes;
    EXPECT_NE(std::find(members.begin(), members.end(), p), members.end());
  }
}

TEST(Atoms, AtomPathsSortedByVp) {
  DatasetBuilder b;
  b.peer(100).route("10.0.0.0/16", "100 1");
  b.peer(200).route("10.0.0.0/16", "200 1");
  b.peer(300).route("10.0.0.0/16", "300 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  const auto& paths = atoms.atoms[0].paths;
  ASSERT_EQ(paths.size(), 3u);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LT(paths[i - 1].first, paths[i].first);
  }
}

TEST(Atoms, AtomsByOriginIndex) {
  DatasetBuilder b;
  b.peer(100)
      .route("10.0.0.0/16", "100 1")
      .route("10.1.0.0/16", "100 9 1")
      .route("10.2.0.0/16", "100 2");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  ASSERT_TRUE(atoms.atoms_by_origin.contains(1));
  ASSERT_TRUE(atoms.atoms_by_origin.contains(2));
  EXPECT_EQ(atoms.atoms_by_origin.at(1).size(), 2u);
  EXPECT_EQ(atoms.atoms_by_origin.at(2).size(), 1u);
}

TEST(Atoms, EmptySnapshot) {
  DatasetBuilder b;
  b.peer(100);
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  EXPECT_TRUE(atoms.atoms.empty());
  EXPECT_EQ(atoms.prefix_count(), 0u);
}

TEST(Atoms, IPv6GroupingWorks) {
  DatasetBuilder b(net::Family::kIPv6);
  b.peer(100)
      .route("2001:db8::/32", "100 1")
      .route("2001:db9::/32", "100 1")
      .route("2001:dba::/32", "100 2 1");
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  EXPECT_EQ(atoms.atoms.size(), 2u);
}

TEST(Atoms, LargeGroupStressConsistency) {
  // 200 prefixes alternating between two path signatures across 3 VPs.
  DatasetBuilder b;
  for (int vp = 0; vp < 3; ++vp) {
    b.peer(100 + vp);
    for (int i = 0; i < 200; ++i) {
      const std::string prefix =
          "10." + std::to_string(i / 256) + "." + std::to_string(i % 256) +
          ".0/24";
      const std::string path = std::to_string(100 + vp) +
                               (i % 2 == 0 ? " 7 1" : " 8 1");
      b.route(prefix, path);
    }
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 2u);
  EXPECT_EQ(atoms.atoms[0].size(), 100u);
  EXPECT_EQ(atoms.atoms[1].size(), 100u);
}

TEST(Atoms, MoreThan64KVantagePoints) {
  // Regression: the packed-signature fill loop used a 16-bit VP counter,
  // which wraps (and never terminates) once a snapshot carries more than
  // 65535 vantage points. Build such a snapshot directly — two prefixes
  // seen with one path at 65537 VPs must still form a single atom whose
  // per-VP path list covers every VP.
  constexpr std::uint32_t kVps = 65537;
  SanitizedSnapshot snap;
  const bgp::PathId path = snap.paths.intern(*net::AsPath::parse("100 1"));
  snap.prefixes = {1, 2};
  snap.vps.resize(kVps);
  for (auto& vp : snap.vps) vp.routes = {{1, path}, {2, path}};

  const auto atoms = compute_atoms(snap);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_EQ(atoms.atoms[0].size(), 2u);
  ASSERT_EQ(atoms.atoms[0].paths.size(), kVps);
  EXPECT_EQ(atoms.atoms[0].paths.front().first, 0u);
  EXPECT_EQ(atoms.atoms[0].paths.back().first, kVps - 1);  // not truncated
  EXPECT_EQ(atoms.atoms[0].origin, 1u);
}

TEST(Atoms, ParallelGroupingMatchesSerial) {
  // Enough prefixes to cross the parallel-grouping gate; 16 signature
  // classes over 2 VPs. The sharded parallel path must reproduce the
  // serial result field-for-field, including atom order.
  DatasetBuilder b;
  constexpr int kPrefixes = 5000;
  for (int vp = 0; vp < 2; ++vp) {
    b.peer(100 + vp);
    for (int i = 0; i < kPrefixes; ++i) {
      const std::string prefix = "10." + std::to_string(i / 256) + "." +
                                 std::to_string(i % 256) + ".0/24";
      const std::string path =
          std::to_string(100 + vp) + " " + std::to_string(7 + i % 16) + " 1";
      b.route(prefix, path);
    }
  }
  const auto snap = sanitize(b.dataset(), 0, test::lax_config());
  ASSERT_GE(snap.prefixes.size(), 4096u);

  AtomOptions serial, par;
  serial.threads = 1;
  par.threads = 4;
  const auto a = compute_atoms(snap, serial);
  const auto p = compute_atoms(snap, par);
  ASSERT_EQ(a.atoms.size(), 16u);
  EXPECT_EQ(a.atoms, p.atoms);
  EXPECT_EQ(a.atom_of, p.atom_of);
  EXPECT_EQ(a.atoms_by_origin, p.atoms_by_origin);
}

}  // namespace
}  // namespace bgpatoms::core
