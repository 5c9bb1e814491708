// Policy-atom computation (paper §2.1, §2.4).
//
// A policy atom is a maximal group of prefixes sharing the same AS path at
// *every* vantage point. A prefix absent from a VP's table has the "empty
// path" there, so two prefixes belong to one atom only if their visibility
// sets agree too (Afek et al.'s convention, kept by the paper).
//
// Implementation: each prefix's signature is one row of a dense
// structure-of-arrays matrix (num_prefixes x num_VPs of 32-bit cells, see
// AtomSignatureMatrix); rows are hashed with a vectorizable lane mixer and
// prefixes group by row equality (hash-sharded, equality-verified) in
// atoms_detail::group_rows, the one row-grouping kernel: compute_atoms,
// the IncrementalAtoms seed and select_vps' full partition all call it.
// The CSR-of-packed-entries kernel this one replaced survives only as the
// test oracle in tests/atoms_reference.h; test_atoms_kernel pins the two
// bit-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/sanitize.h"
#include "net/asn.h"

namespace bgpatoms::core {

class TaskPool;

struct AtomOptions {
  /// Workers for the signature hashing/grouping loop. Default 0: resolve
  /// via BGPATOMS_THREADS / hardware, the same precedence every entry
  /// point shares (flag > env > default, see report/options.h).
  /// run_campaign() pins this to 1 because sweeps are already parallel at
  /// the job level. The result is bit-identical for any value.
  int threads = 0;
  /// Group on only these vantage-point columns (indices into
  /// snapshot.vps, strictly ascending). Empty = all VPs. The output is
  /// bit-identical to running on a snapshot holding exactly the selected
  /// tables: Atom::paths vp ids are subset-relative (positions within
  /// vp_subset), and prefixes invisible at every selected VP collapse
  /// into one all-absent atom. The prefix universe itself never shrinks.
  /// Throws std::invalid_argument for out-of-range, descending, or
  /// duplicate entries. core::select_vps (vp_value.h) produces subsets in
  /// this form.
  std::vector<std::uint32_t> vp_subset;
};

/// Throws std::runtime_error when a snapshot exceeds the 32-bit packing
/// limits the kernel relies on: VP indices and matrix cells (path id + 1)
/// must fit 32 bits. A plain assert here would compile out under NDEBUG
/// and silently wrap; every kernel entry point calls this instead.
void check_packing_limits(std::size_t vp_count, std::size_t path_count);

/// Dense structure-of-arrays signature matrix: one row per retained
/// prefix (snapshot.prefixes order), one 32-bit cell per vantage point.
/// A cell stores interned-path-id + 1 so that 0 (`kAbsent`) means "this
/// VP does not see the prefix" — the paper's empty-path convention —
/// while keeping a route whose path *is* the interned empty path (id 0)
/// distinguishable from absence, exactly as the CSR signatures did.
///
/// Rows are contiguous, so row hashing is a linear scan and equality is
/// one memcmp; columns have fixed stride, so incremental maintenance
/// (core::IncrementalAtoms) rewrites a single cell in place. Filling
/// parallelizes across VPs: each VP writes its own column, which makes
/// the fill race-free without locks.
class AtomSignatureMatrix {
 public:
  static constexpr std::uint32_t kAbsent = 0;

  /// Builds the matrix for `snapshot`. A non-empty
  /// options.vp_subset restricts the matrix to those columns: num_vps()
  /// becomes the subset size and column j holds
  /// snapshot.vps[vp_subset[j]]'s table, bit-identical to building over a
  /// snapshot containing only the selected tables. `pool` parallelizes
  /// the column fill when provided; the result is identical with or
  /// without.
  static AtomSignatureMatrix build(const SanitizedSnapshot& snapshot,
                                   const AtomOptions& options = {},
                                   TaskPool* pool = nullptr);

  std::size_t num_prefixes() const { return num_prefixes_; }
  std::size_t num_vps() const { return num_vps_; }

  /// Row of prefix index `i` (snapshot.prefixes order): one cell per VP.
  std::span<const std::uint32_t> row(std::size_t i) const {
    return {cells_.data() + i * num_vps_, num_vps_};
  }
  std::uint32_t cell(std::size_t prefix_index, std::size_t vp) const {
    return cells_[prefix_index * num_vps_ + vp];
  }
  /// Overwrites one cell in place (interned-path-id + 1, or kAbsent).
  /// This is the incremental-maintenance write path (core/incremental.h):
  /// a live per-VP path change is exactly one column cell write.
  void set_cell(std::size_t prefix_index, std::size_t vp,
                std::uint32_t value) {
    cells_[prefix_index * num_vps_ + vp] = value;
  }
  /// Path id encoded in a non-absent cell.
  static bgp::PathId path_of(std::uint32_t cell) { return cell - 1; }

 private:
  std::vector<std::uint32_t> cells_;
  std::size_t num_prefixes_ = 0;
  std::size_t num_vps_ = 0;
};

struct Atom {
  /// Member prefixes, ascending.
  std::vector<bgp::PrefixId> prefixes;
  /// Per-VP observed path: (vp index into snapshot->vps, path id in the
  /// snapshot's pool), ascending by vp. VPs not listed do not see the atom.
  /// 32-bit vp ids, matching the packed signature entries.
  std::vector<std::pair<std::uint32_t, bgp::PathId>> paths;
  /// Origin AS (from any observed path); 0 if indeterminate.
  net::Asn origin = 0;
  /// True if the observed paths disagree on the origin AS (MOAS conflict).
  bool moas = false;

  std::size_t size() const { return prefixes.size(); }

  friend bool operator==(const Atom&, const Atom&) = default;
};

struct AtomSet {
  const SanitizedSnapshot* snapshot = nullptr;
  /// Pool resolving Atom::paths ids when it is not the snapshot's:
  /// IncrementalAtoms::atoms() sets a copy of its evolving pool here.
  /// Null from compute_atoms.
  std::shared_ptr<const net::PathPool> own_pool;
  std::vector<Atom> atoms;
  /// prefix id -> atom index.
  std::unordered_map<bgp::PrefixId, std::uint32_t> atom_of;
  /// Atom indices per origin AS.
  std::unordered_map<net::Asn, std::vector<std::uint32_t>> atoms_by_origin;

  std::size_t prefix_count() const {
    return snapshot ? snapshot->prefixes.size() : 0;
  }
  /// Distinct origin ASes.
  std::size_t as_count() const { return atoms_by_origin.size(); }

  /// The pool Atom::paths ids refer to.
  const net::PathPool& paths() const {
    return own_pool ? *own_pool : snapshot->paths;
  }
};

/// Membership index over an AtomSet's atom compositions (their sorted
/// member-prefix-id sets): hash-bucketed with exact verification. This is
/// the one composition-lookup substrate — the stability (CAM) and splits
/// (present-at-t0) kernels both resolve "is this exact prefix set an atom
/// here?" through it instead of each carrying its own set_hash + rescan
/// loop. Compositions are keyed by PrefixId, so lookups are only
/// meaningful against sets drawn from the same prefix pool; the
/// referenced AtomSet must outlive the index.
class AtomCompositions {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit AtomCompositions(const AtomSet& atoms);

  /// Index of the first atom whose member set equals `prefixes` exactly;
  /// kNone if no atom has that composition.
  std::uint32_t find(std::span<const bgp::PrefixId> prefixes) const;

  bool contains(std::span<const bgp::PrefixId> prefixes) const {
    return find(prefixes) != kNone;
  }

  std::size_t size() const { return atoms_->atoms.size(); }

 private:
  const AtomSet* atoms_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
};

/// Groups the snapshot's prefixes into policy atoms (SoA matrix kernel).
AtomSet compute_atoms(const SanitizedSnapshot& snapshot,
                      const AtomOptions& options = {});

namespace atoms_detail {

/// Seed of the row hash that buckets signature rows: group_rows' and
/// IncrementalAtoms' regroup, whose buckets must agree. The partition
/// does not depend on the choice.
inline constexpr std::uint64_t kRowSeed = 0x9d3f;

/// The row-grouping kernel: the row-equality classes of `matrix`, each
/// a list of row indices in ascending order, the classes ordered by
/// their smallest row (first-encounter order over rows 0..n-1). Rows are
/// hashed in chunks, sharded by hash, bucketed per shard with every match
/// checked by memcmp against the class's first row, and the shards'
/// classes merged by smallest row, so the result is bit-identical for
/// any worker count and any hash function. `pool` runs the hash and shard
/// batches when non-null; null runs them on the calling thread.
std::vector<std::vector<std::uint32_t>> group_rows(
    const AtomSignatureMatrix& matrix, TaskPool* pool);

/// Shared finalize stage: fills `out.atoms` (prefixes + per-VP paths read
/// off each group's signature row), then the origin/MOAS derivation and
/// the atom_of / atoms_by_origin indexes. `groups` must be row-index
/// groups with ascending members (front() == minimum), ordered by
/// front() — the canonical order group_rows produces and
/// IncrementalAtoms::atoms()' first-seen row walk reproduces.
/// `out.snapshot` and `out.own_pool` must be set before the call (origin
/// lookups go through out.paths()). `pool` parallelizes the body fill
/// when non-null; the result is bit-identical either way.
void fill_atom_bodies(AtomSet& out,
                      const std::vector<std::vector<std::uint32_t>>& groups,
                      const AtomSignatureMatrix& matrix, TaskPool* pool);

}  // namespace atoms_detail

}  // namespace bgpatoms::core
