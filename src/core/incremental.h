// Incremental atom maintenance from live update streams.
//
// IncrementalAtoms keeps the atom partition of one sanitized snapshot up
// to date while BGP update records stream past, without recomputing from
// scratch: each per-VP path change is one cell write into the dense
// AtomSignatureMatrix (fixed column stride — the substrate PR 6 built for
// exactly this), and only the touched rows are rehashed and regrouped.
// On a mostly-stable stream that makes a snapshot boundary O(changes)
// instead of O(table), which is what turns `bga_atoms --trend` (through
// core::analyze's `incremental` follow) into a streaming consumer.
//
// Determinism contract (the same one both batch kernels obey): groups are
// row-equality classes ordered by their minimum prefix index. The seed
// partition comes from compute_atoms' row-grouping kernel
// (atoms_detail::group_rows), run on the calling thread. apply() and
// the regroup pass are strictly single-threaded and input-ordered, so the
// maintained partition — and the atoms.incr.* counters — are bit-identical
// for any chunking of the same record sequence and any thread count, and
// atoms() is bit-identical to compute_atoms() over the maintained tables
// (rebuild_snapshot()) at every boundary. tests/test_incremental.cpp pins
// all of this across a {chunk size} x {threads} matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/views.h"
#include "core/atoms.h"

namespace bgpatoms::core {

/// Seed of the partition-fingerprint digest. Shared with query::AtomIndex
/// so an index's fingerprint is bit-equal to the core ones whenever the
/// partitions are equal.
inline constexpr std::uint64_t kPartitionFingerprintSeed = 0x1a70;

class IncrementalAtoms {
 public:
  /// Work done since construction. Everything here counts input-ordered
  /// work items, never scheduling artifacts, so the values are identical
  /// for any chunking / thread count (the obs determinism contract); the
  /// same numbers are exported as the atoms.incr.* obs counters.
  struct Counters {
    /// Update records consumed (including ones that touched nothing).
    std::uint64_t records = 0;
    /// Matrix cells actually changed (writes of an unchanged value and
    /// unknown prefixes/peers don't count).
    std::uint64_t cell_writes = 0;
    /// Rows whose signature changed since the previous regroup (each row
    /// counted once per regroup cycle, however many cells it took).
    std::uint64_t dirty_rows = 0;
    /// Groups that lost some-but-not-all members in a regroup: an
    /// equality class that genuinely split.
    std::uint64_t splits = 0;
    /// Dirty rows that landed in an existing group on re-insertion: an
    /// equality-class merge (rejoining the old remnant counts too).
    std::uint64_t merges = 0;
    /// Regroup passes run (one per atoms() call with dirt).
    std::uint64_t flushes = 0;

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  /// Seeds the partition from `seed`'s signature matrix. `stream_paths`
  /// is the pool UpdateRecord::path ids refer to (the view/dataset pool);
  /// it must outlive this object, as must `seed`. A non-empty
  /// options.vp_subset maintains the column-masked partition instead:
  /// column j tracks seed.vps[vp_subset[j]], updates from unselected
  /// peers are ignored, and atoms()/rebuild_snapshot() carry
  /// subset-relative VP ids — bit-identical to the masked batch kernels
  /// at every boundary. Throws std::invalid_argument for a malformed
  /// vp_subset and std::runtime_error past the 32-bit packing limits.
  IncrementalAtoms(const SanitizedSnapshot& seed,
                   const net::PathPool& stream_paths,
                   const AtomOptions& options = {});

  /// Applies one batch of update records, in order. Withdrawals clear
  /// cells first, then announcements overwrite them — so a withdraw +
  /// re-announce of the same prefix inside one record nets to the
  /// announcement, mirroring RIB semantics. Records from peers that
  /// sanitization removed, prefixes that weren't retained, and
  /// announcements whose path carries a multi-member AS_SET (the records
  /// sanitize drops) are ignored. Regrouping is deferred until atoms() —
  /// applying is pure cell writes.
  void apply(std::span<const bgp::UpdateRecord> records);

  /// Drains `updates` chunk by chunk through apply().
  void consume(bgp::UpdateStreamView& updates);

  /// The maintained partition as a full AtomSet, bit-identical (atoms,
  /// atom_of, atoms_by_origin) to compute_atoms(rebuild_snapshot()).
  /// The result's snapshot pointer is the seed snapshot (prefix universe
  /// and VP identities never change); own_pool is a copy of the evolving
  /// path pool, so the result stays valid as more updates are applied.
  AtomSet atoms();

  /// Materializes the maintained per-VP tables as a SanitizedSnapshot
  /// (self-contained copy; report/timestamp/prefixes carried over from
  /// the seed). compute_atoms() over it is the recompute oracle the
  /// incremental path is tested bit-identical against.
  SanitizedSnapshot rebuild_snapshot() const;

  const Counters& counters() const { return counters_; }
  std::size_t num_prefixes() const { return matrix_.num_prefixes(); }
  std::size_t num_vps() const { return matrix_.num_vps(); }

 private:
  struct Group {
    std::vector<std::uint32_t> members;  // row indices; unordered
    std::uint64_t hash = 0;
  };

  void flush();
  std::uint32_t local_path_id(bgp::PathId stream_id);
  std::uint32_t row_of(bgp::PrefixId prefix) const;  // npos if not retained
  void touch_cell(std::uint32_t row, std::uint32_t vp, std::uint32_t value);

  static constexpr std::uint32_t kNoRow = UINT32_MAX;
  static constexpr std::uint32_t kNoVp = UINT32_MAX;
  static constexpr std::uint32_t kUnmapped = UINT32_MAX;
  static constexpr std::uint32_t kDroppedPath = UINT32_MAX - 1;

  const SanitizedSnapshot* seed_;
  const net::PathPool* stream_paths_;
  /// Evolving path pool: starts as a copy of the seed snapshot's pool (so
  /// matrix cells keep their meaning) and grows as update paths arrive.
  std::shared_ptr<net::PathPool> pool_;
  /// stream path id -> id in pool_ (kUnmapped = not yet seen,
  /// kDroppedPath = multi-member AS_SET, announcement ignored).
  std::vector<std::uint32_t> path_memo_;
  /// raw snapshot peer index -> VP column (kNoVp = peer not retained, or
  /// not selected by vp_cols_).
  std::vector<std::uint32_t> vp_of_peer_;
  /// Matrix column -> seed VP index (AtomOptions::vp_subset copy); empty
  /// means the identity mapping (all seed VPs).
  std::vector<std::uint32_t> vp_cols_;

  AtomSignatureMatrix matrix_;

  // Row-equality classes. group_of_/pos_in_group_ are per row; emptied
  // Group slots are recycled through free_groups_. bucket_ maps a row
  // hash (atoms_detail::kRowSeed, the seed group_rows hashes with) to the
  // group ids carrying it (exactness re-checked by memcmp).
  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_groups_;
  std::vector<std::uint32_t> group_of_;
  std::vector<std::uint32_t> pos_in_group_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> bucket_;

  // Rows written since the last flush (each listed once).
  std::vector<std::uint32_t> dirty_rows_;
  std::vector<std::uint8_t> row_dirty_;
  // Scratch generation stamps for atoms()' first-seen group walk and
  // flush()'s touched-group pass.
  std::vector<std::uint32_t> group_stamp_;
  std::uint32_t stamp_gen_ = 0;

  Counters counters_;
};

/// Order-independent O(prefixes) digest of an AtomSet's partition: equal
/// iff the partitions of the (identical) prefix universe are equal, for
/// compute_atoms, IncrementalAtoms::atoms() and query::AtomIndex alike.
std::uint64_t partition_fingerprint(const AtomSet& atoms);

}  // namespace bgpatoms::core
