// Read-side atom index: the query layer's core structure.
//
// An AtomIndex freezes one snapshot's atom partition into the three
// lookups the product surface needs, without re-running any batch
// analysis:
//
//   * longest-prefix match: address or CIDR query -> covering stored
//     prefix -> atom id (dual-stack trie over the full /0..host range),
//   * atom id -> member prefixes (as net::Prefix values, so answers are
//     comparable across archives whose PrefixId spaces differ),
//   * atom id -> the per-VP shared AS path, as text: build() renders every
//     path of the snapshot's pool once, in id order, into one arena with
//     an offset table, so a reply copies a path instead of walking it.
//
// Atoms are computed once per captured snapshot, so the index has one
// builder: build(AtomSet) copies a batch result, atom ids equal the
// AtomSet's atom indices, and every answer is bit-identical to the
// compute_atoms() product. The index keeps no pointer into the AtomSet
// or its snapshot and never changes once built.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/atoms.h"
#include "net/prefix_trie.h"

namespace bgpatoms::query {

/// One atom's read-side record.
struct AtomRecord {
  /// Member rows (positions in the index's prefix table), ascending.
  std::vector<std::uint32_t> rows;
  /// Per-VP observed path: (vp, path id for path_text()), ascending by vp.
  /// VPs not listed do not see the atom.
  std::vector<std::pair<std::uint32_t, bgp::PathId>> paths;
  /// Origin AS (0 if indeterminate) and MOAS-conflict flag.
  net::Asn origin = 0;
  bool moas = false;

  std::size_t size() const { return rows.size(); }
};

class AtomIndex {
 public:
  static constexpr std::uint32_t kNoAtom = UINT32_MAX;

  /// What a point query resolves to.
  struct Match {
    net::Prefix prefix;       // the stored prefix that matched
    std::uint32_t row = 0;    // its row in the prefix table
    std::uint32_t atom = 0;   // the atom holding it
  };

  AtomIndex() = default;

  /// Freezes a batch result. Atom ids == `atoms` indices; member prefixes
  /// resolve through the snapshot's prefix pool and paths are rendered to
  /// text, so the index outlives the AtomSet and its snapshot.
  static AtomIndex build(const core::AtomSet& atoms);

  // --- point queries ---------------------------------------------------

  /// Longest stored prefix covering `addr` and its atom.
  std::optional<Match> lookup(const net::IpAddress& addr) const;

  /// Longest stored prefix covering (or equal to) `prefix` and its atom.
  std::optional<Match> lookup(const net::Prefix& prefix) const;

  /// The atom record for `id`; nullptr for unknown ids.
  const AtomRecord* atom(std::uint32_t id) const {
    return id < atoms_.size() ? &atoms_[id] : nullptr;
  }

  /// The prefix stored at `row`.
  const net::Prefix& prefix_at(std::uint32_t row) const {
    return row_prefix_[row];
  }
  /// The source snapshot's PrefixId for `row` (oracle comparisons).
  bgp::PrefixId prefix_id_at(std::uint32_t row) const { return row_id_[row]; }

  /// Member prefixes of atom `id`, ascending by Prefix value — the
  /// cross-archive composition key. Empty for unknown ids.
  std::vector<net::Prefix> atom_prefixes(std::uint32_t id) const;

  /// Order-independent digest of atom `id`'s member Prefix values; equal
  /// across archives iff the composed value sets are equal (verification
  /// stays with the caller when it matters). 0 for unknown ids.
  std::uint64_t composition_digest(std::uint32_t id) const;

  // --- partition-level queries -----------------------------------------

  /// Digest of the partition under the same encoding as
  /// core::partition_fingerprint(AtomSet), so it equals the batch and
  /// incremental fingerprints of the same partition.
  std::uint64_t partition_fingerprint() const;

  std::size_t prefix_count() const { return row_prefix_.size(); }
  std::size_t atom_count() const { return atoms_.size(); }
  std::size_t vp_count() const { return num_vps_; }
  bgp::Timestamp timestamp() const { return timestamp_; }

  /// PathView::to_string() of the AtomRecord path id `id`.
  std::string_view path_text(bgp::PathId id) const {
    return std::string_view(path_text_).substr(
        path_begin_[id], path_begin_[id + 1] - path_begin_[id]);
  }

 private:
  net::DualPrefixTrie<std::uint32_t> trie_;  // prefix -> row
  std::vector<net::Prefix> row_prefix_;      // row -> prefix value
  std::vector<bgp::PrefixId> row_id_;        // row -> source PrefixId
  std::vector<std::uint32_t> atom_of_row_;   // row -> atom id
  std::vector<AtomRecord> atoms_;            // atom id -> record
  std::size_t num_vps_ = 0;
  bgp::Timestamp timestamp_ = 0;
  std::string path_text_;                  // every path's text, in id order
  std::vector<std::uint32_t> path_begin_;  // id -> offset; one past the end
};

}  // namespace bgpatoms::query
