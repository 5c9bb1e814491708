#include "query/atom_index.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/incremental.h"
#include "net/hash.h"
#include "obs/obs.h"

namespace bgpatoms::query {

AtomIndex AtomIndex::build(const core::AtomSet& atoms) {
  OBS_SPAN("query.index.build");
  if (atoms.snapshot == nullptr) {
    throw std::invalid_argument("AtomIndex: AtomSet has no snapshot");
  }
  const core::SanitizedSnapshot& snapshot = *atoms.snapshot;
  AtomIndex index;
  const std::size_t n = snapshot.prefixes.size();
  index.row_id_ = snapshot.prefixes;
  index.row_prefix_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const net::Prefix& p = snapshot.prefix(snapshot.prefixes[i]);
    index.row_prefix_.push_back(p);
    index.trie_.insert(p, i);
  }
  index.atom_of_row_.assign(n, kNoAtom);
  index.num_vps_ = snapshot.vps.size();
  index.timestamp_ = snapshot.timestamp;

  // Atom id i is the AtomSet's atom i: every answer is the batch answer.
  index.atoms_.resize(atoms.atoms.size());
  for (std::uint32_t a = 0; a < atoms.atoms.size(); ++a) {
    AtomRecord& rec = index.atoms_[a];
    rec.rows.reserve(atoms.atoms[a].prefixes.size());
    for (const bgp::PrefixId id : atoms.atoms[a].prefixes) {
      const auto it =
          std::lower_bound(index.row_id_.begin(), index.row_id_.end(), id);
      assert(it != index.row_id_.end() && *it == id);
      const auto row =
          static_cast<std::uint32_t>(it - index.row_id_.begin());
      rec.rows.push_back(row);
      index.atom_of_row_[row] = a;
    }
    rec.paths = atoms.atoms[a].paths;
    rec.origin = atoms.atoms[a].origin;
    rec.moas = atoms.atoms[a].moas;
  }
  const net::PathPool& pool = atoms.paths();
  index.path_begin_.reserve(pool.size() + 1);
  for (bgp::PathId id = 0; id < pool.size(); ++id) {
    index.path_begin_.push_back(
        static_cast<std::uint32_t>(index.path_text_.size()));
    index.path_text_ += pool.get(id).to_string();
    if (index.path_text_.size() > UINT32_MAX) {
      throw std::length_error("AtomIndex: path text exceeds 4 GiB");
    }
  }
  index.path_begin_.push_back(
      static_cast<std::uint32_t>(index.path_text_.size()));
  index.path_text_.shrink_to_fit();
  OBS_COUNT_N("query.index.rows", index.row_prefix_.size());
  return index;
}

std::optional<AtomIndex::Match> AtomIndex::lookup(
    const net::IpAddress& addr) const {
  return lookup(net::Prefix(addr, net::address_bits(addr.family())));
}

std::optional<AtomIndex::Match> AtomIndex::lookup(
    const net::Prefix& prefix) const {
  const auto hit = trie_.longest_match(prefix);
  if (!hit) return std::nullopt;
  Match m;
  m.prefix = hit->first;
  m.row = hit->second;
  m.atom = atom_of_row_[m.row];
  return m;
}

std::vector<net::Prefix> AtomIndex::atom_prefixes(std::uint32_t id) const {
  std::vector<net::Prefix> out;
  const AtomRecord* rec = atom(id);
  if (rec == nullptr) return out;
  out.reserve(rec->rows.size());
  for (const std::uint32_t row : rec->rows) out.push_back(row_prefix_[row]);
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t AtomIndex::composition_digest(std::uint32_t id) const {
  const AtomRecord* rec = atom(id);
  if (rec == nullptr) return 0;
  // Commutative fold: member order (a PrefixId artifact that differs
  // across archives) cannot influence the digest.
  std::uint64_t acc = 0;
  for (const std::uint32_t row : rec->rows) {
    acc += mix64(row_prefix_[row].hash());
  }
  return mix64(acc ^ (static_cast<std::uint64_t>(rec->rows.size()) *
                      0x9e3779b97f4a7c15ULL));
}

std::uint64_t AtomIndex::partition_fingerprint() const {
  // Batch atoms are numbered in first-seen (minimum-row) order, so atom
  // ids already are the canonical class numbers the digest hashes.
  return hash_row32(atom_of_row_.data(), atom_of_row_.size(),
                    core::kPartitionFingerprintSeed);
}

}  // namespace bgpatoms::query
