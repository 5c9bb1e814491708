// Reference policy-atom kernel for the differential test in
// test_atoms_kernel.cpp: the CSR-of-packed-entries kernel compute_atoms
// once was, kept as the oracle the structure-of-arrays matrix kernel is
// compared against. Each prefix's signature is its run of packed
// (vp << 32 | path) entries, found through a hash index over the retained
// prefixes; signatures are hashed byte-wise and grouped by span equality.
// Output is bit-identical to core::compute_atoms for every input and
// thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/atoms.h"
#include "core/parallel.h"
#include "net/hash.h"

namespace bgpatoms::test {

namespace reference_detail {

using core::AtomSet;

/// Memoized origin AS per interned path id (0 = none/unknown). Atoms
/// share paths heavily, so deriving each referenced path's origin once
/// replaces the per-(vp, path) AsPath::origin() walks that dominated
/// finalize; memoizing lazily keeps unreferenced pool entries free.
class OriginCache {
 public:
  explicit OriginCache(const net::PathPool& pool)
      : pool_(pool), origin_(pool.size(), 0), seen_(pool.size(), 0) {}

  net::Asn get(bgp::PathId id) {
    if (!seen_[id]) {
      seen_[id] = 1;
      if (const auto o = pool_.get(id).origin()) origin_[id] = *o;
    }
    return origin_[id];
  }

 private:
  const net::PathPool& pool_;
  std::vector<net::Asn> origin_;
  std::vector<std::uint8_t> seen_;
};

/// Per-atom origin/MOAS derivation plus the set-level indexes, once atom
/// `a`'s prefixes and paths are final.
inline void finalize_atom(AtomSet& out, OriginCache& origin_of,
                          std::uint32_t a) {
  core::Atom& atom = out.atoms[a];
  net::Asn origin = 0;
  for (const auto& [vp, path] : atom.paths) {
    (void)vp;
    const net::Asn o = origin_of.get(path);
    if (o == 0) continue;
    if (origin == 0) {
      origin = o;
    } else if (origin != o) {
      atom.moas = true;
    }
  }
  atom.origin = origin;
  for (bgp::PrefixId p : atom.prefixes) out.atom_of.emplace(p, a);
  out.atoms_by_origin[origin].push_back(a);
}

constexpr std::size_t kParallelMinPrefixes = 4096;

/// Rejects malformed AtomOptions::vp_subset values before any kernel
/// indexes through them: entries must be strictly ascending column
/// indices into a snapshot with `vp_count` vantage points.
inline void validate_vp_subset(const std::vector<std::uint32_t>& subset,
                               std::size_t vp_count) {
  for (std::size_t k = 0; k < subset.size(); ++k) {
    if (subset[k] >= vp_count) {
      throw std::invalid_argument(
          "compute_atoms: vp_subset entry " + std::to_string(subset[k]) +
          " out of range (snapshot has " + std::to_string(vp_count) +
          " vantage points)");
    }
    if (k > 0 && subset[k] <= subset[k - 1]) {
      throw std::invalid_argument(
          "compute_atoms: vp_subset must be strictly ascending "
          "(duplicate or descending entry " + std::to_string(subset[k]) +
          ")");
    }
  }
}

}  // namespace reference_detail

inline core::AtomSet compute_atoms_reference(
    const core::SanitizedSnapshot& snapshot,
    const core::AtomOptions& options = {}) {
  using namespace core;
  using reference_detail::finalize_atom;
  using reference_detail::kParallelMinPrefixes;
  using reference_detail::OriginCache;
  check_packing_limits(snapshot.vps.size(), snapshot.paths.size());
  reference_detail::validate_vp_subset(options.vp_subset,
                                       snapshot.vps.size());
  // Masked runs iterate only the selected tables and pack subset-relative
  // VP ids, mirroring the SoA matrix's column layout — so both kernels
  // stay bit-identical to a physical column drop.
  const bool masked = !options.vp_subset.empty();
  const std::size_t num_vps =
      masked ? options.vp_subset.size() : snapshot.vps.size();
  const auto table_of = [&](std::size_t col) -> const VpTable& {
    return snapshot.vps[masked ? options.vp_subset[col] : col];
  };
  AtomSet out;
  out.snapshot = &snapshot;

  // Dense index over the retained prefixes.
  const auto& prefixes = snapshot.prefixes;
  std::unordered_map<bgp::PrefixId, std::uint32_t> dense;
  dense.reserve(prefixes.size());
  for (std::uint32_t i = 0; i < prefixes.size(); ++i) {
    dense.emplace(prefixes[i], i);
  }

  // Signature accumulation in CSR form: one (vp, path) entry per record.
  // Entries per prefix arrive in ascending vp order because we iterate
  // tables in vp order.
  std::vector<std::uint32_t> counts(prefixes.size(), 0);
  for (std::size_t col = 0; col < num_vps; ++col) {
    for (const auto& [prefix, path] : table_of(col).routes) {
      (void)path;
      ++counts[dense.at(prefix)];
    }
  }
  std::vector<std::uint64_t> offsets(prefixes.size() + 1, 0);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    offsets[i + 1] = offsets[i] + counts[i];
  }
  std::vector<std::uint64_t> entries(offsets.back());
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    // The packed entry reserves the upper 32 bits for the VP id; the loop
    // counter must be at least that wide or it wraps (and never ends) past
    // 65535 VPs. check_packing_limits() above rejects wider snapshots.
    for (std::uint32_t vp = 0; vp < static_cast<std::uint32_t>(num_vps);
         ++vp) {
      for (const auto& [prefix, path] : table_of(vp).routes) {
        const std::uint32_t idx = dense.at(prefix);
        entries[cursor[idx]++] =
            (static_cast<std::uint64_t>(vp) << 32) | path;
      }
    }
  }

  // Group prefixes by signature (hash bucket + exact span equality).
  // Sharded by signature hash: equal signatures share a hash, so shards
  // group independently; the merge orders groups by their lowest prefix
  // index, reproducing the sequential first-encounter order bit-exactly
  // for any worker count.
  auto signature = [&](std::uint32_t idx) {
    return std::span<const std::uint64_t>(entries.data() + offsets[idx],
                                          counts[idx]);
  };
  const std::size_t n = prefixes.size();
  TaskPool pool(n >= kParallelMinPrefixes ? options.threads : 1);

  std::vector<std::uint64_t> hashes(n);
  constexpr std::size_t kChunk = 2048;
  pool.run((n + kChunk - 1) / kChunk, [&](std::size_t c) {
    const std::size_t hi = std::min(n, (c + 1) * kChunk);
    for (std::size_t idx = c * kChunk; idx < hi; ++idx) {
      hashes[idx] = hash_span(signature(static_cast<std::uint32_t>(idx)),
                              0x9d3f);
    }
  });

  constexpr std::size_t kShards = 64;
  std::vector<std::uint64_t> shard_offset(kShards + 1, 0);
  for (std::uint64_t h : hashes) ++shard_offset[(h % kShards) + 1];
  for (std::size_t s = 0; s < kShards; ++s) {
    shard_offset[s + 1] += shard_offset[s];
  }
  std::vector<std::uint32_t> shard_items(n);
  {
    std::vector<std::uint64_t> cursor(shard_offset.begin(),
                                      shard_offset.end() - 1);
    for (std::uint32_t idx = 0; idx < n; ++idx) {
      shard_items[cursor[hashes[idx] % kShards]++] = idx;
    }
  }

  std::vector<std::vector<std::vector<std::uint32_t>>> shard_groups(kShards);
  pool.run(kShards, [&](std::size_t s) {
    auto& groups = shard_groups[s];
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> bucket;
    for (std::uint64_t i = shard_offset[s]; i < shard_offset[s + 1]; ++i) {
      const std::uint32_t idx = shard_items[i];
      const auto sig = signature(idx);
      auto& b = bucket[hashes[idx]];
      bool placed = false;
      for (std::uint32_t gid : b) {
        if (std::ranges::equal(sig, signature(groups[gid].front()))) {
          groups[gid].push_back(idx);
          placed = true;
          break;
        }
      }
      if (!placed) {
        b.push_back(static_cast<std::uint32_t>(groups.size()));
        groups.push_back({idx});
      }
    }
  });

  // Deterministic merge: shard items were claimed in ascending prefix-index
  // order, so each group's front() is its minimum index.
  std::vector<std::vector<std::uint32_t>> merged;
  for (auto& groups : shard_groups) {
    merged.insert(merged.end(), std::make_move_iterator(groups.begin()),
                  std::make_move_iterator(groups.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  out.atoms.reserve(merged.size());
  for (const auto& group : merged) {
    Atom atom;
    atom.prefixes.reserve(group.size());
    for (std::uint32_t idx : group) atom.prefixes.push_back(prefixes[idx]);
    out.atoms.push_back(std::move(atom));
  }

  // Finalize: per-atom paths, origin, MOAS flag, indexes.
  OriginCache origin_of(out.paths());
  out.atom_of.reserve(n);
  for (std::uint32_t a = 0; a < out.atoms.size(); ++a) {
    Atom& atom = out.atoms[a];
    std::sort(atom.prefixes.begin(), atom.prefixes.end());
    const auto sig = signature(dense.at(atom.prefixes.front()));
    atom.paths.reserve(sig.size());
    for (std::uint64_t e : sig) {
      atom.paths.emplace_back(static_cast<std::uint32_t>(e >> 32),
                              static_cast<bgp::PathId>(e & 0xffffffffu));
    }
    finalize_atom(out, origin_of, a);
  }
  return out;
}

}  // namespace bgpatoms::test
