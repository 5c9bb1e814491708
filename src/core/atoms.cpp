#include "core/atoms.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>

#include "core/parallel.h"
#include "net/hash.h"
#include "obs/obs.h"

namespace bgpatoms::core {

void check_packing_limits(std::size_t vp_count, std::size_t path_count) {
  // VP ids occupy 32 bits (the matrix column index, Atom::paths' vp
  // ids); a wider snapshot would silently truncate.
  if (vp_count > UINT32_MAX) {
    throw std::runtime_error(
        "compute_atoms: snapshot has " + std::to_string(vp_count) +
        " vantage points, exceeding the 32-bit VP-id packing limit");
  }
  // Matrix cells store interned-path-id + 1 (0 = absent); a pool larger
  // than 2^32 - 1 paths would wrap the top id onto the absence sentinel.
  if (path_count > UINT32_MAX) {
    throw std::runtime_error(
        "compute_atoms: snapshot interns " + std::to_string(path_count) +
        " paths, exceeding the 32-bit cell packing limit");
  }
}

namespace {

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
void finalize_atom(AtomSet& out, OriginCache& origin_of, std::uint32_t a) {
  Atom& atom = out.atoms[a];
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

/// body(0..tasks-1): on `pool` when non-null, else on the calling thread.
void run_tasks(TaskPool* pool, std::size_t tasks,
               const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->run(tasks, body);
  } else {
    for (std::size_t t = 0; t < tasks; ++t) body(t);
  }
}

/// Rejects malformed AtomOptions::vp_subset values before the matrix
/// build indexes through them: entries must be strictly ascending column
/// indices into a snapshot with `vp_count` vantage points.
void validate_vp_subset(const std::vector<std::uint32_t>& subset,
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

}  // namespace

namespace atoms_detail {

std::vector<std::vector<std::uint32_t>> group_rows(
    const AtomSignatureMatrix& matrix, TaskPool* pool) {
  const std::size_t n = matrix.num_prefixes();

  // Row hashing, chunked: contiguous 32-bit lanes through the
  // vectorizable mixer (net/hash.h).
  std::vector<std::uint64_t> hashes(n);
  {
    OBS_SPAN("atoms.hash");
    constexpr std::size_t kChunk = 2048;
    run_tasks(pool, (n + kChunk - 1) / kChunk, [&](std::size_t c) {
      const std::size_t hi = std::min(n, (c + 1) * kChunk);
      for (std::size_t i = c * kChunk; i < hi; ++i) {
        hashes[i] = hash_row32(matrix.row(i), kRowSeed);
      }
    });
  }

  // Group rows by equality (hash bucket + memcmp verification). Sharded
  // by row hash: equal rows share a hash, so shards group independently;
  // the merge orders groups by their lowest row, reproducing the
  // sequential first-encounter order bit-exactly for any worker count —
  // and for any hash function, which is why this kernel can use a
  // different mixer than the CSR reference yet stay bit-identical.
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

  const std::size_t row_bytes = matrix.num_vps() * sizeof(std::uint32_t);
  std::vector<std::vector<std::vector<std::uint32_t>>> shard_groups(kShards);
  {
    OBS_SPAN("atoms.group");
    run_tasks(pool, kShards, [&](std::size_t s) {
      auto& groups = shard_groups[s];
      std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> bucket;
      for (std::uint64_t i = shard_offset[s]; i < shard_offset[s + 1]; ++i) {
        const std::uint32_t idx = shard_items[i];
        const std::uint32_t* row = matrix.row(idx).data();
        auto& b = bucket[hashes[idx]];
        bool placed = false;
        for (std::uint32_t gid : b) {
          if (std::memcmp(row, matrix.row(groups[gid].front()).data(),
                          row_bytes) == 0) {
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
  }

  // Deterministic merge: shard items were claimed in ascending row order,
  // so each group's front() is its minimum row.
  std::vector<std::vector<std::uint32_t>> merged;
  for (auto& groups : shard_groups) {
    merged.insert(merged.end(), std::make_move_iterator(groups.begin()),
                  std::make_move_iterator(groups.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return merged;
}

void fill_atom_bodies(AtomSet& out,
                      const std::vector<std::vector<std::uint32_t>>& groups,
                      const AtomSignatureMatrix& matrix, TaskPool* pool) {
  const SanitizedSnapshot& snapshot = *out.snapshot;
  const std::size_t num_vps = matrix.num_vps();
  OriginCache origin_of(out.paths());
  out.atoms.resize(groups.size());
  // Atom bodies are independent: prefixes come from the group, paths
  // straight off the group's signature row (ascending VP order by
  // construction). Group members are ascending prefix indices and the
  // retained-prefix list is sorted, so the prefix list is born sorted.
  constexpr std::size_t kAtomChunk = 512;
  const std::size_t num_atoms = groups.size();
  auto fill_chunk = [&](std::size_t c) {
    const std::size_t hi = std::min(num_atoms, (c + 1) * kAtomChunk);
    for (std::size_t a = c * kAtomChunk; a < hi; ++a) {
      Atom& atom = out.atoms[a];
      const auto& group = groups[a];
      atom.prefixes.reserve(group.size());
      for (std::uint32_t idx : group) {
        atom.prefixes.push_back(snapshot.prefixes[idx]);
      }
      const auto row = matrix.row(group.front());
      for (std::uint32_t vp = 0; vp < num_vps; ++vp) {
        if (row[vp] != AtomSignatureMatrix::kAbsent) {
          atom.paths.emplace_back(vp, AtomSignatureMatrix::path_of(row[vp]));
        }
      }
    }
  };
  run_tasks(pool, (num_atoms + kAtomChunk - 1) / kAtomChunk, fill_chunk);
  out.atom_of.reserve(snapshot.prefixes.size());
  for (std::uint32_t a = 0; a < out.atoms.size(); ++a) {
    finalize_atom(out, origin_of, a);
  }
}

}  // namespace atoms_detail

// --------------------------------------------------------------- SoA matrix

AtomSignatureMatrix AtomSignatureMatrix::build(
    const SanitizedSnapshot& snapshot, const AtomOptions& options,
    TaskPool* pool) {
  check_packing_limits(snapshot.vps.size(), snapshot.paths.size());
  const auto& subset = options.vp_subset;
  validate_vp_subset(subset, snapshot.vps.size());
  const bool masked = !subset.empty();

  AtomSignatureMatrix m;
  m.num_prefixes_ = snapshot.prefixes.size();
  m.num_vps_ = masked ? subset.size() : snapshot.vps.size();
  if (m.num_vps_ != 0 && m.num_prefixes_ > SIZE_MAX / 4 / m.num_vps_) {
    throw std::runtime_error(
        "compute_atoms: signature matrix dimensions overflow");
  }
  m.cells_.assign(m.num_prefixes_ * m.num_vps_, kAbsent);

  // Column j of a masked build holds snapshot.vps[subset[j]]'s table —
  // exactly the layout a snapshot holding only the selected tables would
  // produce, which is what makes masked grouping bit-identical to a
  // physical column drop.
  const auto table_of = [&](std::size_t col) -> const VpTable& {
    return snapshot.vps[masked ? subset[col] : col];
  };

  // Column fill: VP v writes only column v, so the fill is race-free
  // without locks. Tables and the retained-prefix list are both sorted by
  // prefix id and sanitize guarantees tables only hold retained prefixes,
  // so a two-pointer walk replaces the per-record hash lookup the CSR
  // kernel paid.
  const auto& prefixes = snapshot.prefixes;
  const std::size_t stride = m.num_vps_;
  std::uint32_t* cells = m.cells_.data();
  run_tasks(pool, m.num_vps_, [&](std::size_t vp) {
    std::size_t pi = 0;
    for (const auto& [prefix, path] : table_of(vp).routes) {
      while (prefixes[pi] != prefix) ++pi;
      cells[pi * stride + vp] = path + 1;
    }
  });
  return m;
}

// --------------------------------------------------------------- SoA kernel

AtomSet compute_atoms(const SanitizedSnapshot& snapshot,
                      const AtomOptions& options) {
  OBS_SPAN("atoms.compute");
  AtomSet out;
  out.snapshot = &snapshot;

  const std::size_t n = snapshot.prefixes.size();
  TaskPool pool(n >= kParallelMinPrefixes ? options.threads : 1);

  AtomSignatureMatrix matrix;
  {
    OBS_SPAN("atoms.matrix");
    matrix = AtomSignatureMatrix::build(snapshot, options, &pool);
  }

  // Work counters reflect the effective (possibly vp_subset-masked)
  // input: the grouping below never reads an unselected table.
  const std::size_t num_vps = matrix.num_vps();
  std::size_t routes = 0;
  for (std::size_t col = 0; col < num_vps; ++col) {
    const auto& table = options.vp_subset.empty()
                            ? snapshot.vps[col]
                            : snapshot.vps[options.vp_subset[col]];
    routes += table.routes.size();
  }
  OBS_COUNT_N("atoms.prefixes", n);
  OBS_COUNT_N("atoms.routes", routes);
  OBS_COUNT_N("atoms.matrix_cells", n * num_vps);

  const auto groups = atoms_detail::group_rows(matrix, &pool);
  OBS_COUNT_N("atoms.groups", groups.size());

  // Finalize: per-atom paths straight off the group's signature row
  // (ascending VP order by construction), origin, MOAS flag, indexes.
  {
    OBS_SPAN("atoms.finalize");
    atoms_detail::fill_atom_bodies(out, groups, matrix, &pool);
  }
  return out;
}

namespace {

constexpr std::uint64_t kCompositionSeed = 0xc095ULL;

std::uint64_t composition_hash(std::span<const bgp::PrefixId> prefixes) {
  return hash_span<bgp::PrefixId>(prefixes, kCompositionSeed);
}

}  // namespace

AtomCompositions::AtomCompositions(const AtomSet& atoms) : atoms_(&atoms) {
  by_hash_.reserve(atoms.atoms.size());
  for (std::uint32_t i = 0; i < atoms.atoms.size(); ++i) {
    by_hash_[composition_hash(atoms.atoms[i].prefixes)].push_back(i);
  }
}

std::uint32_t AtomCompositions::find(
    std::span<const bgp::PrefixId> prefixes) const {
  const auto it = by_hash_.find(composition_hash(prefixes));
  if (it == by_hash_.end()) return kNone;
  for (std::uint32_t cand : it->second) {
    const auto& members = atoms_->atoms[cand].prefixes;
    if (members.size() == prefixes.size() &&
        std::equal(members.begin(), members.end(), prefixes.begin())) {
      return cand;
    }
  }
  return kNone;
}

}  // namespace bgpatoms::core
