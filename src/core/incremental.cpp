#include "core/incremental.h"

#include <algorithm>
#include <cstring>

#include "net/hash.h"
#include "obs/obs.h"

namespace bgpatoms::core {

IncrementalAtoms::IncrementalAtoms(const SanitizedSnapshot& seed,
                                   const net::PathPool& stream_paths,
                                   const AtomOptions& options)
    : seed_(&seed),
      stream_paths_(&stream_paths),
      pool_(std::make_shared<net::PathPool>(seed.paths)) {
  OBS_SPAN("atoms.incr.seed");
  matrix_ = AtomSignatureMatrix::build(seed, options, nullptr);
  vp_cols_ = options.vp_subset;

  // UpdateRecord::peer indexes the raw snapshot's peers array; sanitize
  // recorded where each retained VP came from (VpTable::source_index).
  // Under a vp_subset only the selected columns get a mapping, so
  // updates from unselected peers fall through as "not retained" —
  // matching what the masked batch kernels never see.
  std::size_t max_src = 0;
  for (const auto& vp : seed.vps) {
    max_src = std::max<std::size_t>(max_src, vp.source_index + 1);
  }
  vp_of_peer_.assign(max_src, kNoVp);
  for (std::uint32_t col = 0; col < matrix_.num_vps(); ++col) {
    const auto& vp = seed.vps[vp_cols_.empty() ? col : vp_cols_[col]];
    vp_of_peer_[vp.source_index] = col;
  }

  // Seed grouping through the batch kernel, on this thread: members come
  // ascending and groups ordered by their minimum row, so group ids are
  // first-encounter numbers and every group's first member is its
  // minimum. Each group's bucket key is its rows' hash.
  const std::size_t n = matrix_.num_prefixes();
  group_of_.assign(n, 0);
  pos_in_group_.assign(n, 0);
  row_dirty_.assign(n, 0);
  for (auto& members : atoms_detail::group_rows(matrix_, nullptr)) {
    const auto gid = static_cast<std::uint32_t>(groups_.size());
    const std::uint64_t h =
        hash_row32(matrix_.row(members.front()), atoms_detail::kRowSeed);
    bucket_[h].push_back(gid);
    for (std::uint32_t pos = 0; pos < members.size(); ++pos) {
      group_of_[members[pos]] = gid;
      pos_in_group_[members[pos]] = pos;
    }
    groups_.push_back({std::move(members), h});
  }
  group_stamp_.assign(groups_.size(), 0);
}

std::uint32_t IncrementalAtoms::row_of(bgp::PrefixId prefix) const {
  const auto& ps = seed_->prefixes;
  const auto it = std::lower_bound(ps.begin(), ps.end(), prefix);
  if (it == ps.end() || *it != prefix) return kNoRow;
  return static_cast<std::uint32_t>(it - ps.begin());
}

std::uint32_t IncrementalAtoms::local_path_id(bgp::PathId stream_id) {
  if (path_memo_.size() <= stream_id) {
    path_memo_.resize(stream_id + 1, kUnmapped);
  }
  std::uint32_t& memo = path_memo_[stream_id];
  if (memo != kUnmapped) return memo;
  const CleanPath clean = clean_path(stream_paths_->get(stream_id), *pool_);
  if (clean.fate == CleanPath::Fate::kDropped) {
    memo = kDroppedPath;
    return memo;
  }
  memo = clean.id;
  check_packing_limits(matrix_.num_vps(), pool_->size());
  return memo;
}

void IncrementalAtoms::touch_cell(std::uint32_t row, std::uint32_t vp,
                                  std::uint32_t value) {
  if (matrix_.cell(row, vp) == value) return;
  matrix_.set_cell(row, vp, value);
  ++counters_.cell_writes;
  OBS_COUNT("atoms.incr.cell_writes");
  if (!row_dirty_[row]) {
    row_dirty_[row] = 1;
    dirty_rows_.push_back(row);
    ++counters_.dirty_rows;
    OBS_COUNT("atoms.incr.dirty_rows");
  }
}

void IncrementalAtoms::apply(std::span<const bgp::UpdateRecord> records) {
  OBS_SPAN("atoms.incr.apply");
  OBS_COUNT_N("atoms.incr.records", records.size());
  counters_.records += records.size();
  for (const auto& rec : records) {
    const std::uint32_t vp =
        rec.peer < vp_of_peer_.size() ? vp_of_peer_[rec.peer] : kNoVp;
    if (vp == kNoVp) continue;
    // Withdrawals first, announcements second: a withdraw + re-announce
    // of the same prefix within one record nets to the announcement.
    for (const bgp::PrefixId p : rec.withdrawn) {
      const std::uint32_t r = row_of(p);
      if (r != kNoRow) touch_cell(r, vp, AtomSignatureMatrix::kAbsent);
    }
    if (rec.announced.empty()) continue;
    const std::uint32_t local = local_path_id(rec.path);
    if (local == kDroppedPath) continue;
    for (const bgp::PrefixId p : rec.announced) {
      const std::uint32_t r = row_of(p);
      if (r != kNoRow) touch_cell(r, vp, local + 1);
    }
  }
}

void IncrementalAtoms::consume(bgp::UpdateStreamView& updates) {
  for (auto chunk = updates.next_chunk(); !chunk.empty();
       chunk = updates.next_chunk()) {
    apply(chunk);
  }
}

void IncrementalAtoms::flush() {
  if (dirty_rows_.empty()) return;
  OBS_SPAN("atoms.incr.flush");
  ++counters_.flushes;
  OBS_COUNT("atoms.incr.flushes");
  std::sort(dirty_rows_.begin(), dirty_rows_.end());
  const std::size_t row_bytes = matrix_.num_vps() * sizeof(std::uint32_t);

  if (stamp_gen_ == UINT32_MAX) {  // generation wrap: reset all stamps
    std::fill(group_stamp_.begin(), group_stamp_.end(), 0);
    stamp_gen_ = 0;
  }
  const std::uint32_t gen = ++stamp_gen_;

  // Phase 1: pull every dirty row out of its group first, so surviving
  // groups hold only clean rows and any member is a valid representative
  // for the memcmp probes below.
  std::vector<std::uint32_t> touched;
  for (const std::uint32_t r : dirty_rows_) {
    const std::uint32_t g = group_of_[r];
    auto& members = groups_[g].members;
    const std::uint32_t pos = pos_in_group_[r];
    members[pos] = members.back();
    pos_in_group_[members[pos]] = pos;
    members.pop_back();
    if (group_stamp_[g] != gen) {
      group_stamp_[g] = gen;
      touched.push_back(g);
    }
  }
  std::uint64_t splits = 0;
  for (const std::uint32_t g : touched) {
    if (!groups_[g].members.empty()) {
      ++splits;  // lost some-but-not-all members: the class split
    } else {
      // Emptied: unlink from its hash bucket, recycle the slot.
      auto& b = bucket_[groups_[g].hash];
      b.erase(std::find(b.begin(), b.end(), g));
      if (b.empty()) bucket_.erase(groups_[g].hash);
      free_groups_.push_back(g);
    }
  }

  // Phase 2: re-insert in ascending row order (keeps every group's
  // minimum member first-seen, the canonical-order invariant).
  std::uint64_t merges = 0;
  for (const std::uint32_t r : dirty_rows_) {
    const std::uint64_t h =
        hash_row32(matrix_.row(r), atoms_detail::kRowSeed);
    auto& b = bucket_[h];
    std::uint32_t target = kNoRow;
    for (const std::uint32_t gid : b) {
      if (std::memcmp(matrix_.row(r).data(),
                      matrix_.row(groups_[gid].members.front()).data(),
                      row_bytes) == 0) {
        target = gid;
        break;
      }
    }
    if (target != kNoRow) {
      ++merges;  // joined an existing equality class
      group_of_[r] = target;
      pos_in_group_[r] =
          static_cast<std::uint32_t>(groups_[target].members.size());
      groups_[target].members.push_back(r);
    } else {
      std::uint32_t gid;
      if (!free_groups_.empty()) {
        gid = free_groups_.back();
        free_groups_.pop_back();
      } else {
        gid = static_cast<std::uint32_t>(groups_.size());
        groups_.emplace_back();
        group_stamp_.push_back(0);
      }
      groups_[gid].members.assign(1, r);
      groups_[gid].hash = h;
      b.push_back(gid);
      group_of_[r] = gid;
      pos_in_group_[r] = 0;
    }
    row_dirty_[r] = 0;
  }
  dirty_rows_.clear();
  counters_.splits += splits;
  counters_.merges += merges;
  OBS_COUNT_N("atoms.incr.splits", splits);
  OBS_COUNT_N("atoms.incr.merges", merges);
}

AtomSet IncrementalAtoms::atoms() {
  flush();
  OBS_SPAN("atoms.incr.materialize");
  const std::size_t n = matrix_.num_prefixes();
  if (stamp_gen_ == UINT32_MAX) {
    std::fill(group_stamp_.begin(), group_stamp_.end(), 0);
    stamp_gen_ = 0;
  }
  const std::uint32_t gen = ++stamp_gen_;
  // First-seen walk over rows: each group surfaces at its minimum member,
  // so the emitted order matches the batch kernels' min-prefix merge.
  std::vector<std::vector<std::uint32_t>> ordered;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t g = group_of_[i];
    if (group_stamp_[g] == gen) continue;
    group_stamp_[g] = gen;
    std::vector<std::uint32_t> members = groups_[g].members;
    std::sort(members.begin(), members.end());
    ordered.push_back(std::move(members));
  }
  AtomSet out;
  out.snapshot = seed_;
  // Snapshot of the evolving pool: the returned set stays valid while
  // this object keeps interning new update paths.
  out.own_pool = std::make_shared<net::PathPool>(*pool_);
  atoms_detail::fill_atom_bodies(out, ordered, matrix_, nullptr);
  return out;
}

SanitizedSnapshot IncrementalAtoms::rebuild_snapshot() const {
  SanitizedSnapshot s;
  s.prefix_pool = seed_->prefix_pool;
  s.timestamp = seed_->timestamp;
  s.paths = *pool_;
  s.prefixes = seed_->prefixes;
  s.report = seed_->report;
  // Only the maintained (possibly vp_subset-masked) columns materialize:
  // compute_atoms() over the result with default options is then the
  // recompute oracle for the masked partition too.
  s.vps.reserve(matrix_.num_vps());
  const std::size_t n = matrix_.num_prefixes();
  for (std::uint32_t col = 0; col < matrix_.num_vps(); ++col) {
    const auto& src = seed_->vps[vp_cols_.empty() ? col : vp_cols_[col]];
    VpTable t;
    t.peer = src.peer;
    t.source_index = src.source_index;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = matrix_.cell(i, col);
      if (c != AtomSignatureMatrix::kAbsent) {
        t.routes.emplace_back(seed_->prefixes[i],
                              AtomSignatureMatrix::path_of(c));
      }
    }
    s.vps.push_back(std::move(t));
  }
  return s;
}

std::uint64_t partition_fingerprint(const AtomSet& atoms) {
  const auto& prefixes = atoms.snapshot->prefixes;
  std::vector<std::uint32_t> canon(prefixes.size(), 0);
  // compute_atoms orders atoms by minimum prefix index, so the atom index
  // is already the first-seen class number the incremental digest uses.
  for (std::uint32_t a = 0; a < atoms.atoms.size(); ++a) {
    for (const bgp::PrefixId p : atoms.atoms[a].prefixes) {
      const auto it = std::lower_bound(prefixes.begin(), prefixes.end(), p);
      canon[static_cast<std::size_t>(it - prefixes.begin())] = a;
    }
  }
  return hash_row32(canon.data(), canon.size(), kPartitionFingerprintSeed);
}

}  // namespace bgpatoms::core
