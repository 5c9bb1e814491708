// Streaming analysis views: the one data path every analysis kernel
// consumes, whether the records live in memory or on disk.
//
// A SnapshotView hands out the shared dictionary pools plus per-snapshot
// RIB tables in capture order; an UpdateStreamView hands out update
// records in timestamp order, one chunk at a time. The analysis stack
// (core::sanitize, compute_atoms, core::analyze) is written against these
// two interfaces only, so the same kernels run over
//
//   * DatasetView      — a fully materialized bgp::Dataset (simulator
//                        output, tests), everything already resident;
//   * ArchiveView      — a BGA file through bgp::ArchiveReader
//                        (archive_view.h), holding at most one snapshot
//                        section plus one update chunk at a time.
//
// Residency contract: the pointer returned by next_snapshot() and the
// span returned by next_chunk() stay valid only until the next call on
// the same view — callers must finish (or copy) before advancing. The
// dictionary accessors are stable for the view's lifetime; analysis
// results holding pool pointers (core::SanitizedSnapshot::prefix_pool)
// must not outlive the view they were derived from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "bgp/dataset.h"

namespace bgpatoms::bgp {

/// Per-snapshot RIB tables over shared dictionary pools.
class SnapshotView {
 public:
  virtual ~SnapshotView() = default;

  virtual net::Family family() const = 0;
  virtual const std::vector<std::string>& collectors() const = 0;
  virtual const net::PathPool& paths() const = 0;
  virtual const PrefixPool& prefixes() const = 0;
  virtual const CommunitySetPool& communities() const = 0;

  /// Next snapshot in capture order, or nullptr at end. The pointee stays
  /// valid until the next next_snapshot()/next_chunk() call on this view.
  virtual const Snapshot* next_snapshot() = 0;

  /// High-water mark of raw records (RIB rows + update records) resident
  /// in this view at any one time. For a streamed backend this is bounded
  /// by one snapshot section plus one update chunk; for an in-memory
  /// backend it is the whole dataset. ArchiveViewResidency in
  /// tests/test_views.cpp asserts the streamed bound does not scale with
  /// snapshot count.
  virtual std::size_t peak_resident_records() const = 0;
};

/// Timestamp-ordered update cursor.
class UpdateStreamView {
 public:
  virtual ~UpdateStreamView() = default;

  /// Next chunk of update records (timestamp order across chunks); an
  /// empty span signals end of stream. The span stays valid until the
  /// next call on this view.
  virtual std::span<const UpdateRecord> next_chunk() = 0;
};

/// In-memory backend: both views over one materialized Dataset. The
/// dataset must outlive the view and any analysis results derived from
/// it. Cursors are independent: snapshots and updates can be walked in
/// any order (the dataset is fully resident anyway).
class DatasetView final : public SnapshotView, public UpdateStreamView {
 public:
  explicit DatasetView(const Dataset& ds) : ds_(&ds) {}

  net::Family family() const override { return ds_->family; }
  const std::vector<std::string>& collectors() const override {
    return ds_->collectors;
  }
  const net::PathPool& paths() const override { return ds_->paths; }
  const PrefixPool& prefixes() const override { return ds_->prefixes; }
  const CommunitySetPool& communities() const override {
    return ds_->communities;
  }

  const Snapshot* next_snapshot() override {
    if (cursor_ >= ds_->snapshots.size()) return nullptr;
    return &ds_->snapshots[cursor_++];
  }

  std::span<const UpdateRecord> next_chunk() override {
    const std::size_t total = ds_->updates.size();
    if (update_cursor_ >= total) return {};
    const std::size_t n = chunk_size_ == 0
                              ? total - update_cursor_
                              : std::min(chunk_size_, total - update_cursor_);
    const std::span<const UpdateRecord> chunk{
        ds_->updates.data() + update_cursor_, n};
    update_cursor_ += n;
    return chunk;
  }

  /// Serves updates in chunks of at most `n` records (0 = the whole
  /// stream in one span, the default). Everything is resident either
  /// way; the knob exists so tests can exercise the chunk-boundary logic
  /// of update-consuming kernels (UpdateCorrelator, IncrementalAtoms)
  /// that a streamed ArchiveView would hit — results must be identical
  /// for every chunking.
  void set_chunk_size(std::size_t n) { chunk_size_ = n; }

  std::size_t peak_resident_records() const override;

  /// Restarts both cursors (an in-memory view is rewindable for free).
  void rewind() {
    cursor_ = 0;
    update_cursor_ = 0;
  }

 private:
  const Dataset* ds_;
  std::size_t cursor_ = 0;
  std::size_t update_cursor_ = 0;
  std::size_t chunk_size_ = 0;
};

}  // namespace bgpatoms::bgp
