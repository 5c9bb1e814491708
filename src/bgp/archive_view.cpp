#include "bgp/archive_view.h"

#include "obs/obs.h"

namespace bgpatoms::bgp {

ArchiveView::ArchiveView(const std::string& path) : reader_(path) {}

void ArchiveView::note_residency() {
  const std::size_t resident =
      (snap_ ? Dataset::record_count(*snap_) : 0) +
      (chunk_ ? chunk_->size() : 0);
  // Distribution of chunk/section residency as the cursors advance: the
  // streamed-path bound ArchiveViewResidency (tests/test_views.cpp)
  // enforces, visible per run in the trace document.
  OBS_HISTOGRAM("archive.resident_records", resident);
  if (resident > peak_resident_) peak_resident_ = resident;
}

const Snapshot* ArchiveView::next_snapshot() {
  if (snapshots_done_) return nullptr;
  snap_.reset();  // free the slot before decoding the next section
  snap_ = reader_.next_snapshot();
  if (!snap_) {
    snapshots_done_ = true;
    return nullptr;
  }
  note_residency();
  return &*snap_;
}

std::span<const UpdateRecord> ArchiveView::next_chunk() {
  if (!snapshots_done_) {
    // The caller is done with snapshots (on-disk order): drain what is
    // left so the reader reaches the update run, keeping one slot live.
    while (reader_.next_snapshot()) {
    }
    snapshots_done_ = true;
  }
  snap_.reset();
  chunk_.reset();
  chunk_ = reader_.next_updates();
  if (!chunk_) return {};
  note_residency();
  return {chunk_->data(), chunk_->size()};
}

}  // namespace bgpatoms::bgp
