// A BGPStream-like record interface over BGA datasets.
//
// The paper's pipeline consumes MRT archives through libbgpstream's
// record iterator with collector/peer/prefix/time filters; this is the
// equivalent layer for our archives. Records are yielded RIB-first (in
// snapshot order), then updates in timestamp order, exactly like
// `bgpreader -t ribs,updates`.
//
// RecordReader iterates any pair of analysis views (bgp/views.h): a
// bgp::DatasetView over an in-memory dataset, or a bgp::ArchiveView that
// streams a BGA file one section at a time, so a multi-GB archive yields
// its first records before the file tail is read.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "bgp/views.h"

namespace bgpatoms::stream {

enum class RecordType : std::uint8_t {
  kRibEntry,
  kAnnouncement,
  kWithdrawal,
};

/// One elementary routing record (a RIB row or one NLRI of an update).
struct Record {
  RecordType type = RecordType::kRibEntry;
  bgp::Timestamp timestamp = 0;
  std::string_view collector;
  net::Asn peer_asn = 0;
  net::IpAddress peer_address;
  net::Prefix prefix;
  /// Absent for withdrawals.
  std::optional<net::PathView> path;
  std::span<const bgp::Community> communities;
  bgp::RecordStatus status = bgp::RecordStatus::kValid;
};

/// Filters in the spirit of bgpstream's interface. Default-constructed
/// filters accept everything.
struct Filters {
  std::optional<std::string> collector;
  std::optional<net::Asn> peer_asn;
  /// Keep records whose prefix equals or is contained in this one.
  std::optional<net::Prefix> prefix_within;
  /// Keep records with time_begin <= timestamp <= time_end: both ends are
  /// inclusive. A RIB row carries its snapshot's timestamp.
  bgp::Timestamp time_begin = INT64_MIN;
  bgp::Timestamp time_end = INT64_MAX;
  bool include_rib = true;
  bool include_updates = true;
};

class RecordReader {
 public:
  /// Iterates the RIB rows of `snapshots`, then the records of `updates`
  /// (usually the same view object). Update peer indices resolve through
  /// the first snapshot's peers. Records point into the snapshot view's
  /// dictionaries: both views must outlive the reader and every record
  /// it yields.
  RecordReader(bgp::SnapshotView& snapshots, bgp::UpdateStreamView& updates,
               Filters filters = {});

  /// Next matching record, or nullopt at end of stream. Throws
  /// bgp::ArchiveError if a streamed section turns out corrupt or
  /// truncated.
  std::optional<Record> next();

  /// Records yielded so far.
  std::size_t count() const { return count_; }

 private:
  bool in_window(bgp::Timestamp t) const {
    return t >= filters_.time_begin && t <= filters_.time_end;
  }
  bool keep(std::string_view collector, net::Asn peer,
            const net::Prefix& prefix) const;

  bgp::SnapshotView& snapshots_;
  bgp::UpdateStreamView& updates_;
  Filters filters_;
  // The snapshot view's dictionaries, stable for its lifetime; resolved
  // once so the per-record path makes no virtual calls.
  const std::vector<std::string>& collectors_;
  const net::PathPool& paths_;
  const bgp::PrefixPool& prefixes_;
  const bgp::CommunitySetPool& communities_;

  // RIB phase: the snapshot being emitted (valid until the next cursor
  // call on snapshots_).
  const bgp::Snapshot* snap_ = nullptr;
  std::size_t peer_ = 0;
  std::size_t rec_ = 0;
  bool rib_done_ = false;

  // Peer identities of the first snapshot, used to resolve the peer index
  // carried by update records (the simulator keeps peer order stable
  // across snapshots).
  std::vector<bgp::PeerIdentity> first_peers_;
  bool have_first_peers_ = false;

  // Update phase: the chunk being emitted.
  std::span<const bgp::UpdateRecord> chunk_;
  std::size_t upd_ = 0;
  std::size_t upd_item_ = 0;  // index into announced+withdrawn of chunk_[upd_]
  bool updates_done_ = false;

  std::size_t count_ = 0;
};

}  // namespace bgpatoms::stream
