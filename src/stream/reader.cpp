#include "stream/reader.h"

namespace bgpatoms::stream {

RecordReader::RecordReader(bgp::SnapshotView& snapshots,
                           bgp::UpdateStreamView& updates, Filters filters)
    : snapshots_(snapshots),
      updates_(updates),
      filters_(std::move(filters)),
      collectors_(snapshots.collectors()),
      paths_(snapshots.paths()),
      prefixes_(snapshots.prefixes()),
      communities_(snapshots.communities()) {}

bool RecordReader::keep(std::string_view collector, net::Asn peer,
                        const net::Prefix& prefix) const {
  if (filters_.collector && collector != *filters_.collector) return false;
  if (filters_.peer_asn && peer != *filters_.peer_asn) return false;
  return !filters_.prefix_within || filters_.prefix_within->contains(prefix);
}

std::optional<Record> RecordReader::next() {
  // --- RIB phase -----------------------------------------------------------
  while (!rib_done_) {
    if (!snap_) {
      snap_ = snapshots_.next_snapshot();
      if (!snap_) {
        rib_done_ = true;
        break;
      }
      peer_ = 0;
      rec_ = 0;
      if (!have_first_peers_) {
        have_first_peers_ = true;
        for (const auto& feed : snap_->peers) first_peers_.push_back(feed.peer);
      }
      // Snapshots outside the window (or with RIBs filtered out entirely)
      // are still walked, just not emitted: the first one names the peers.
      if (!filters_.include_rib || !in_window(snap_->timestamp)) {
        snap_ = nullptr;
      }
      continue;
    }
    if (peer_ >= snap_->peers.size()) {
      snap_ = nullptr;
      continue;
    }
    const auto& feed = snap_->peers[peer_];
    if (rec_ >= feed.records.size()) {
      ++peer_;
      rec_ = 0;
      continue;
    }
    const auto& rec = feed.records[rec_++];
    const auto& collector = collectors_[feed.peer.collector];
    const auto& prefix = prefixes_.get(rec.prefix);
    if (!keep(collector, feed.peer.asn, prefix)) continue;

    Record out;
    out.type = RecordType::kRibEntry;
    out.timestamp = snap_->timestamp;
    out.collector = collector;
    out.peer_asn = feed.peer.asn;
    out.peer_address = feed.peer.address;
    out.prefix = prefix;
    out.path = paths_.get(rec.path);
    out.communities = communities_.get(rec.communities);
    out.status = rec.status;
    ++count_;
    return out;
  }

  // --- update phase --------------------------------------------------------
  if (!filters_.include_updates) return std::nullopt;
  while (!updates_done_) {
    if (upd_ >= chunk_.size()) {
      chunk_ = updates_.next_chunk();
      upd_ = 0;
      upd_item_ = 0;
      updates_done_ = chunk_.empty();
      continue;
    }
    const auto& u = chunk_[upd_];
    const std::size_t total = u.announced.size() + u.withdrawn.size();
    if (upd_item_ >= total || !in_window(u.timestamp)) {
      ++upd_;
      upd_item_ = 0;
      continue;
    }
    const bool is_announce = upd_item_ < u.announced.size();
    const bgp::PrefixId pid = is_announce
                                  ? u.announced[upd_item_]
                                  : u.withdrawn[upd_item_ - u.announced.size()];
    ++upd_item_;

    const auto& collector = collectors_[u.collector];
    net::Asn peer_asn = 0;
    net::IpAddress peer_addr;
    if (u.peer < first_peers_.size()) {
      peer_asn = first_peers_[u.peer].asn;
      peer_addr = first_peers_[u.peer].address;
    }
    const auto& prefix = prefixes_.get(pid);
    if (!keep(collector, peer_asn, prefix)) continue;

    Record out;
    out.type = is_announce ? RecordType::kAnnouncement
                           : RecordType::kWithdrawal;
    out.timestamp = u.timestamp;
    out.collector = collector;
    out.peer_asn = peer_asn;
    out.peer_address = peer_addr;
    out.prefix = prefix;
    if (is_announce) out.path = paths_.get(u.path);
    out.communities = communities_.get(u.communities);
    ++count_;
    return out;
  }
  return std::nullopt;
}

}  // namespace bgpatoms::stream
