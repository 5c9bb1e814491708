#include "bgp/mrt.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>

#include "bgp/views.h"
#include "bgp/wire.h"

namespace bgpatoms::bgp {

namespace {

constexpr std::uint16_t kTypeTableDumpV2 = 13;
constexpr std::uint16_t kTypeBgp4mp = 16;
constexpr std::uint16_t kTypeBgp4mpEt = 17;

constexpr std::uint16_t kSubtypePeerIndexTable = 1;
constexpr std::uint16_t kSubtypeRibIpv4Unicast = 2;
constexpr std::uint16_t kSubtypeRibIpv6Unicast = 4;
constexpr std::uint16_t kSubtypeMessageAs4 = 4;

constexpr std::uint16_t kAfiIpv4 = 1;
constexpr std::uint16_t kAfiIpv6 = 2;

class Writer {
 public:
  void u8(std::uint8_t v) { out.push_back(v); }
  void u16(std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    out.insert(out.end(), data.begin(), data.end());
  }
  void address(const net::IpAddress& a) {
    if (a.is_v4()) {
      u32(a.v4_value());
    } else {
      u32(static_cast<std::uint32_t>(a.hi() >> 32));
      u32(static_cast<std::uint32_t>(a.hi()));
      u32(static_cast<std::uint32_t>(a.lo() >> 32));
      u32(static_cast<std::uint32_t>(a.lo()));
    }
  }
  void prefix(const net::Prefix& p) {
    u8(static_cast<std::uint8_t>(p.length()));
    const int n = (p.length() + 7) / 8;
    if (p.is_v4()) {
      for (int i = 0; i < n; ++i) {
        u8(static_cast<std::uint8_t>(p.address().v4_value() >> (24 - 8 * i)));
      }
    } else {
      for (int i = 0; i < n; ++i) {
        const std::uint64_t half =
            i < 8 ? p.address().hi() : p.address().lo();
        u8(static_cast<std::uint8_t>(half >> (56 - 8 * (i % 8))));
      }
    }
  }
  std::vector<std::uint8_t> out;
};

/// Appends one MRT record (common header + body) to `file`.
void emit_record(std::vector<std::uint8_t>& file, std::uint32_t timestamp,
                 std::uint16_t type, std::uint16_t subtype,
                 std::span<const std::uint8_t> body) {
  Writer h;
  h.u32(timestamp);
  h.u16(type);
  h.u16(subtype);
  h.u32(static_cast<std::uint32_t>(body.size()));
  file.insert(file.end(), h.out.begin(), h.out.end());
  file.insert(file.end(), body.begin(), body.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  net::IpAddress address(std::uint16_t afi) {
    if (afi == kAfiIpv4) return net::IpAddress::v4(u32());
    // One read per statement: the operands of `|` are unsequenced.
    std::uint64_t hi = std::uint64_t{u32()} << 32;
    hi |= u32();
    std::uint64_t lo = std::uint64_t{u32()} << 32;
    lo |= u32();
    return net::IpAddress::v6(hi, lo);
  }
  net::Prefix prefix(net::Family family) {
    const int len = u8();
    if (len > net::address_bits(family)) throw MrtError("bad prefix length");
    const int n = (len + 7) / 8;
    const auto raw = take(static_cast<std::size_t>(n));
    if (family == net::Family::kIPv4) {
      std::uint32_t v = 0;
      for (int i = 0; i < n; ++i) v |= std::uint32_t{raw[i]} << (24 - 8 * i);
      return net::Prefix(net::IpAddress::v4(v), len);
    }
    std::uint64_t hi = 0, lo = 0;
    for (int i = 0; i < n && i < 8; ++i) {
      hi |= std::uint64_t{raw[i]} << (56 - 8 * i);
    }
    for (int i = 8; i < n; ++i) {
      lo |= std::uint64_t{raw[i]} << (56 - 8 * (i - 8));
    }
    return net::Prefix(net::IpAddress::v6(hi, lo), len);
  }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw MrtError("truncated MRT record");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> write_mrt_rib(const Dataset& ds, std::size_t index,
                                        std::uint16_t collector) {
  const DatasetView view(ds);
  return write_mrt_rib(view, ds.snapshots.at(index), collector);
}

std::vector<std::uint8_t> write_mrt_rib(const SnapshotView& src,
                                        const Snapshot& snap,
                                        std::uint16_t collector) {
  const auto ts = static_cast<std::uint32_t>(snap.timestamp);

  // Peers of this collector, in feed order.
  std::vector<std::size_t> peer_feeds;
  for (std::size_t i = 0; i < snap.peers.size(); ++i) {
    if (snap.peers[i].peer.collector == collector) peer_feeds.push_back(i);
  }

  std::vector<std::uint8_t> file;
  // --- PEER_INDEX_TABLE ---------------------------------------------------
  {
    Writer w;
    w.u32(0x0A000001);  // collector BGP ID (synthetic)
    const std::string& view = src.collectors().at(collector);
    w.u16(static_cast<std::uint16_t>(view.size()));
    for (char c : view) w.u8(static_cast<std::uint8_t>(c));
    w.u16(static_cast<std::uint16_t>(peer_feeds.size()));
    for (std::size_t i = 0; i < peer_feeds.size(); ++i) {
      const auto& peer = snap.peers[peer_feeds[i]].peer;
      // Type bits: 0 = IPv6 peer address, 1 = four-octet AS (always set).
      w.u8(static_cast<std::uint8_t>((peer.address.is_v4() ? 0 : 1) | 2));
      w.u32(0x0A000000u + static_cast<std::uint32_t>(i));  // peer BGP ID
      w.address(peer.address);
      w.u32(peer.asn);
    }
    emit_record(file, ts, kTypeTableDumpV2, kSubtypePeerIndexTable, w.out);
  }

  // --- RIB entries, grouped by prefix -------------------------------------
  std::map<PrefixId, std::vector<std::pair<std::uint16_t, const RibRecord*>>>
      by_prefix;
  for (std::size_t i = 0; i < peer_feeds.size(); ++i) {
    for (const auto& rec : snap.peers[peer_feeds[i]].records) {
      // Parse-warning statuses are a collector abstraction; MRT carries
      // only well-formed entries.
      if (rec.status != RecordStatus::kValid) continue;
      by_prefix[rec.prefix].emplace_back(static_cast<std::uint16_t>(i), &rec);
    }
  }
  const bool v6 = src.family() == net::Family::kIPv6;
  const net::IpAddress next_hop =
      v6 ? net::IpAddress::v6(0xfe80000000000000ULL, 1)
         : net::IpAddress::v4(0xC0000201u);
  std::uint32_t sequence = 0;
  for (const auto& [prefix_id, entries] : by_prefix) {
    Writer w;
    w.u32(sequence++);
    w.prefix(src.prefixes().get(prefix_id));
    w.u16(static_cast<std::uint16_t>(entries.size()));
    for (const auto& [peer_index, rec] : entries) {
      w.u16(peer_index);
      w.u32(ts);  // originated time
      const auto attrs =
          encode_rib_attributes(src, rec->path, rec->communities, next_hop);
      w.u16(static_cast<std::uint16_t>(attrs.size()));
      w.bytes(attrs);
    }
    emit_record(file, ts, kTypeTableDumpV2,
                v6 ? kSubtypeRibIpv6Unicast : kSubtypeRibIpv4Unicast, w.out);
  }
  return file;
}

std::vector<std::uint8_t> write_mrt_updates(const Dataset& ds,
                                            std::uint16_t collector) {
  if (ds.snapshots.empty()) throw MrtError("no snapshot to resolve peers");
  std::vector<PeerIdentity> peers;
  for (const auto& feed : ds.snapshots.front().peers) {
    peers.push_back(feed.peer);
  }
  const DatasetView view(ds);
  std::vector<std::uint8_t> file;
  append_mrt_updates(file, view, peers, ds.updates, collector);
  return file;
}

void append_mrt_updates(std::vector<std::uint8_t>& file,
                        const SnapshotView& src,
                        std::span<const PeerIdentity> peers,
                        std::span<const UpdateRecord> updates,
                        std::uint16_t collector) {
  const bool v6 = src.family() == net::Family::kIPv6;
  for (const auto& rec : updates) {
    if (rec.collector != collector) continue;
    if (rec.peer >= peers.size()) throw MrtError("update peer out of range");
    const auto& peer = peers[rec.peer];

    Writer w;
    w.u32(peer.asn);    // peer AS
    w.u32(65535);       // local (collector) AS — private placeholder
    w.u16(0);           // interface index
    w.u16(v6 ? kAfiIpv6 : kAfiIpv4);
    w.address(peer.address);
    w.address(v6 ? net::IpAddress::v6(0xfe80000000000000ULL, 2)
                 : net::IpAddress::v4(0x0A0000FEu));
    const auto message = encode_update(src, rec);
    w.bytes(message);
    emit_record(file, static_cast<std::uint32_t>(rec.timestamp),
                kTypeBgp4mp, kSubtypeMessageAs4, w.out);
  }
}

Dataset read_mrt(std::span<const std::uint8_t> data,
                 const std::string& collector_fallback) {
  Dataset ds;
  bool family_known = false;

  // Peer table of the current RIB dump.
  std::vector<PeerIdentity> peer_table;
  Snapshot* snapshot = nullptr;
  // (asn, address) -> peer index for BGP4MP updates.
  std::unordered_map<std::uint64_t, PeerIndex> update_peers;
  auto peer_key = [](const PeerIdentity& p) {
    return (std::uint64_t{p.asn} << 32) ^ p.address.lo() ^
           (p.address.hi() * 0x9e3779b97f4a7c15ULL);
  };

  Reader file(data);
  while (!file.at_end()) {
    const std::uint32_t ts = file.u32();
    const std::uint16_t type = file.u16();
    const std::uint16_t subtype = file.u16();
    const std::uint32_t length = file.u32();
    Reader body(file.take(length));

    if (type == kTypeTableDumpV2 && subtype == kSubtypePeerIndexTable) {
      body.u32();  // collector BGP ID
      const std::uint16_t view_len = body.u16();
      std::string view;
      for (int i = 0; i < view_len; ++i) {
        view.push_back(static_cast<char>(body.u8()));
      }
      if (view.empty()) view = collector_fallback;
      auto coll_it =
          std::find(ds.collectors.begin(), ds.collectors.end(), view);
      if (coll_it == ds.collectors.end()) {
        ds.collectors.push_back(view);
        coll_it = std::prev(ds.collectors.end());
      }
      const auto coll_index = static_cast<CollectorIndex>(
          coll_it - ds.collectors.begin());

      const std::uint16_t n_peers = body.u16();
      peer_table.clear();
      ds.snapshots.push_back(Snapshot{static_cast<Timestamp>(ts), {}});
      snapshot = &ds.snapshots.back();
      for (int i = 0; i < n_peers; ++i) {
        const std::uint8_t peer_type = body.u8();
        body.u32();  // peer BGP ID
        PeerIdentity peer;
        peer.address =
            body.address((peer_type & 1) ? kAfiIpv6 : kAfiIpv4);
        peer.asn = (peer_type & 2) ? body.u32() : body.u16();
        peer.collector = coll_index;
        peer_table.push_back(peer);
        snapshot->peers.push_back(PeerFeed{peer, {}});
      }
      continue;
    }

    if (type == kTypeTableDumpV2 && (subtype == kSubtypeRibIpv4Unicast ||
                                     subtype == kSubtypeRibIpv6Unicast)) {
      if (snapshot == nullptr) throw MrtError("RIB entry before peer table");
      const net::Family family = subtype == kSubtypeRibIpv4Unicast
                                     ? net::Family::kIPv4
                                     : net::Family::kIPv6;
      if (!family_known) {
        ds.family = family;
        family_known = true;
      }
      body.u32();  // sequence
      const net::Prefix prefix = body.prefix(family);
      const PrefixId prefix_id = ds.prefixes.intern(prefix);
      const std::uint16_t n_entries = body.u16();
      for (int i = 0; i < n_entries; ++i) {
        const std::uint16_t peer_index = body.u16();
        if (peer_index >= peer_table.size()) {
          throw MrtError("RIB entry peer index out of range");
        }
        body.u32();  // originated time
        const std::uint16_t attr_len = body.u16();
        DecodedAttributes attrs;
        try {
          attrs = decode_attributes(body.take(attr_len));
        } catch (const WireError& e) {
          throw MrtError(std::string("bad RIB attributes: ") + e.what());
        }
        RibRecord rec;
        rec.prefix = prefix_id;
        rec.path = ds.paths.intern(attrs.path);
        rec.communities = ds.communities.intern(attrs.communities);
        snapshot->peers[peer_index].records.push_back(rec);
      }
      continue;
    }

    if ((type == kTypeBgp4mp || type == kTypeBgp4mpEt) &&
        subtype == kSubtypeMessageAs4) {
      if (type == kTypeBgp4mpEt) body.u32();  // microsecond timestamp
      PeerIdentity peer;
      peer.asn = body.u32();
      body.u32();  // local AS
      body.u16();  // interface index
      const std::uint16_t afi = body.u16();
      peer.address = body.address(afi);
      body.address(afi);  // local address
      peer.collector = 0;

      // Resolve (or create) the peer index against snapshot 0.
      if (ds.snapshots.empty()) {
        ds.snapshots.push_back(Snapshot{static_cast<Timestamp>(ts), {}});
        snapshot = &ds.snapshots.back();
      }
      const std::uint64_t key = peer_key(peer);
      auto [it, fresh] = update_peers.try_emplace(
          key, static_cast<PeerIndex>(ds.snapshots[0].peers.size()));
      if (fresh) {
        // Match an existing RIB peer if one has the same identity.
        bool matched = false;
        for (PeerIndex i = 0; i < ds.snapshots[0].peers.size(); ++i) {
          const auto& p = ds.snapshots[0].peers[i].peer;
          if (p.asn == peer.asn && p.address == peer.address) {
            it->second = i;
            matched = true;
            break;
          }
        }
        if (!matched) ds.snapshots[0].peers.push_back(PeerFeed{peer, {}});
      }

      const auto remaining = body.take(body.remaining());
      DecodedUpdate decoded;
      try {
        decoded = decode_update(remaining, afi == kAfiIpv6
                                               ? net::Family::kIPv6
                                               : net::Family::kIPv4);
      } catch (const WireError& e) {
        throw MrtError(std::string("bad BGP4MP message: ") + e.what());
      }
      UpdateRecord rec;
      rec.timestamp = static_cast<Timestamp>(ts);
      rec.collector = ds.snapshots[0].peers[it->second].peer.collector;
      rec.peer = it->second;
      rec.path = ds.paths.intern(decoded.path);
      rec.communities = ds.communities.intern(decoded.communities);
      for (const auto& p : decoded.announced) {
        rec.announced.push_back(ds.prefixes.intern(p));
        if (!family_known) {
          ds.family = p.family();
          family_known = true;
        }
      }
      for (const auto& p : decoded.withdrawn) {
        rec.withdrawn.push_back(ds.prefixes.intern(p));
      }
      ds.updates.push_back(std::move(rec));
      continue;
    }
    // Unknown record type/subtype: skip (body already consumed).
  }
  return ds;
}

void write_mrt_rib_file(const Dataset& ds, std::size_t index,
                        std::uint16_t collector, const std::string& path) {
  const auto bytes = write_mrt_rib(ds, index, collector);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) throw MrtError("cannot open for writing: " + path);
  if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    throw MrtError("short write: " + path);
  }
}

Dataset read_mrt_file(const std::string& path,
                      const std::string& collector_fallback) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) throw MrtError("cannot open for reading: " + path);
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  if (size < 0) throw MrtError("cannot stat: " + path);
  std::fseek(f.get(), 0, SEEK_SET);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  if (std::fread(data.data(), 1, data.size(), f.get()) != data.size()) {
    throw MrtError("short read: " + path);
  }
  return read_mrt(data, collector_fallback);
}

}  // namespace bgpatoms::bgp
