#include "bgp/archive.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bgp/archive_format.h"

namespace bgpatoms::bgp {

namespace archive_detail {

namespace {

void write_address(ByteWriter& w, const net::IpAddress& a) {
  if (a.is_v4()) {
    w.u32(a.v4_value());
  } else {
    w.u64(a.hi());
    w.u64(a.lo());
  }
}

net::IpAddress read_address(ByteReader& r, net::Family f) {
  if (f == net::Family::kIPv4) return net::IpAddress::v4(r.u32());
  const std::uint64_t hi = r.u64();
  const std::uint64_t lo = r.u64();
  return net::IpAddress::v6(hi, lo);
}

void write_path(ByteWriter& w, net::PathView p) {
  w.varint(p.segments().size());
  for (const auto& seg : p.segments()) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.varint(seg.asns.size());
    for (net::Asn a : seg.asns) w.varint(a);
  }
}

/// Decodes one dictionary path into `hops` and its segment `layout`,
/// replacing their contents.
void read_path(ByteReader& r, std::vector<net::Asn>& hops,
               std::vector<net::SegmentEnd>& layout) {
  hops.clear();
  layout.clear();
  const std::uint64_t nseg = r.varint();
  if (nseg > 1024) throw ArchiveError("absurd segment count");
  checked_count(r, nseg, kMinSegmentBytes, "path segments");
  for (std::uint64_t i = 0; i < nseg; ++i) {
    const auto type = static_cast<net::SegmentType>(r.u8());
    if (type != net::SegmentType::kSequence && type != net::SegmentType::kSet)
      throw ArchiveError("bad segment type");
    const std::uint64_t n = r.varint();
    if (n == 0 || n > (1u << 20)) throw ArchiveError("bad segment length");
    checked_count(r, n, kMinAsnBytes, "segment ASNs");
    for (std::uint64_t k = 0; k < n; ++k)
      hops.push_back(static_cast<net::Asn>(r.varint()));
    layout.push_back({type, static_cast<std::uint32_t>(hops.size())});
  }
}

PrefixId check_prefix(const Dataset& ds, std::uint64_t id) {
  if (id >= ds.prefixes.size()) throw ArchiveError("prefix id out of range");
  return static_cast<PrefixId>(id);
}
PathId check_path(const Dataset& ds, std::uint64_t id) {
  if (id >= ds.paths.size()) throw ArchiveError("path id out of range");
  return static_cast<PathId>(id);
}
CommunitySetId check_comm(const Dataset& ds, std::uint64_t id) {
  if (id >= ds.communities.size())
    throw ArchiveError("community id out of range");
  return static_cast<CommunitySetId>(id);
}

}  // namespace

std::uint64_t checked_count(const ByteReader& r, std::uint64_t n,
                            std::size_t min_bytes, const char* what) {
  if (n > r.remaining() / min_bytes) {
    throw ArchiveError(std::string("count exceeds input: ") + what);
  }
  return n;
}

void encode_collectors(ByteWriter& w, const Dataset& ds) {
  w.varint(ds.collectors.size());
  for (const auto& c : ds.collectors) w.string(c);
}

void encode_paths(ByteWriter& w, const Dataset& ds) {
  // Path dictionary (id 0, the empty path, is implicit).
  w.varint(ds.paths.size() - 1);
  for (std::size_t id = 1; id < ds.paths.size(); ++id) {
    write_path(w, ds.paths.get(static_cast<PathId>(id)));
  }
}

void encode_prefixes(ByteWriter& w, const Dataset& ds) {
  w.varint(ds.prefixes.size());
  for (std::size_t id = 0; id < ds.prefixes.size(); ++id) {
    const auto& p = ds.prefixes.get(static_cast<PrefixId>(id));
    w.u8(static_cast<std::uint8_t>(p.length()));
    write_address(w, p.address());
  }
}

void encode_communities(ByteWriter& w, const Dataset& ds) {
  // Community-set dictionary (id 0, the empty set, is implicit).
  w.varint(ds.communities.size() - 1);
  for (std::size_t id = 1; id < ds.communities.size(); ++id) {
    const auto& set = ds.communities.get(static_cast<std::uint32_t>(id));
    w.varint(set.size());
    for (Community c : set) w.varint(c);
  }
}

void encode_snapshot(ByteWriter& w, const Snapshot& snap) {
  w.svarint(snap.timestamp);
  w.varint(snap.peers.size());
  for (const auto& feed : snap.peers) {
    w.varint(feed.peer.asn);
    write_address(w, feed.peer.address);
    w.varint(feed.peer.collector);
    w.varint(feed.records.size());
    for (const auto& rec : feed.records) {
      w.varint(rec.prefix);
      w.varint(rec.path);
      w.varint(rec.communities);
      w.u8(static_cast<std::uint8_t>(rec.status));
    }
  }
}

void encode_updates(ByteWriter& w, const std::vector<UpdateRecord>& updates,
                    std::size_t begin, std::size_t end) {
  w.varint(end - begin);
  Timestamp prev = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& u = updates[i];
    w.svarint(u.timestamp - prev);
    prev = u.timestamp;
    w.varint(u.collector);
    w.varint(u.peer);
    w.varint(u.path);
    w.varint(u.communities);
    w.varint(u.announced.size());
    for (PrefixId p : u.announced) w.varint(p);
    w.varint(u.withdrawn.size());
    for (PrefixId p : u.withdrawn) w.varint(p);
  }
}

void decode_collectors(ByteReader& r, Dataset& ds) {
  const std::uint64_t ncoll =
      checked_count(r, r.varint(), kMinCollectorBytes, "collectors");
  ds.collectors.reserve(ncoll);
  for (std::uint64_t i = 0; i < ncoll; ++i) ds.collectors.push_back(r.string());
}

void decode_paths(ByteReader& r, Dataset& ds) {
  const std::uint64_t npaths =
      checked_count(r, r.varint(), kMinPathBytes, "paths");
  std::vector<net::Asn> hops;
  std::vector<net::SegmentEnd> layout;
  for (std::uint64_t i = 0; i < npaths; ++i) {
    read_path(r, hops, layout);
    const PathId id = ds.paths.intern(hops, layout);
    if (id != i + 1) throw ArchiveError("duplicate path in dictionary");
  }
}

void decode_prefixes(ByteReader& r, Dataset& ds) {
  const std::uint64_t nprefixes = checked_count(
      r, r.varint(), min_prefix_entry_bytes(ds.family), "prefixes");
  for (std::uint64_t i = 0; i < nprefixes; ++i) {
    const int len = r.u8();
    const auto addr = read_address(r, ds.family);
    if (len > net::address_bits(ds.family))
      throw ArchiveError("bad prefix length");
    const PrefixId id = ds.prefixes.intern(net::Prefix(addr, len));
    if (id != i) throw ArchiveError("duplicate prefix in dictionary");
  }
}

void decode_communities(ByteReader& r, Dataset& ds) {
  const std::uint64_t ncomm =
      checked_count(r, r.varint(), kMinCommunitySetBytes, "community sets");
  for (std::uint64_t i = 0; i < ncomm; ++i) {
    const std::uint64_t n = r.varint();
    if (n > (1u << 16)) throw ArchiveError("absurd community set");
    checked_count(r, n, kMinCommunityBytes, "communities");
    std::vector<Community> set(n);
    for (auto& c : set) c = static_cast<Community>(r.varint());
    const auto id = ds.communities.intern(std::move(set));
    if (id != i + 1) throw ArchiveError("duplicate community set");
  }
}

Snapshot decode_snapshot(ByteReader& r, const Dataset& ds) {
  Snapshot snap;
  snap.timestamp = r.svarint();
  const std::uint64_t npeers =
      checked_count(r, r.varint(), min_peer_bytes(ds.family), "peers");
  snap.peers.reserve(npeers);
  for (std::uint64_t k = 0; k < npeers; ++k) {
    PeerFeed feed;
    feed.peer.asn = static_cast<net::Asn>(r.varint());
    feed.peer.address = read_address(r, ds.family);
    const std::uint64_t coll = r.varint();
    if (coll >= ds.collectors.size())
      throw ArchiveError("collector index out of range");
    feed.peer.collector = static_cast<CollectorIndex>(coll);
    const std::uint64_t nrec =
        checked_count(r, r.varint(), kMinRibRecordBytes, "RIB records");
    feed.records.reserve(nrec);
    for (std::uint64_t j = 0; j < nrec; ++j) {
      RibRecord rec;
      rec.prefix = check_prefix(ds, r.varint());
      rec.path = check_path(ds, r.varint());
      rec.communities = check_comm(ds, r.varint());
      const std::uint8_t st = r.u8();
      if (st > 3) throw ArchiveError("bad record status");
      rec.status = static_cast<RecordStatus>(st);
      feed.records.push_back(rec);
    }
    snap.peers.push_back(std::move(feed));
  }
  return snap;
}

std::vector<UpdateRecord> decode_updates(ByteReader& r, const Dataset& ds) {
  const std::uint64_t nupd =
      checked_count(r, r.varint(), kMinUpdateBytes, "updates");
  std::vector<UpdateRecord> updates;
  updates.reserve(nupd);
  Timestamp prev = 0;
  for (std::uint64_t i = 0; i < nupd; ++i) {
    UpdateRecord u;
    prev += r.svarint();
    u.timestamp = prev;
    const std::uint64_t coll = r.varint();
    if (coll >= ds.collectors.size())
      throw ArchiveError("collector index out of range");
    u.collector = static_cast<CollectorIndex>(coll);
    u.peer = static_cast<PeerIndex>(r.varint());
    u.path = check_path(ds, r.varint());
    u.communities = check_comm(ds, r.varint());
    const std::uint64_t na =
        checked_count(r, r.varint(), kMinPrefixIdBytes, "announced prefixes");
    u.announced.reserve(na);
    for (std::uint64_t k = 0; k < na; ++k)
      u.announced.push_back(check_prefix(ds, r.varint()));
    const std::uint64_t nw =
        checked_count(r, r.varint(), kMinPrefixIdBytes, "withdrawn prefixes");
    u.withdrawn.reserve(nw);
    for (std::uint64_t k = 0; k < nw; ++k)
      u.withdrawn.push_back(check_prefix(ds, r.varint()));
    updates.push_back(std::move(u));
  }
  return updates;
}

}  // namespace archive_detail

namespace {

using namespace archive_detail;

void append_section(std::vector<std::uint8_t>& out, Section id,
                    ByteWriter&& payload) {
  const auto body = payload.take();
  ByteWriter frame;
  frame.u8(static_cast<std::uint8_t>(id));
  frame.u64(body.size());
  const auto& h = frame.buffer();
  out.insert(out.end(), h.begin(), h.end());
  out.insert(out.end(), body.begin(), body.end());
  ByteWriter tail;
  tail.u32(crc32(std::span<const std::uint8_t>(body.data(), body.size())));
  const auto& t = tail.buffer();
  out.insert(out.end(), t.begin(), t.end());
}

}  // namespace

std::vector<std::uint8_t> write_archive(const Dataset& ds) {
  std::vector<std::uint8_t> out;
  out.reserve(64);
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  out.push_back(static_cast<std::uint8_t>(ds.family));
  // Header CRC: magic and family are outside every section, so they get
  // their own checksum — a flipped family bit must not mis-decode prefixes.
  const std::uint32_t head_crc =
      crc32(std::span<const std::uint8_t>(out.data(), out.size()));
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(head_crc >> (8 * i)));

  const auto section = [&out](Section id, auto&& fill) {
    ByteWriter w;
    fill(w);
    append_section(out, id, std::move(w));
  };
  section(Section::kCollectors, [&](ByteWriter& w) { encode_collectors(w, ds); });
  section(Section::kPaths, [&](ByteWriter& w) { encode_paths(w, ds); });
  section(Section::kPrefixes, [&](ByteWriter& w) { encode_prefixes(w, ds); });
  section(Section::kCommunities,
          [&](ByteWriter& w) { encode_communities(w, ds); });

  for (const auto& snap : ds.snapshots) {
    section(Section::kSnapshot, [&](ByteWriter& w) { encode_snapshot(w, snap); });
  }
  for (std::size_t begin = 0; begin < ds.updates.size();
       begin += kUpdatesPerChunk) {
    const std::size_t end =
        std::min(begin + kUpdatesPerChunk, ds.updates.size());
    section(Section::kUpdates,
            [&](ByteWriter& w) { encode_updates(w, ds.updates, begin, end); });
  }
  append_section(out, Section::kEnd, ByteWriter{});
  return out;
}

void write_archive_file(const Dataset& ds, const std::string& path) {
  const auto image = write_archive(ds);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) throw ArchiveError("cannot open for writing: " + path);
  if (std::fwrite(image.data(), 1, image.size(), f.get()) != image.size())
    throw ArchiveError("short write: " + path);
  if (std::fflush(f.get()) != 0) throw ArchiveError("short write: " + path);
}

}  // namespace bgpatoms::bgp
