#include "bgp/wire.h"

#include <cstring>

#include "bgp/views.h"

namespace bgpatoms::bgp {

namespace {

// Attribute type codes (RFC 4271 §5, RFC 1997, RFC 4760).
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kAttrCommunities = 8;
constexpr std::uint8_t kAttrMpReach = 14;
constexpr std::uint8_t kAttrMpUnreach = 15;

// Attribute flag bits.
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

// AS path segment types (RFC 4271 §4.3 b).
constexpr std::uint8_t kSegmentAsSet = 1;
constexpr std::uint8_t kSegmentAsSequence = 2;

constexpr std::uint16_t kAfiIpv6 = 2;
constexpr std::uint8_t kSafiUnicast = 1;

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
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out.insert(out.end(), p, p + n);
  }
  /// Writes a big-endian u16 at an already-reserved position.
  void patch_u16(std::size_t pos, std::uint16_t v) {
    out[pos] = static_cast<std::uint8_t>(v >> 8);
    out[pos + 1] = static_cast<std::uint8_t>(v);
  }
  std::vector<std::uint8_t> out;
};

void write_nlri(Writer& w, const net::Prefix& p) {
  w.u8(static_cast<std::uint8_t>(p.length()));
  const int bytes = (p.length() + 7) / 8;
  if (p.is_v4()) {
    const std::uint32_t v = p.address().v4_value();
    for (int i = 0; i < bytes; ++i) {
      w.u8(static_cast<std::uint8_t>(v >> (24 - 8 * i)));
    }
  } else {
    for (int i = 0; i < bytes; ++i) {
      const std::uint64_t half = i < 8 ? p.address().hi() : p.address().lo();
      const int shift = 56 - 8 * (i % 8);
      w.u8(static_cast<std::uint8_t>(half >> shift));
    }
  }
}

/// Writes one attribute header; returns the position of the length field.
std::size_t begin_attribute(Writer& w, std::uint8_t flags, std::uint8_t type,
                            bool extended) {
  w.u8(extended ? static_cast<std::uint8_t>(flags | kFlagExtendedLength)
                : flags);
  w.u8(type);
  const std::size_t pos = w.out.size();
  if (extended) {
    w.u16(0);
  } else {
    w.u8(0);
  }
  return pos;
}

void end_attribute(Writer& w, std::size_t len_pos, bool extended) {
  const std::size_t len = w.out.size() - len_pos - (extended ? 2 : 1);
  if (extended) {
    w.patch_u16(len_pos, static_cast<std::uint16_t>(len));
  } else {
    if (len > 255) throw WireError("attribute needs extended length");
    w.out[len_pos] = static_cast<std::uint8_t>(len);
  }
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
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw WireError("truncated UPDATE");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

net::Prefix read_nlri(Reader& r, net::Family family) {
  const int len = r.u8();
  if (len > net::address_bits(family)) throw WireError("bad NLRI length");
  const int bytes = (len + 7) / 8;
  const auto raw = r.take(static_cast<std::size_t>(bytes));
  if (family == net::Family::kIPv4) {
    std::uint32_t v = 0;
    for (int i = 0; i < bytes; ++i) v |= std::uint32_t{raw[i]} << (24 - 8 * i);
    return net::Prefix(net::IpAddress::v4(v), len);
  }
  std::uint64_t hi = 0, lo = 0;
  for (int i = 0; i < bytes && i < 8; ++i) {
    hi |= std::uint64_t{raw[i]} << (56 - 8 * i);
  }
  for (int i = 8; i < bytes; ++i) {
    lo |= std::uint64_t{raw[i]} << (56 - 8 * (i - 8));
  }
  return net::Prefix(net::IpAddress::v6(hi, lo), len);
}

void write_as_path(Writer& w, net::PathView path) {
  // AS_PATH is extended-length: long prepended paths can exceed 255 bytes.
  const std::size_t len_pos =
      begin_attribute(w, kFlagTransitive, kAttrAsPath, /*extended=*/true);
  for (const auto& seg : path.segments()) {
    if (seg.asns.size() > 255) throw WireError("AS path segment too long");
    w.u8(seg.type == net::SegmentType::kSet ? kSegmentAsSet
                                            : kSegmentAsSequence);
    w.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (net::Asn a : seg.asns) w.u32(a);  // four-octet ASNs (RFC 6793)
  }
  end_attribute(w, len_pos, /*extended=*/true);
}

net::AsPath read_as_path(Reader attr) {
  net::AsPath path;
  std::vector<net::Asn> asns;
  while (!attr.at_end()) {
    const std::uint8_t type = attr.u8();
    if (type != kSegmentAsSet && type != kSegmentAsSequence) {
      throw WireError("bad AS path segment type");
    }
    const std::uint8_t count = attr.u8();
    asns.clear();
    for (int i = 0; i < count; ++i) asns.push_back(attr.u32());
    path.append_segment(type == kSegmentAsSet ? net::SegmentType::kSet
                                              : net::SegmentType::kSequence,
                        asns);
  }
  return path;
}

/// Shared core of both encode_update overloads: everything the codec
/// needs is the family plus the three dictionary pools, so Dataset and
/// SnapshotView callers meet here.
std::vector<std::uint8_t> encode_update_impl(
    net::Family family, const net::PathPool& paths, const PrefixPool& prefixes,
    const CommunitySetPool& communities, const UpdateRecord& rec,
    std::optional<net::IpAddress> next_hop) {
  const bool v6 = family == net::Family::kIPv6;
  const net::IpAddress nh = next_hop.value_or(
      v6 ? net::IpAddress::v6(0xfe80000000000000ULL, 1)
         : net::IpAddress::v4(0xC0000201u));

  Writer w;
  for (int i = 0; i < 16; ++i) w.u8(0xFF);  // marker
  const std::size_t length_pos = w.out.size();
  w.u16(0);  // total length, patched below
  w.u8(2);   // type = UPDATE

  // Withdrawn routes (IPv4 only in the base body).
  const std::size_t withdrawn_len_pos = w.out.size();
  w.u16(0);
  if (!v6) {
    for (PrefixId p : rec.withdrawn) write_nlri(w, prefixes.get(p));
    w.patch_u16(withdrawn_len_pos,
                static_cast<std::uint16_t>(w.out.size() - withdrawn_len_pos - 2));
  }

  // Path attributes.
  const std::size_t attr_len_pos = w.out.size();
  w.u16(0);
  const bool has_announcements = !rec.announced.empty();
  if (has_announcements) {
    std::size_t p = begin_attribute(w, kFlagTransitive, kAttrOrigin, false);
    w.u8(static_cast<std::uint8_t>(WireOrigin::kIgp));
    end_attribute(w, p, false);

    write_as_path(w, paths.get(rec.path));

    if (!v6) {
      p = begin_attribute(w, kFlagTransitive, kAttrNextHop, false);
      w.u32(nh.v4_value());
      end_attribute(w, p, false);
    }

    const auto& comms = communities.get(rec.communities);
    if (!comms.empty()) {
      p = begin_attribute(w, kFlagOptional | kFlagTransitive,
                          kAttrCommunities, true);
      for (Community c : comms) w.u32(c);
      end_attribute(w, p, true);
    }

    if (v6) {
      p = begin_attribute(w, kFlagOptional, kAttrMpReach, true);
      w.u16(kAfiIpv6);
      w.u8(kSafiUnicast);
      w.u8(16);  // next-hop length
      w.u32(static_cast<std::uint32_t>(nh.hi() >> 32));
      w.u32(static_cast<std::uint32_t>(nh.hi()));
      w.u32(static_cast<std::uint32_t>(nh.lo() >> 32));
      w.u32(static_cast<std::uint32_t>(nh.lo()));
      w.u8(0);  // reserved
      for (PrefixId pid : rec.announced) write_nlri(w, prefixes.get(pid));
      end_attribute(w, p, true);
    }
  }
  if (v6 && !rec.withdrawn.empty()) {
    const std::size_t p =
        begin_attribute(w, kFlagOptional, kAttrMpUnreach, true);
    w.u16(kAfiIpv6);
    w.u8(kSafiUnicast);
    for (PrefixId pid : rec.withdrawn) write_nlri(w, prefixes.get(pid));
    end_attribute(w, p, true);
  }
  w.patch_u16(attr_len_pos,
              static_cast<std::uint16_t>(w.out.size() - attr_len_pos - 2));

  // IPv4 NLRI rides the message tail.
  if (!v6) {
    for (PrefixId p : rec.announced) write_nlri(w, prefixes.get(p));
  }

  if (w.out.size() > kMaxMessageSize) {
    throw WireError("UPDATE exceeds 4096 bytes; pack with bgp::pack_updates");
  }
  w.patch_u16(length_pos, static_cast<std::uint16_t>(w.out.size()));
  return std::move(w.out);
}

/// Shared core of both encode_rib_attributes overloads.
std::vector<std::uint8_t> encode_rib_attributes_impl(
    const net::PathPool& paths, const CommunitySetPool& community_pool,
    PathId path, CommunitySetId communities, const net::IpAddress& next_hop) {
  Writer w;
  std::size_t p = begin_attribute(w, kFlagTransitive, kAttrOrigin, false);
  w.u8(static_cast<std::uint8_t>(WireOrigin::kIgp));
  end_attribute(w, p, false);

  write_as_path(w, paths.get(path));

  if (next_hop.is_v4()) {
    p = begin_attribute(w, kFlagTransitive, kAttrNextHop, false);
    w.u32(next_hop.v4_value());
    end_attribute(w, p, false);
  } else {
    // MRT RIB convention: MP_REACH carries only the next hop, no NLRI.
    p = begin_attribute(w, kFlagOptional, kAttrMpReach, true);
    w.u16(kAfiIpv6);
    w.u8(kSafiUnicast);
    w.u8(16);
    w.u32(static_cast<std::uint32_t>(next_hop.hi() >> 32));
    w.u32(static_cast<std::uint32_t>(next_hop.hi()));
    w.u32(static_cast<std::uint32_t>(next_hop.lo() >> 32));
    w.u32(static_cast<std::uint32_t>(next_hop.lo()));
    w.u8(0);
    end_attribute(w, p, true);
  }

  const auto& comms = community_pool.get(communities);
  if (!comms.empty()) {
    p = begin_attribute(w, kFlagOptional | kFlagTransitive, kAttrCommunities,
                        true);
    for (Community c : comms) w.u32(c);
    end_attribute(w, p, true);
  }
  return std::move(w.out);
}

}  // namespace

std::vector<std::uint8_t> encode_update(
    const Dataset& ds, const UpdateRecord& rec,
    std::optional<net::IpAddress> next_hop) {
  return encode_update_impl(ds.family, ds.paths, ds.prefixes, ds.communities,
                            rec, next_hop);
}

std::vector<std::uint8_t> encode_update(
    const SnapshotView& src, const UpdateRecord& rec,
    std::optional<net::IpAddress> next_hop) {
  return encode_update_impl(src.family(), src.paths(), src.prefixes(),
                            src.communities(), rec, next_hop);
}

std::vector<std::uint8_t> encode_rib_attributes(
    const Dataset& ds, PathId path, CommunitySetId communities,
    const net::IpAddress& next_hop) {
  return encode_rib_attributes_impl(ds.paths, ds.communities, path,
                                    communities, next_hop);
}

std::vector<std::uint8_t> encode_rib_attributes(
    const SnapshotView& src, PathId path, CommunitySetId communities,
    const net::IpAddress& next_hop) {
  return encode_rib_attributes_impl(src.paths(), src.communities(), path,
                                    communities, next_hop);
}

std::size_t peek_update_length(std::span<const std::uint8_t> data) {
  if (data.size() < 19) throw WireError("short BGP header");
  for (int i = 0; i < 16; ++i) {
    if (data[i] != 0xFF) throw WireError("bad BGP marker");
  }
  const std::size_t len = (std::size_t{data[16]} << 8) | data[17];
  if (len < 19 || len > kMaxMessageSize) throw WireError("bad BGP length");
  if (data[18] != 2) throw WireError("not an UPDATE message");
  return len;
}

DecodedAttributes decode_attributes(std::span<const std::uint8_t> block) {
  Reader attrs(block);
  DecodedAttributes out;
  while (!attrs.at_end()) {
    const std::uint8_t flags = attrs.u8();
    const std::uint8_t type = attrs.u8();
    const std::size_t alen =
        (flags & kFlagExtendedLength) ? attrs.u16() : attrs.u8();
    Reader body(attrs.take(alen));
    switch (type) {
      case kAttrOrigin: {
        const std::uint8_t v = body.u8();
        if (v > 2) throw WireError("bad ORIGIN value");
        out.origin = static_cast<WireOrigin>(v);
        break;
      }
      case kAttrAsPath:
        out.path = read_as_path(body);
        break;
      case kAttrNextHop:
        out.next_hop = net::IpAddress::v4(body.u32());
        break;
      case kAttrCommunities:
        if (alen % 4 != 0) throw WireError("bad COMMUNITIES length");
        while (!body.at_end()) out.communities.push_back(body.u32());
        break;
      case kAttrMpReach: {
        if (body.u16() != kAfiIpv6 || body.u8() != kSafiUnicast) {
          throw WireError("unsupported MP_REACH AFI/SAFI");
        }
        const std::uint8_t nh_len = body.u8();
        if (nh_len != 16) throw WireError("bad MP next-hop length");
        // One read per statement: the operands of `|` are unsequenced.
        std::uint64_t hi = std::uint64_t{body.u32()} << 32;
        hi |= body.u32();
        std::uint64_t lo = std::uint64_t{body.u32()} << 32;
        lo |= body.u32();
        out.next_hop = net::IpAddress::v6(hi, lo);
        body.u8();  // reserved
        while (!body.at_end()) {
          out.mp_announced.push_back(read_nlri(body, net::Family::kIPv6));
        }
        break;
      }
      case kAttrMpUnreach: {
        if (body.u16() != kAfiIpv6 || body.u8() != kSafiUnicast) {
          throw WireError("unsupported MP_UNREACH AFI/SAFI");
        }
        while (!body.at_end()) {
          out.mp_withdrawn.push_back(read_nlri(body, net::Family::kIPv6));
        }
        break;
      }
      default:
        // Unknown optional attributes are skipped (already consumed).
        if (!(flags & kFlagOptional)) {
          throw WireError("unknown well-known attribute");
        }
        break;
    }
  }
  return out;
}

DecodedUpdate decode_update(std::span<const std::uint8_t> message,
                            net::Family family) {
  const std::size_t total = peek_update_length(message);
  if (total > message.size()) throw WireError("truncated UPDATE");
  Reader r(message.subspan(19, total - 19));

  DecodedUpdate out;
  // Withdrawn routes (IPv4).
  {
    const std::uint16_t len = r.u16();
    Reader wr(r.take(len));
    while (!wr.at_end()) {
      out.withdrawn.push_back(read_nlri(wr, net::Family::kIPv4));
    }
  }
  // Path attributes.
  {
    const std::uint16_t len = r.u16();
    DecodedAttributes attrs = decode_attributes(r.take(len));
    out.path = std::move(attrs.path);
    out.communities = std::move(attrs.communities);
    out.next_hop = attrs.next_hop;
    out.origin = attrs.origin;
    out.announced = std::move(attrs.mp_announced);
    for (auto& p : attrs.mp_withdrawn) out.withdrawn.push_back(p);
  }
  // IPv4 NLRI tail.
  while (!r.at_end()) {
    out.announced.push_back(read_nlri(r, net::Family::kIPv4));
  }
  (void)family;
  return out;
}

}  // namespace bgpatoms::bgp
