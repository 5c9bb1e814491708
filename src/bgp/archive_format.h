// Internal shared pieces of the BGA format: the magic, section framing, and
// the per-section encode/decode routines used by the writer (archive.cpp)
// and by ArchiveReader (archive_reader.cpp).
//
// Not part of the public API — include archive.h / archive_reader.h instead.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/dataset.h"
#include "bgp/io.h"

namespace bgpatoms::bgp::archive_detail {

inline constexpr char kMagic[4] = {'B', 'G', 'A', '2'};

/// Section ids. After the 9-byte header (magic + family + CRC-32 of those
/// 5 bytes), an image is a run of sections, each framed as
///
///   id       u8
///   length   u64 little-endian (payload bytes)
///   payload  `length` bytes
///   crc      u32 little-endian CRC-32 of the payload
///
/// in the fixed order: collectors, paths, prefixes, communities, zero or
/// more snapshots, zero or more update chunks, end. The end section has
/// length 0 and must be the last bytes of the image.
enum class Section : std::uint8_t {
  kEnd = 0,
  kCollectors = 1,
  kPaths = 2,
  kPrefixes = 3,
  kCommunities = 4,
  kSnapshot = 5,   // one section per snapshot
  kUpdates = 6,    // a self-contained chunk (timestamp deltas restart at 0)
};

/// Updates per chunk: large enough to amortize framing, small enough to
/// bound the reader's transient buffer on multi-GB archives.
inline constexpr std::size_t kUpdatesPerChunk = 1 << 16;

/// Smallest possible encodings, used to clamp decoded counts before any
/// reserve(): a CRC-valid-but-hostile count must not trigger a huge
/// allocation when the remaining bytes could never hold that many records.
inline constexpr std::size_t kMinCollectorBytes = 1;
inline constexpr std::size_t kMinPathBytes = 1;
inline constexpr std::size_t kMinSegmentBytes = 3;
inline constexpr std::size_t kMinAsnBytes = 1;
inline constexpr std::size_t kMinCommunitySetBytes = 1;
inline constexpr std::size_t kMinCommunityBytes = 1;
inline constexpr std::size_t kMinRibRecordBytes = 4;
inline constexpr std::size_t kMinUpdateBytes = 7;
inline constexpr std::size_t kMinPrefixIdBytes = 1;

inline std::size_t min_prefix_entry_bytes(net::Family f) {
  return f == net::Family::kIPv4 ? 5 : 17;
}
inline std::size_t min_peer_bytes(net::Family f) {
  return f == net::Family::kIPv4 ? 7 : 19;
}

/// Throws unless `n` records of at least `min_bytes` each can still fit in
/// `r.remaining()`. Returns `n` so call sites read naturally.
std::uint64_t checked_count(const ByteReader& r, std::uint64_t n,
                            std::size_t min_bytes, const char* what);

// --- section payloads ------------------------------------------------------
// Encoders append one section payload (no framing); decoders consume exactly
// one payload and throw ArchiveError on any structural problem. Dictionary
// decoders fill `ds`; record decoders resolve ids against `ds` and reject
// out-of-range references.

void encode_collectors(ByteWriter& w, const Dataset& ds);
void encode_paths(ByteWriter& w, const Dataset& ds);
void encode_prefixes(ByteWriter& w, const Dataset& ds);
void encode_communities(ByteWriter& w, const Dataset& ds);
void encode_snapshot(ByteWriter& w, const Snapshot& snap);
/// Encodes updates [begin, end); timestamp deltas start from 0.
void encode_updates(ByteWriter& w, const std::vector<UpdateRecord>& updates,
                    std::size_t begin, std::size_t end);

void decode_collectors(ByteReader& r, Dataset& ds);
void decode_paths(ByteReader& r, Dataset& ds);
void decode_prefixes(ByteReader& r, Dataset& ds);
void decode_communities(ByteReader& r, Dataset& ds);
Snapshot decode_snapshot(ByteReader& r, const Dataset& ds);
/// Decodes one chunk; timestamp deltas start from 0.
std::vector<UpdateRecord> decode_updates(ByteReader& r, const Dataset& ds);

}  // namespace bgpatoms::bgp::archive_detail
