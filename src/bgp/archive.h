// BGA ("BGP Archive") serialization of bgp::Dataset.
//
// Role in the pipeline: what MRT files are to the paper's toolchain, BGA
// files are to ours — the durable on-disk form of RIB snapshots + update
// streams that the stream layer and analysis tools consume.
//
// One wire format, "BGA2": a CRC-guarded header (magic, family), then
// framed sections (id u8, length u64 LE, payload, CRC-32 of the payload) —
// one section per dictionary, one per snapshot, updates in self-contained
// chunks, then an empty end section. Per-section lengths and CRCs let
// ArchiveReader (archive_reader.h) decode a multi-GB file section at a
// time with bounded peak memory and localize corruption to one section.
// In-memory images and files go through that same reader, so both obey
// one set of validation rules.
//
// write/read round-trips exactly: pools keep their ids, record order is
// preserved. Readers throw ArchiveError on any structural or CRC problem,
// validate every decoded count against the bytes actually remaining before
// reserving memory, and never read out of bounds on hostile input.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bgp/dataset.h"
#include "bgp/io.h"

namespace bgpatoms::bgp {

/// Serializes `ds` to an in-memory BGA image.
std::vector<std::uint8_t> write_archive(const Dataset& ds);

/// Parses a BGA image through ArchiveReader. Throws ArchiveError on
/// malformed input.
Dataset read_archive(std::span<const std::uint8_t> image);

/// File convenience wrappers. Throw ArchiveError on I/O failure. Reading
/// goes through the streaming ArchiveReader (64-bit offsets, checked I/O).
void write_archive_file(const Dataset& ds, const std::string& path);
Dataset read_archive_file(const std::string& path);

}  // namespace bgpatoms::bgp
