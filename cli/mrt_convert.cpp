// mrt_convert — convert between BGA archives and MRT (RFC 6396) files.
//
//   mrt_convert --to-mrt campaign.bga rib.mrt --collector rrc00 --updates
//   mrt_convert --to-bga rib.mrt campaign.bga
//
// --to-mrt writes a TABLE_DUMP_V2 RIB dump of snapshot 0 for one collector
// (default: the first), optionally followed by the BGP4MP update trace.
// --to-bga imports any uncompressed MRT stream (RouteViews / RIS RIB and
// update files included) into a BGA archive ready for bga_atoms.
#include <cstdio>
#include <limits>
#include <vector>

#include "bgp/archive.h"
#include "bgp/archive_view.h"
#include "bgp/mrt.h"
#include "cli/args.h"

using namespace bgpatoms;

namespace {

constexpr char kUsage[] =
    "usage: mrt_convert (--to-mrt <in.bga> <out.mrt> | --to-bga <in.mrt> "
    "<out.bga>)\n"
    "  --collector <name>  collector to export (--to-mrt; default: first)\n"
    "  --snapshot <i>      snapshot index to export (default 0)\n"
    "  --updates           append the BGP4MP update trace (--to-mrt)\n"
    "  --metrics           print instrumentation counters/timers to stderr\n"
    "                      on exit\n";

/// Streamed export: the archive flows through bgp::ArchiveView, so only
/// the snapshot being encoded (plus one update chunk) is ever resident —
/// never the whole dataset.
int to_mrt(const cli::Args& args, const std::vector<std::string>& files) {
  bgp::ArchiveView view(files[0]);

  std::uint16_t collector = 0;
  if (args.has("collector")) {
    const auto name = args.get("collector");
    const auto& collectors = view.collectors();
    bool found = false;
    for (std::size_t i = 0; i < collectors.size(); ++i) {
      if (collectors[i] == name) {
        collector = static_cast<std::uint16_t>(i);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "error: no collector named %s\n", name.c_str());
      return 1;
    }
  }
  // Non-negative bound makes the size_t narrowing safe.
  const auto index = static_cast<std::size_t>(
      args.get_int("snapshot", 0, 0, std::numeric_limits<long>::max()));
  const bool with_updates = args.has("updates");

  std::FILE* f = std::fopen(files[1].c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", files[1].c_str());
    return 1;
  }
  std::size_t written = 0;
  const auto emit = [&](const std::vector<std::uint8_t>& bytes) {
    if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      throw bgp::MrtError("short write: " + files[1]);
    }
    written += bytes.size();
  };

  // Update records carry peer indices into the first snapshot's table;
  // keep a copy of those identities before the snapshot is dropped.
  std::vector<bgp::PeerIdentity> first_peers;
  bool exported = false;
  std::size_t count = 0;
  while (const bgp::Snapshot* snap = view.next_snapshot()) {
    if (count == 0 && with_updates) {
      for (const auto& feed : snap->peers) first_peers.push_back(feed.peer);
    }
    if (count == index) {
      emit(bgp::write_mrt_rib(view, *snap, collector));
      exported = true;
    }
    ++count;
  }
  if (!exported) {
    std::fclose(f);
    std::fprintf(stderr, "error: archive has %zu snapshot(s)\n", count);
    return 1;
  }
  if (with_updates) {
    std::vector<std::uint8_t> buf;
    for (auto chunk = view.next_chunk(); !chunk.empty();
         chunk = view.next_chunk()) {
      buf.clear();
      bgp::append_mrt_updates(buf, view, first_peers, chunk, collector);
      emit(buf);
    }
  }
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu bytes, collector %s)\n",
               files[1].c_str(), written,
               view.collectors()[collector].c_str());
  return 0;
}

int to_bga(const cli::Args& args, const std::vector<std::string>& files) {
  (void)args;
  const bgp::Dataset ds = bgp::read_mrt_file(files[0]);
  bgp::write_archive_file(ds, files[1]);
  std::fprintf(stderr,
               "wrote %s: %zu snapshot(s), %zu prefixes, %zu updates\n",
               files[1].c_str(), ds.snapshots.size(), ds.prefixes.size(),
               ds.updates.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args raw(argc, argv);
  // The mode flag greedily binds the following path (parser limitation);
  // fold it back into the file list.
  std::vector<std::string> files;
  const bool to_mrt_mode = raw.has("to-mrt");
  const bool to_bga_mode = raw.has("to-bga");
  const std::string bound = to_mrt_mode ? raw.get("to-mrt") : raw.get("to-bga");
  if (!bound.empty()) files.push_back(bound);
  for (const auto& p : raw.positional()) files.push_back(p);
  raw.usage_if(files.size() != 2 || (!to_mrt_mode && !to_bga_mode), kUsage);
  const cli::MetricsAtExit metrics{raw.has("metrics")};

  try {
    return to_mrt_mode ? to_mrt(raw, files) : to_bga(raw, files);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
