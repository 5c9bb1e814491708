// bga_dump — inspect a BGA archive.
//
//   bga_dump campaign.bga                  # summary
//   bga_dump campaign.bga --text           # bgpdump-style lines
//   bga_dump campaign.bga --peers          # per-peer table statistics
//   bga_dump campaign.bga --collector rrc00 --peer-asn 64496 --text
//
// All modes stream the archive through bgp::ArchiveReader: the file is
// decoded one CRC-checked section at a time, so even a multi-GB archive
// needs only dictionary + one-section memory and --text starts printing
// before the file tail is read.
#include <cstdint>
#include <cstdio>
#include <unordered_set>

#include "bgp/archive_reader.h"
#include "bgp/archive_view.h"
#include "cli/args.h"
#include "net/prefix.h"
#include "stream/reader.h"

using namespace bgpatoms;

namespace {

constexpr char kUsage[] =
    "usage: bga_dump <archive.bga> [options]\n"
    "  --text             dump records as bgpdump-style pipe lines\n"
    "  --filter           alias for --text (use with the filters below)\n"
    "  --peers            per-peer table statistics\n"
    "filters (--text/--filter mode; the archive is still streamed section\n"
    "by section, non-matching records are skipped as they pass):\n"
    "  --collector <c>    restrict to one collector\n"
    "  --peer-asn <asn>   restrict to one peer AS\n"
    "  --prefix <p>       restrict to prefixes within <p>: CIDR, or a bare\n"
    "                     address as a host route (e.g. 10.0.0.0/8)\n"
    "  --time-begin <t>   drop records with timestamp < t\n"
    "  --time-end <t>     drop records with timestamp > t\n"
    "  --rib-only         RIB rows only (no update NLRIs)\n"
    "  --updates-only     update NLRIs only (no RIB rows)\n"
    "  --metrics          print instrumentation counters/timers to stderr\n"
    "                     on exit\n";

void print_summary(bgp::ArchiveReader& reader) {
  std::printf("format:      BGA v2\n");
  std::printf("family:      IPv%d\n",
              reader.family() == net::Family::kIPv4 ? 4 : 6);
  std::printf("collectors:  %zu (", reader.collectors().size());
  for (std::size_t i = 0; i < reader.collectors().size(); ++i) {
    std::printf("%s%s", i ? ", " : "", reader.collectors()[i].c_str());
  }
  std::printf(")\n");
  std::printf("prefixes:    %zu distinct\n", reader.prefixes().size());
  std::printf("paths:       %zu distinct\n", reader.paths().size());

  std::size_t nsnap = 0;
  std::string lines;
  while (auto snap = reader.next_snapshot()) {
    ++nsnap;
    char buf[128];
    std::snprintf(buf, sizeof buf, "  t=%lld: %zu peers, %zu records\n",
                  static_cast<long long>(snap->timestamp), snap->peers.size(),
                  bgp::Dataset::record_count(*snap));
    lines += buf;
  }
  std::printf("snapshots:   %zu\n%s", nsnap, lines.c_str());

  std::size_t updates = 0, announced = 0, withdrawn = 0;
  while (auto chunk = reader.next_updates()) {
    updates += chunk->size();
    for (const auto& u : *chunk) {
      announced += u.announced.size();
      withdrawn += u.withdrawn.size();
    }
  }
  std::printf("updates:     %zu records (%zu announcements, %zu withdrawals)\n",
              updates, announced, withdrawn);
}

void print_peers(bgp::ArchiveReader& reader) {
  const auto snap = reader.next_snapshot();
  if (!snap) return;
  std::printf("%-12s %-18s %-14s %10s %10s %8s\n", "peer", "address",
              "collector", "records", "prefixes", "corrupt");
  for (const auto& feed : snap->peers) {
    std::unordered_set<bgp::PrefixId> uniq;
    std::size_t corrupt = 0;
    for (const auto& rec : feed.records) {
      uniq.insert(rec.prefix);
      corrupt += bgp::is_addpath_artifact(rec.status);
    }
    std::printf("AS%-10u %-18s %-14s %10zu %10zu %8zu\n", feed.peer.asn,
                feed.peer.address.to_string().c_str(),
                reader.collectors()[feed.peer.collector].c_str(),
                feed.records.size(), uniq.size(), corrupt);
  }
}

void print_text(const std::string& path, const stream::Filters& filters) {
  // Records point into the view's dictionaries: it outlives the loop.
  bgp::ArchiveView view(path);
  stream::RecordReader reader(view, view, filters);
  while (auto rec = reader.next()) {
    const char* kind = rec->type == stream::RecordType::kRibEntry ? "B"
                       : rec->type == stream::RecordType::kAnnouncement
                           ? "A"
                           : "W";
    std::printf("%lld|%s|%s|%s|%u|%s|%s\n",
                static_cast<long long>(rec->timestamp), kind,
                std::string(rec->collector).c_str(),
                rec->peer_address.to_string().c_str(), rec->peer_asn,
                rec->prefix.to_string().c_str(),
                rec->path ? rec->path->to_string().c_str() : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv);
  args.usage_if(args.positional().empty(), kUsage);
  const cli::MetricsAtExit metrics{args.has("metrics")};
  const std::string& path = args.positional()[0];

  try {
    if (args.has("text") || args.has("filter")) {
      stream::Filters filters;
      if (args.has("collector")) filters.collector = args.get("collector");
      if (args.has("peer-asn")) {
        // Bounds make the 32-bit narrowing safe (ASNs are unsigned).
        filters.peer_asn = static_cast<net::Asn>(
            args.get_int("peer-asn", 0, 0, UINT32_MAX));
      }
      // Strict shared parser (net::parse_prefix via Args::get_prefix):
      // a malformed --prefix is a usage error (exit 2), never a silently
      // empty filter.
      if (const auto p = args.get_prefix("prefix")) filters.prefix_within = *p;
      filters.time_begin = args.get_int("time-begin", INT64_MIN);
      filters.time_end = args.get_int("time-end", INT64_MAX);
      if (args.has("rib-only")) filters.include_updates = false;
      if (args.has("updates-only")) filters.include_rib = false;
      print_text(path, filters);
    } else {
      bgp::ArchiveReader reader(path);
      if (args.has("peers")) {
        print_peers(reader);
      } else {
        print_summary(reader);
      }
    }
  } catch (const bgp::ArchiveError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return cli::checked_stdout(0);
}
