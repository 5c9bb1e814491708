// bga_sim — simulate a BGP measurement campaign and write a BGA archive.
//
//   bga_sim --year 2024.75 --scale 0.01 --seed 42 -o campaign.bga
//   bga_sim --year 2012 --v6 --updates --stability -o v6.bga
//
// The produced archive holds the RIB snapshot(s) and (optionally) the
// update stream; feed it to bga_dump / bga_atoms, or load it with
// bgp::read_archive_file.
#include <cstdio>
#include <iostream>
#include <limits>

#include "bgp/archive.h"
#include "bgp/textdump.h"
#include "cli/args.h"
#include "routing/simulator.h"
#include "topo/topology.h"

using namespace bgpatoms;

namespace {

constexpr char kUsage[] =
    "usage: bga_sim [options] -o <output.bga>\n"
    "  --year <y>      fractional year, 2002..2024.75 (default 2024.75)\n"
    "  --scale <s>     fraction of real Internet size (default 0.01)\n"
    "  --seed <n>      RNG seed, >= 0 (default 42)\n"
    "  --v6            IPv6 era instead of IPv4\n"
    "  --updates <h>   also emit an update stream of <h> hours (default 0)\n"
    "  --stability     capture +8h/+24h/+1w snapshots with policy churn\n"
    "  --hijacks <n>   schedule <n> origin hijacks over the campaign\n"
    "  --subhijacks <n> schedule <n> sub-prefix hijacks\n"
    "  --leaks <n>     schedule <n> route leaks\n"
    "  --rov           era-calibrated ROV adoption + ROA table\n"
    "  --text          additionally dump the first snapshot as text\n"
    "  --metrics       print instrumentation counters/timers to stderr\n"
    "                  on exit\n"
    "  -o / --out <f>  output archive path (required)\n";

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv);
  std::string out = args.get("out", args.get("o"));
  if (out.empty() && !args.positional().empty()) out = args.positional()[0];
  args.usage_if(out.empty(), kUsage);
  const cli::MetricsAtExit metrics{args.has("metrics")};

  // Bounded at the parse boundary (exit 2 on out-of-range/NaN), same
  // policy as the integer options.
  const double year = args.get_double("year", 2024.75, 1990.0, 2100.0);
  const double scale = args.get_double("scale", 0.01, 1e-6, 1e3);
  // A negative seed would wrap through the uint64 cast to a surprising
  // (but valid-looking) universe; reject it at the parse boundary.
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", 42, 0, std::numeric_limits<long>::max()));
  const double update_hours = args.get_double("updates", 0, 0.0, 24.0 * 366);

  const topo::EraParams era = args.has("v6")
                                  ? topo::era_params_v6(year, scale)
                                  : topo::era_params_v4(year, scale);
  std::fprintf(stderr,
               "simulating year %.2f (%s) at scale %.4f: %d ASes, %d peers\n",
               year, args.has("v6") ? "IPv6" : "IPv4", scale, era.n_as,
               era.n_peers);

  routing::SimOptions opt;
  opt.seed = seed;
  opt.weekly_churn = args.has("stability");
  opt.scenario.origin_hijacks =
      static_cast<int>(args.get_int("hijacks", 0, 0, 1000));
  opt.scenario.subprefix_hijacks =
      static_cast<int>(args.get_int("subhijacks", 0, 0, 1000));
  opt.scenario.route_leaks =
      static_cast<int>(args.get_int("leaks", 0, 0, 1000));
  opt.scenario.rov = args.has("rov");
  routing::Simulator sim(topo::generate_topology(era, seed), opt);
  if (!sim.incidents().empty()) {
    std::fprintf(stderr, "scheduled %zu scenario incident(s)\n",
                 sim.incidents().size());
  }

  sim.capture();
  if (update_hours > 0) {
    sim.emit_updates(static_cast<bgp::Timestamp>(update_hours * 3600));
  }
  if (args.has("stability")) {
    sim.advance_to(8 * routing::kHour);
    sim.capture();
    sim.advance_to(routing::kDay);
    sim.capture();
    sim.advance_to(routing::kWeek);
    sim.capture();
  }

  const auto& ds = sim.dataset();
  if (args.has("text")) {
    bgp::dump_snapshot(std::cout, ds, ds.snapshots[0]);
  }
  try {
    bgp::write_archive_file(ds, out);
  } catch (const bgp::ArchiveError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "wrote %s: %zu snapshot(s), %zu RIB records, %zu updates\n",
               out.c_str(), ds.snapshots.size(),
               bgp::Dataset::record_count(ds.snapshots[0]),
               ds.updates.size());
  return cli::checked_stdout(0);
}
