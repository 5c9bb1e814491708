// bga_serve — long-running atom query service.
//
//   bga_serve q1.bga q2.bga                # serve on an ephemeral port
//   bga_serve q1.bga --port 7700           # fixed port
//   bga_serve q1.bga --lookup 10.0.0.1     # one-shot, no socket
//   bga_serve q1.bga --equiv 10.0.0.0/24 --with 10.0.1.0/24
//   bga_serve q1.bga q2.bga --history 10.0.0.1
//   curl 127.0.0.1:<port>/metrics          # latency histograms, trace/1
//
// Each archive is streamed through core::analyze (ArchiveView: one
// section resident at a time), its reference snapshot's atoms frozen
// into a query::AtomIndex, and the indexes stacked on a query::Timeline
// (capture order = command-line order). The wire protocol is
// length-prefixed JSON (src/query/serve.h); one-shot query flags answer
// through the same handlers in-process, so their output is byte-equal to
// a served reply.
#include <climits>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "bgp/archive_view.h"
#include "cli/args.h"
#include "core/analyze.h"
#include "query/server.h"
#include "report/json.h"
#include "report/options.h"

using namespace bgpatoms;

namespace {

constexpr char kUsage[] =
    "usage: bga_serve <archive.bga> [archive2.bga ...] [options]\n"
    "  --port <n>           TCP port on 127.0.0.1 (default 0: ephemeral;\n"
    "                       the bound port is printed on stderr)\n"
    "  --threads <n>        accept/worker threads; precedence is flag >\n"
    "                       BGPATOMS_THREADS > all hardware threads\n"
    "  --reference <i>      snapshot index served per archive (default 0)\n"
    "  --min-peers <n>      visibility threshold, peer ASes (default 4)\n"
    "  --min-collectors <n> visibility threshold, collectors (default 2)\n"
    "  --no-filter          disable prefix filtering (2002-style)\n"
    "one-shot queries (answered in-process through the same handlers the\n"
    "server runs, then exit — no socket):\n"
    "  --lookup <p>         longest-match: prefix (CIDR) or bare address\n"
    "  --equiv <p> --with <q>  are p and q atom-equivalent?\n"
    "  --history <p>        the atom covering p across all archives\n"
    "  --stats              per-snapshot statistics\n"
    "  --snapshot <i>       timeline position point queries hit\n"
    "                       (default: newest)\n"
    "  --metrics            print instrumentation counters/timers to\n"
    "                       stderr on exit\n";

/// Runs one request through the in-process handler and prints the reply.
int one_shot(const query::ServeState& state, const report::json::Value& req) {
  const auto reply = state.handle(req.serialize());
  std::printf("%s\n", reply.body.c_str());
  const auto parsed = report::json::Value::parse(reply.body);
  const auto* ok = parsed.find("ok");
  return cli::checked_stdout(
      ok != nullptr && ok->is_bool() && ok->as_bool() ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv);
  args.usage_if(args.positional().empty(), kUsage);
  const cli::MetricsAtExit metrics{args.has("metrics")};

  core::AnalysisConfig config;
  config.sanitize.min_peer_ases =
      static_cast<int>(args.get_int("min-peers", 4, 0, INT_MAX));
  config.sanitize.min_collectors =
      static_cast<int>(args.get_int("min-collectors", 2, 0, INT_MAX));
  if (args.has("no-filter")) {
    config.sanitize.filter_prefixes = false;
    config.sanitize.max_prefix_length = 128;
  }
  config.reference_snapshot = static_cast<std::size_t>(
      args.get_int("reference", 0, 0, std::numeric_limits<long>::max()));
  config.keep_all = false;

  int threads = 0;
  try {
    const auto threads_flag =
        args.has("threads") ? std::optional<std::string>(args.get("threads"))
                            : std::nullopt;
    threads = report::resolve_run_options(std::nullopt, threads_flag).threads;
  } catch (const report::OptionError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  config.atoms.threads = threads;

  // Strict query-argument parsing first (exit 2 on malformed input),
  // before any archive is touched.
  const auto q_lookup = args.get_prefix("lookup");
  const auto q_equiv = args.get_prefix("equiv");
  const auto q_with = args.get_prefix("with");
  const auto q_history = args.get_prefix("history");
  if (q_equiv.has_value() != q_with.has_value()) {
    std::fprintf(stderr, "error: --equiv and --with go together\n");
    return 2;
  }

  // Load every archive into a self-contained index; the view (and the
  // analysis products) are released before the next archive loads.
  query::Timeline timeline;
  for (const auto& path : args.positional()) {
    try {
      bgp::ArchiveView view(path);
      const core::AnalysisResult r = core::analyze(view, nullptr, config);
      if (!r.has_reference()) {
        std::fprintf(stderr, "error: %s: archive has %zu snapshot(s)\n",
                     path.c_str(), r.snapshots_seen);
        return 1;
      }
      timeline.add(path, std::make_shared<query::AtomIndex>(
                             query::AtomIndex::build(r.reference_atoms())));
      std::fprintf(stderr, "loaded %s: %zu prefixes, %zu atoms\n",
                   path.c_str(), timeline.latest().prefix_count(),
                   timeline.latest().atom_count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }

  const query::ServeState state{std::move(timeline)};

  using report::json::Object;
  using report::json::Value;
  const bool has_snapshot = args.has("snapshot");
  const auto snapshot = static_cast<std::uint64_t>(
      args.get_int("snapshot", 0, 0, std::numeric_limits<long>::max()));
  auto with_snapshot = [&](Object req) {
    if (has_snapshot) req.emplace_back("snapshot", Value(snapshot));
    return Value(std::move(req));
  };
  if (q_lookup) {
    return one_shot(state, with_snapshot(Object{
                               {"op", Value("lookup")},
                               {"q", Value(q_lookup->to_string())}}));
  }
  if (q_equiv) {
    return one_shot(state, with_snapshot(Object{
                               {"op", Value("equiv")},
                               {"a", Value(q_equiv->to_string())},
                               {"b", Value(q_with->to_string())}}));
  }
  if (q_history) {
    return one_shot(state, Value(Object{{"op", Value("history")},
                                        {"q", Value(q_history->to_string())}}));
  }
  if (args.has("stats")) {
    return one_shot(state, Value(Object{{"op", Value("stats")}}));
  }

  query::ServerOptions server_options;
  server_options.port = static_cast<int>(args.get_int("port", 0, 0, 65535));
  server_options.threads = threads;
  try {
    query::Server server(state, server_options);
    std::fprintf(stderr, "listening on 127.0.0.1:%d (%zu snapshot(s))\n",
                 server.port(), state.timeline().size());
    std::fflush(stderr);
    server.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
