// perfbench — the repository benchmark. One workload per process:
//
//   perfbench --workload repro|archive|serve --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--describe GIT_DESCRIBE]
//
// --trace 0 measures the workload end to end with tracing off. --trace 1
// is the separate traced run: it replays every pipeline (archive, serve,
// repro) span by span on the same seed's inputs, so each per-layer
// metric is measured whichever workload started it, and reports the
// selected workload's tracing overhead. Every run prints its metrics
// with unit and sample count, writes them with a run manifest to
// DIR/<workload>-seed<N>-{metrics,trace}.json (perfbench/run.py turns
// that file into the benchmark's one-line result).
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

using bgpatoms::report::json::Array;
using bgpatoms::report::json::Object;
using bgpatoms::report::json::Value;

struct Args {
  std::string workload;
  RunConfig config;
  bool trace = false;
  std::string out_dir;
  std::string describe = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload repro|archive|serve "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--describe TEXT]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, std::string_view text,
                         std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v > max) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.config.seed = parse_uint("--seed", value, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.config.seconds = static_cast<int>(parse_uint("--seconds", value, 600));
      have_seconds = a.config.seconds >= 1;
    } else if (flag == "--trace") {
      a.trace = parse_uint("--trace", value, 1) == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--describe") {
      a.describe = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "repro" && a.workload != "archive" && a.workload != "serve") {
    usage("--workload must be repro, archive or serve");
  }
  if (!have_seed || !have_seconds || !have_trace || a.out_dir.empty()) {
    usage("--seed, --seconds (>= 1), --trace and --out-dir are required");
  }
  a.config.scratch_dir = a.out_dir;
  return a;
}

/// Per-layer metrics of the layers several pipelines share, from the
/// recorder's self times and the counts taken at the same boundaries.
void add_layer_metrics(const Recorder& rec, Outcome& out) {
  const auto totals = rec.totals_by_name();
  auto self_s = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names) {
      const auto it = totals.find(n);
      if (it != totals.end()) s += static_cast<double>(it->second.self_ns) * 1e-9;
    }
    return s;
  };
  auto spans = [&](std::initializer_list<const char*> names) {
    std::uint64_t n = 0;
    for (const char* name : names) {
      const auto it = totals.find(name);
      if (it != totals.end()) n += it->second.count;
    }
    return n;
  };
  auto& c = out.counts;
  auto& m = out.metrics;
  auto per = [](double seconds, double items) {
    return items > 0 ? seconds * 1e9 / items : 0.0;
  };
  auto time = [&](const char* metric, std::initializer_list<const char*> names) {
    m.add(metric, self_s(names), "s", spans(names));
  };

  time("topo.generate_s", {"topo.generate"});
  time("routing.capture_s", {"routing.capture"});
  time("routing.emit_updates_s", {"routing.emit_updates"});
  time("routing.advance_s", {"routing.advance"});
  m.add("routing.rib_records", c["routing.rib_records"], "count");
  m.add("routing.update_records", c["routing.update_records"], "count");
  m.add("routing.ns_per_record",
        per(self_s({"routing.init", "routing.capture", "routing.emit_updates",
                    "routing.advance"}),
            c["routing.rib_records"] + c["routing.update_records"]),
        "ns");

  time("bgp.write_s", {"bgp.write"});
  m.add("bgp.write_bytes", c["bgp.write_bytes"], "bytes");
  const auto read = {"bgp.open", "bgp.next_snapshot", "bgp.next_chunk",
                     "bgp.close"};
  time("bgp.read_s", read);
  m.add("bgp.read_ns_per_record", per(self_s(read), c["bgp.read_records"]), "ns",
        static_cast<std::uint64_t>(c["bgp.read_records"]));

  time("core.sanitize_s", {"core.sanitize"});
  m.add("core.sanitize.records", c["core.sanitize.records"], "count");
  m.add("core.sanitize.ns_per_record",
        per(self_s({"core.sanitize"}), c["core.sanitize.records"]), "ns");
  m.add("core.sanitize.kept_share",
        c["core.sanitize.kept"] / c["core.sanitize.records"], "ratio");

  time("core.atoms_s", {"core.compute_atoms"});
  m.add("core.atoms.cells", c["core.atoms.cells"], "count");
  m.add("core.atoms.ns_per_cell",
        per(self_s({"core.compute_atoms"}), c["core.atoms.cells"]), "ns");

  time("core.incremental.apply_s", {"core.incremental.apply"});
  time("core.incremental.flush_s", {"core.incremental.atoms"});
  m.add("core.incremental.ns_per_record",
        per(self_s({"core.incremental.apply"}), c["core.incremental.records"]),
        "ns");
  m.add("core.incremental.cell_write_share",
        c["core.incremental.cell_writes"] / c["core.incremental.records"],
        "ratio");
  const auto corr = {"core.update_corr.init", "core.update_corr.feed",
                     "core.update_corr.result"};
  time("core.update_corr_s", corr);
  m.add("core.update_corr.ns_per_record",
        per(self_s({"core.update_corr.feed"}), c["core.update_corr.records"]),
        "ns");
  time("core.stability_s", {"core.stability"});
}

Value manifest(const Args& a, const Outcome& out) {
#ifdef BGPATOMS_OBS_DISABLED
  const char* obs = "off";
#else
  const char* obs = "on";
#endif
  return Object{{"schema", "bgpatoms-perfbench/1"},
                {"git_describe", a.describe},
                {"build_type", PERFBENCH_BUILD_TYPE},
                {"obs", obs},
                {"threads", kThreads},
                {"nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN))},
                {"workload", a.workload},
                {"seed", a.config.seed},
                {"seconds", a.config.seconds},
                {"traced", a.trace},
                {"inputs", Object(out.inputs)}};
}

Value metrics_json(const Metrics& metrics) {
  Object o;
  for (const Metric& m : metrics.all()) {
    o.emplace_back(m.name, Object{{"value", m.value},
                                  {"unit", m.unit},
                                  {"samples", m.samples}});
  }
  return o;
}

/// The trace export: spans plus per-name and per-layer self-time rollups.
Value trace_json(const Recorder& rec) {
  const auto self = rec.self_ns();
  const std::uint64_t origin = rec.spans().empty() ? 0 : rec.spans()[0].start_ns;
  Array spans;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const auto& s = rec.spans()[i];
    spans.emplace_back(Array{Value(s.name), Value(s.start_ns - origin),
                             Value(s.end_ns - origin),
                             Value(static_cast<std::int64_t>(s.parent)),
                             Value(s.op), Value(self[i])});
  }
  Object by_name;
  for (const auto& [name, total] : rec.totals_by_name()) {
    by_name.emplace_back(name, Object{{"self_s", total.self_ns * 1e-9},
                                      {"count", total.count}});
  }
  Object by_layer;
  for (const auto& [layer, ns] : rec.self_by_layer()) {
    by_layer.emplace_back(layer, ns * 1e-9);
  }
  return Object{{"span_fields", Array{"name", "start_ns", "end_ns", "parent",
                                      "op", "self_ns"}},
                {"spans", std::move(spans)},
                {"self_by_name", std::move(by_name)},
                {"self_by_layer", std::move(by_layer)}};
}

int run(const Args& a) {
  Outcome out;
  Recorder rec(a.trace);
  try {
    if (!a.trace) {
      out = a.workload == "repro"     ? run_repro(a.config)
            : a.workload == "archive" ? run_archive(a.config)
                                      : run_serve(a.config);
    } else {
      trace_archive(a.config, a.workload == "archive", rec, out);
      trace_serve(a.config, a.workload == "serve", rec, out);
      trace_repro(a.config, a.workload == "repro", rec, out);
      add_layer_metrics(rec, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  Object doc{{"manifest", manifest(a, out)},
             {"correct", out.correct},
             {"attempted", out.ops.attempted},
             {"failed", out.ops.failed},
             {"problems", [&] {
                Array p;
                for (const auto& s : out.problems) p.emplace_back(s);
                return p;
              }()},
             {"metrics", metrics_json(out.metrics)}};
  if (a.trace) doc.emplace_back("trace", trace_json(rec));
  const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.config.seed) +
                           (a.trace ? "-trace.json" : "-metrics.json");
  std::ofstream(path) << Value(std::move(doc)).serialize() << '\n';

  for (const auto& p : out.problems) std::printf("problem: %s\n", p.c_str());
  for (const Metric& m : out.metrics.all()) {
    std::printf("%-40s %14.6g %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("written: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
