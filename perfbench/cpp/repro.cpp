// repro: the researcher's `bga_bench` path — report::run_experiments
// over every registered paper experiment except the self-timing perf_*
// harnesses (perf_serve alone replays on 8 threads). Routing does most of
// the work, through many small narrow-matrix campaigns and the shared
// report::CampaignCache. Set-up is only building the registry.
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "experiments/experiments.h"
#include "report/experiment.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpatoms;

namespace {

/// Known-answer digest of the reports (timing fields excluded) at
/// kDefaultSeed.
constexpr std::uint64_t kDefaultSeedDigest = 0xcccea740a27308ad;

/// Registry builds take microseconds, so a burst of them samples one
/// moment of the machine, whose speed shifts by half from one second to
/// the next. The set-up is therefore sampled every kSetupInterval over the
/// whole run (the sampler thread sleeps in between; its CPU is a few ms)
/// and setup_s is the median of those samples.
constexpr auto kSetupInterval = std::chrono::milliseconds(100);

/// Selections pinned by id, each run at the lowest scale multiplier at
/// which every check passes for the paper seeds, with its own pool and
/// campaign cache.
struct Selection {
  double scale;
  std::vector<std::string> ids;
};

const std::vector<Selection>& selections() {
  static const std::vector<Selection> kSelections = {
      {0.25,
       {"table1", "table2", "table3", "table4", "table5", "table6", "table7",
        "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
        "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
        "repro2002", "table_vp_value", "ablation_sanitizer", "ablation_vps",
        "extra_quality"}},
      // The two scenario experiments pass their checks at x0.1, and take
      // about 38 s at x0.25.
      {0.1, {"scenario_hijack", "table_rov_trend"}},
  };
  return kSelections;
}

struct Registered {
  report::Registry registry;
  std::vector<std::vector<const report::Experiment*>> picked;
};

std::unique_ptr<Registered> build_registry() {
  auto r = std::make_unique<Registered>();
  bench::register_all_experiments(r->registry);
  for (const Selection& sel : selections()) {
    auto& picked = r->picked.emplace_back();
    for (const std::string& id : sel.ids) {
      const report::Experiment* e = r->registry.find(id);
      if (e == nullptr) throw std::runtime_error("no experiment '" + id + "'");
      picked.push_back(e);
    }
  }
  return r;
}

report::RunOptions options_for(const Selection& sel, std::uint64_t seed) {
  report::RunOptions options;
  options.scale_multiplier = sel.scale;
  options.threads = kThreads;
  if (seed != kDefaultSeed) options.seed = seed;  // else the paper seeds
  return options;
}

void add(Digest& d, const report::ExperimentResult& e) {
  d.add(e.id).add(e.scale);
  for (const auto& line : e.notes) d.add(line);
  for (const auto& t : e.tables) {
    d.add(t.id).add(t.title);
    for (const auto& c : t.columns) d.add(c);
    for (const auto& row : t.rows) {
      for (const auto& cell : row) d.add(cell);
    }
  }
  for (const auto& m : e.metrics) d.add(m.name).add(m.value).add(m.note);
  for (const auto& c : e.checks) {
    d.add(c.name).add(c.relation).add(c.observed).add(c.paper)
        .add(std::uint64_t{c.passed});
  }
}

/// Runs every selection, counting an experiment that fails a check as a
/// failed operation. Returns the reports' digest.
std::uint64_t run_all(const Registered& r, std::uint64_t seed, Outcome& out,
                      std::vector<report::RunReport>& reports, Recorder& rec) {
  Digest d;
  for (std::size_t i = 0; i < selections().size(); ++i) {
    const auto options = options_for(selections()[i], seed);
    try {
      Scope s(rec, "report.run_experiments");
      reports.push_back(report::run_experiments(r.picked[i], options));
    } catch (const std::exception& e) {
      for (std::size_t k = 0; k < r.picked[i].size(); ++k) {
        out.op(false, std::string("run_experiments threw: ") + e.what());
      }
      out.fail("an experiment threw");
      continue;
    }
    for (const auto& e : reports.back().experiments) {
      add(d, e);
      out.op(e.passed(), e.id + ": " + std::to_string(e.checks_failed()) +
                             " check(s) failed");
    }
  }
  return d.value();
}

/// Wall seconds of fig06 and fig07, which share a process-wide memo of
/// daily-split campaigns: a second run in the same process finds it
/// filled and skips their simulation.
double memo_seconds(const std::vector<report::RunReport>& reports) {
  double seconds = 0;
  for (const auto& report : reports) {
    for (const auto& e : report.experiments) {
      if (e.id == "fig06" || e.id == "fig07") seconds += e.wall_seconds;
    }
  }
  return seconds;
}

void check_known_answer(std::uint64_t seed, std::uint64_t got, Outcome& out) {
  if (seed == kDefaultSeed && got != kDefaultSeedDigest) {
    out.fail("repro digest " + hex64(got) + " != known answer " +
             hex64(kDefaultSeedDigest));
  }
}

report::json::Object inputs(const RunConfig& config) {
  report::json::Array sels;
  for (const Selection& sel : selections()) {
    report::json::Array ids;
    for (const auto& id : sel.ids) ids.emplace_back(id);
    sels.emplace_back(report::json::Object{{"scale", sel.scale},
                                           {"experiments", std::move(ids)}});
  }
  return {{"selections", std::move(sels)},
          {"seed_universe", config.seed == kDefaultSeed
                                ? report::json::Value("paper seeds")
                                : report::json::Value(config.seed)},
          {"threads", kThreads}};
}

}  // namespace

Outcome run_repro(const RunConfig& config) {
  Outcome out;
  out.inputs = inputs(config);
  Recorder off;
  std::vector<double> setup_s;
  auto timed_setup = [&setup_s] {
    const std::uint64_t t0 = obs::monotonic_ns();
    auto r = build_registry();
    setup_s.push_back(static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
    return r;
  };
  const std::unique_ptr<Registered> r = timed_setup();
  reset_peak_rss();
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load()) {
      std::this_thread::sleep_for(kSetupInterval);
      timed_setup();
    }
  });

  std::vector<report::RunReport> reports;
  const double c0 = cpu_seconds();
  const std::uint64_t w0 = obs::monotonic_ns();
  const std::uint64_t got = run_all(*r, config.seed, out, reports, off);
  const double wall = static_cast<double>(obs::monotonic_ns() - w0) * 1e-9;
  const double cpu = cpu_seconds() - c0;
  done.store(true);
  sampler.join();
  check_known_answer(config.seed, got, out);

  out.metrics.add("setup_s", median(setup_s), "s", setup_s.size());
  out.metrics.add("wall_s", wall, "s", 1);
  out.metrics.add("cpu_s", cpu, "s", 1);
  out.metrics.add("error_rate", out.ops.error_rate(), "ratio", out.ops.attempted);
  out.metrics.add("peak_rss_mb",
                  static_cast<double>(obs::sample_memory().peak_rss_bytes) / kMiB,
                  "MiB", 1);
  return out;
}

void trace_repro(const RunConfig& config, bool selected, Recorder& rec,
                 Outcome& out) {
  out.inputs.emplace_back("repro", inputs(config));
  std::unique_ptr<Registered> r;
  {
    Scope s(rec, "bench.repro.setup", 20);
    Scope b(rec, "report.registry");
    r = build_registry();
  }
  std::vector<report::RunReport> reports;
  std::int32_t span;
  std::uint64_t traced;
  {
    Scope s(rec, "bench.repro", 21);
    span = s.id();
    traced = run_all(*r, config.seed, out, reports, rec);
  }
  if (selected) {
    // The untraced run goes second so that the traced per-experiment
    // times are cold ones. Both walls leave out the memo users.
    Outcome scratch;
    std::vector<report::RunReport> untraced_reports;
    Recorder off;
    const std::uint64_t t0 = obs::monotonic_ns();
    const std::uint64_t untraced =
        run_all(*r, config.seed, scratch, untraced_reports, off);
    const double untraced_s =
        static_cast<double>(obs::monotonic_ns() - t0) * 1e-9 -
        memo_seconds(untraced_reports);
    const double traced_s =
        static_cast<double>(rec.duration_ns(span)) * 1e-9 - memo_seconds(reports);
    out.op(traced == untraced, "traced repro digest " + hex64(traced) +
                                   " != untraced " + hex64(untraced));
    out.metrics.add("trace.overhead_s", traced_s - untraced_s, "s", 1);
  }
  check_known_answer(config.seed, traced, out);

  double hits = 0, misses = 0;
  for (const auto& report : reports) {
    hits += static_cast<double>(report.cache.hits());
    misses += static_cast<double>(report.cache.misses());
  }
  out.metrics.add("report.cache.hits", hits, "count", 1);
  out.metrics.add("report.cache.misses", misses, "count", 1);
  out.metrics.add("report.cache.hit_share", hits / (hits + misses), "ratio", 1);
  for (const auto& report : reports) {
    for (const auto& e : report.experiments) {
      out.metrics.add("report.experiment." + e.id + ".wall_s", e.wall_seconds,
                      "s", 1);
    }
  }
}

}  // namespace perfbench
