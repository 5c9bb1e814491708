// archive: the analyst's `bga_atoms --stability --trend` path. Set-up
// simulates the 2024 campaign and writes it as one BGA v2 file; each
// operation is one streamed pass of bgp::ArchiveView through
// core::analyze with stability, update correlation and the incremental
// follow on. Decode and sanitize dominate the pass.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <optional>

#include "bgp/archive.h"
#include "bgp/archive_view.h"
#include "bgp/views.h"
#include "core/analyze.h"
#include "core/incremental.h"
#include "routing/simulator.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpatoms;

namespace {

/// Known-answer digest of one pass at kDefaultSeed.
constexpr std::uint64_t kDefaultSeedDigest = 0x71b63376d08a5d04;

constexpr int kSetupRepeats = 3;
/// Passes per requested second: fixes the amount of work of a run, so
/// that a faster pass shows as a shorter wall_s.
constexpr double kPassesPerSecond = 0.5;

core::AnalysisConfig pass_config() {
  core::AnalysisConfig config;  // bga_atoms defaults: reference snapshot 0
  config.atoms.threads = kThreads;
  config.with_stability = true;
  config.with_updates = true;
  config.incremental = true;
  return config;
}

/// The products of one pass that the known-answer digest covers.
struct Products {
  std::uint64_t fingerprint = 0;
  core::GeneralStats stats;
  std::vector<core::StabilityResult> stability;
  core::UpdateCorrelation correlation;
  core::LiveUpdateDrift live;
};

void add(Digest& d, const core::StabilityResult& s) {
  d.add(s.cam).add(s.mpm).add(std::uint64_t{s.atoms_t1})
      .add(std::uint64_t{s.atoms_matched_exactly})
      .add(std::uint64_t{s.prefixes_t1}).add(std::uint64_t{s.prefixes_matched});
}

void add(Digest& d, const core::PrFullCurve& c) {
  for (const double v : c.pr) d.add(v);
  for (const std::size_t v : c.n_all) d.add(std::uint64_t{v});
  for (const std::size_t v : c.n_any) d.add(std::uint64_t{v});
}

std::uint64_t digest(const Products& p) {
  Digest d;
  d.add(p.fingerprint);
  const auto& g = p.stats;
  d.add(std::uint64_t{g.prefixes}).add(std::uint64_t{g.ases})
      .add(std::uint64_t{g.ases_with_one_atom}).add(std::uint64_t{g.atoms})
      .add(std::uint64_t{g.atoms_with_one_prefix}).add(g.mean_atom_size)
      .add(std::uint64_t{g.p99_atom_size}).add(std::uint64_t{g.largest_atom_size})
      .add(std::uint64_t{g.moas_atoms}).add(g.moas_prefix_share);
  for (const auto& s : p.stability) add(d, s);
  add(d, p.correlation.atom);
  add(d, p.correlation.as_all);
  add(d, p.correlation.as_multi);
  add(d, p.correlation.as_single);
  d.add(std::uint64_t{p.correlation.updates_seen});
  d.add(std::uint64_t{p.live.atoms});
  add(d, p.live.vs_reference);
  const auto& c = p.live.counters;
  d.add(c.records).add(c.cell_writes).add(c.dirty_rows).add(c.splits)
      .add(c.merges).add(c.flushes);
  return d.value();
}

/// Digest of a core::analyze result; throws if the pass lost a product.
std::uint64_t digest(const core::AnalysisResult& r) {
  if (!r.has_reference() || !r.correlation || !r.live) {
    throw std::runtime_error("analysis pass is missing products");
  }
  Products p;
  p.fingerprint = core::partition_fingerprint(r.reference_atoms());
  p.stats = r.stats;
  for (const auto& s : r.stability) p.stability.push_back(s.result);
  p.correlation = *r.correlation;
  p.live = *r.live;
  return digest(p);
}

/// The bga_atoms pass as users run it: one top-level core::analyze call.
std::uint64_t analyze_file(const std::string& path) {
  bgp::ArchiveView view(path);
  return digest(core::analyze(view, &view, pass_config()));
}

/// Simulates the campaign and writes it to `path`; returns the simulator
/// (which owns the dataset) for the in-memory oracle.
std::unique_ptr<routing::Simulator> build_archive(std::uint64_t seed,
                                                  const std::string& path,
                                                  Recorder& rec, Outcome& out) {
  auto sim = simulate_campaign(seed, /*with_updates=*/true, rec, out.counts);
  {
    Scope s(rec, "bgp.write");
    bgp::write_archive_file(sim->dataset(), path);
  }
  count(out.counts, "bgp.write_bytes",
        static_cast<double>(std::filesystem::file_size(path)));
  return sim;
}

std::string archive_path(const RunConfig& config) {
  return config.scratch_dir + "/archive-" + std::to_string(::getpid()) + ".bga";
}

report::json::Object inputs(const RunConfig& config) {
  return {{"campaign", "2024.75 IPv4 scale 0.01, topology seed 1, updates 4h, +8h/+24h/+1w"},
          {"simulator_seed", config.seed},
          {"atoms_threads", kThreads}};
}

/// Replays one pass call by call, mirroring core::analyze for the
/// reference snapshot 0 with stability, updates and incremental on.
Products replay_pass(const std::string& path, std::uint64_t op, Recorder& rec,
                     Outcome& out, std::int32_t& pass_span) {
  const core::AnalysisConfig config = pass_config();
  auto& counts = out.counts;
  Products p;
  Scope pass(rec, "bench.archive.pass", op);
  pass_span = pass.id();

  std::optional<bgp::ArchiveView> view;
  {
    Scope s(rec, "bgp.open");
    view.emplace(path);
  }
  std::unique_ptr<core::SanitizedSnapshot> ref_san;
  std::optional<core::AtomSet> ref_atoms;
  for (std::size_t i = 0;; ++i) {
    const bgp::Snapshot* snap;
    {
      Scope s(rec, "bgp.next_snapshot");
      snap = view->next_snapshot();
    }
    if (snap == nullptr) break;
    const auto records = static_cast<double>(bgp::Dataset::record_count(*snap));
    count(counts, "bgp.read_records", records);
    count(counts, "core.sanitize.records", records);

    auto san = std::make_unique<core::SanitizedSnapshot>();
    {
      Scope s(rec, "core.sanitize");
      *san = core::sanitize(*view, *snap, config.sanitize);
    }
    double kept = 0;
    for (const auto& vp : san->vps) kept += static_cast<double>(vp.routes.size());
    count(counts, "core.sanitize.kept", kept);
    count(counts, "core.atoms.cells",
          static_cast<double>(san->prefixes.size() * san->vps.size()));

    core::AtomSet atoms;
    {
      Scope s(rec, "core.compute_atoms");
      atoms = core::compute_atoms(*san, config.atoms);
    }
    if (i == 0) {
      ref_san = std::move(san);
      ref_atoms = std::move(atoms);
      continue;
    }
    {
      Scope s(rec, "core.stability");
      p.stability.push_back(core::stability(*ref_atoms, atoms));
    }
    Scope s(rec, "core.release");
    atoms = {};
    san.reset();
  }
  if (!ref_atoms) throw std::runtime_error("archive holds no snapshot");
  {
    Scope s(rec, "core.general_stats");
    p.stats = core::general_stats(*ref_atoms);
  }

  std::optional<core::UpdateCorrelator> corr;
  {
    Scope s(rec, "core.update_corr.init");
    corr.emplace(*ref_atoms, config.update_max_k);
  }
  std::optional<core::IncrementalAtoms> inc;
  {
    Scope s(rec, "core.incremental.init");
    inc.emplace(*ref_san, view->paths(), config.atoms);
  }
  for (;;) {
    std::span<const bgp::UpdateRecord> chunk;
    {
      Scope s(rec, "bgp.next_chunk");
      chunk = view->next_chunk();
    }
    if (chunk.empty()) break;
    count(counts, "bgp.read_records", static_cast<double>(chunk.size()));
    count(counts, "core.update_corr.records", static_cast<double>(chunk.size()));
    {
      Scope s(rec, "core.update_corr.feed");
      corr->feed(chunk);
    }
    Scope s(rec, "core.incremental.apply");
    inc->apply(chunk);
  }
  {
    Scope s(rec, "core.update_corr.result");
    p.correlation = corr->result();
  }
  core::AtomSet live;
  {
    Scope s(rec, "core.incremental.atoms");
    live = inc->atoms();
  }
  p.live.atoms = live.atoms.size();
  {
    Scope s(rec, "core.stability");
    p.live.vs_reference = core::stability(*ref_atoms, live);
  }
  p.live.counters = inc->counters();
  count(counts, "core.incremental.records",
        static_cast<double>(p.live.counters.records));
  count(counts, "core.incremental.cell_writes",
        static_cast<double>(p.live.counters.cell_writes));
  {
    // Only the fingerprint outlives the pass, as with core::analyze
    // (whose result keeps just the reference products).
    Scope s(rec, "core.partition_fingerprint");
    p.fingerprint = core::partition_fingerprint(*ref_atoms);
  }
  {
    Scope s(rec, "core.release");
    live = {};
    inc.reset();
    corr.reset();
    ref_atoms.reset();
    ref_san.reset();
  }
  Scope s(rec, "bgp.close");
  view.reset();
  return p;
}

}  // namespace

Outcome run_archive(const RunConfig& config) {
  Outcome out;
  out.inputs = inputs(config);
  const std::string path = archive_path(config);
  Recorder off;

  std::vector<double> setup_s;
  std::unique_ptr<routing::Simulator> sim;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sim.reset();
    const std::uint64_t t0 = obs::monotonic_ns();
    sim = build_archive(config.seed, path, off, out);
    setup_s.push_back(static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
  }

  // Cross-path oracle: the same analysis over the in-memory dataset.
  std::uint64_t expected;
  {
    bgp::DatasetView view(sim->dataset());
    expected = digest(core::analyze(view, &view, pass_config()));
  }
  sim.reset();
  // peak_rss_mb covers the passes alone, not the simulator or the oracle.
  reset_peak_rss();
  if (config.seed == kDefaultSeed && expected != kDefaultSeedDigest) {
    out.fail("archive digest " + hex64(expected) + " != known answer " +
             hex64(kDefaultSeedDigest));
  }

  const int passes = std::max(
      3, static_cast<int>(std::lround(config.seconds * kPassesPerSecond)));
  std::vector<double> pass_s, pass_cpu_s;
  for (int i = 0; i < passes; ++i) {
    const double c0 = cpu_seconds();
    const std::uint64_t t0 = obs::monotonic_ns();
    bool ok = false;
    std::string what;
    try {
      const std::uint64_t got = analyze_file(path);
      ok = got == expected;
      what = "pass digest " + hex64(got) + " != in-memory " + hex64(expected);
    } catch (const std::exception& e) {
      what = std::string("pass threw: ") + e.what();
    }
    pass_s.push_back(static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
    pass_cpu_s.push_back(cpu_seconds() - c0);
    out.op(ok, what);
  }
  // The median pass scaled to the whole phase, so that a transient stall
  // of the machine moves wall_s and cpu_s no more than it moves one pass.
  const double wall = passes * median(pass_s);
  const double cpu = passes * median(pass_cpu_s);
  std::filesystem::remove(path);

  out.metrics.add("setup_s", median(setup_s), "s", setup_s.size());
  out.metrics.add("wall_s", wall, "s", pass_s.size());
  out.metrics.add("cpu_s", cpu, "s", pass_s.size());
  out.metrics.add("op_p50_us", median(pass_s) * 1e6, "us", pass_s.size());
  out.metrics.add("error_rate", out.ops.error_rate(), "ratio", out.ops.attempted);
  out.metrics.add("peak_rss_mb",
                  static_cast<double>(obs::sample_memory().peak_rss_bytes) / kMiB,
                  "MiB", 1);
  return out;
}

void trace_archive(const RunConfig& config, bool selected, Recorder& rec,
                   Outcome& out) {
  out.inputs.emplace_back("archive", inputs(config));
  const std::string path = archive_path(config);
  {
    Scope s(rec, "bench.archive.setup", 1);
    auto sim = build_archive(config.seed, path, rec, out);
    Scope r(rec, "routing.release");
    sim.reset();
  }

  // The traced replay between two untraced top-level calls of the same
  // pass (so that warm-up does not bias the overhead).
  auto untraced_pass = [&](double& seconds) {
    const std::uint64_t t0 = obs::monotonic_ns();
    const std::uint64_t d = analyze_file(path);
    seconds += static_cast<double>(obs::monotonic_ns() - t0) * 1e-9 / 2;
    return d;
  };
  double untraced_s = 0;
  const std::uint64_t untraced = untraced_pass(untraced_s);
  std::int32_t pass_span = -1;
  const std::uint64_t traced =
      digest(replay_pass(path, 2, rec, out, pass_span));
  out.op(untraced_pass(untraced_s) == untraced,
         "archive pass digest differs between two untraced passes");
  std::filesystem::remove(path);

  out.op(traced == untraced, "archive replay digest " + hex64(traced) +
                                 " != core::analyze " + hex64(untraced));
  if (config.seed == kDefaultSeed && untraced != kDefaultSeedDigest) {
    out.fail("archive digest " + hex64(untraced) + " != known answer " +
             hex64(kDefaultSeedDigest));
  }
  const double coverage = rec.coverage(pass_span);
  if (coverage < 0.9) out.fail("archive pass span coverage below 90%");
  out.metrics.add("trace.archive_pass.coverage", coverage, "ratio", 1);
  if (selected) {
    out.metrics.add("trace.overhead_s",
                    static_cast<double>(rec.duration_ns(pass_span)) * 1e-9 -
                        untraced_s,
                    "s", 1);
  }
}

}  // namespace perfbench
