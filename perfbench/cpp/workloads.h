// The benchmark's three workloads. Each one has an end-to-end run
// (tracing off: repeated set-up, a timed closed loop, output checks) and
// a traced replay of the same pipeline that records a span around every
// public call the benchmark makes into a layer, for the per-layer
// metrics. Both take their inputs from the run seed only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "obs/obs.h"
#include "recorder.h"
#include "report/json.h"

namespace bgpatoms::routing {
class Simulator;
}

namespace perfbench {

/// The seed whose outputs are pinned by known-answer digests. For the
/// repro workload it selects the paper's own campaign seeds.
constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::uint64_t seed = kDefaultSeed;
  int seconds = 10;
  /// Directory (inside the checkout) for the archive workload's file.
  std::string scratch_dir;
};

/// What one run produced.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;  // why `correct` is false
  OpTally ops;
  Metrics metrics;
  /// Work items counted at traced call boundaries (traced run only).
  std::map<std::string, double> counts;
  /// The workload inputs (per pipeline in a traced run), for the run
  /// manifest.
  bgpatoms::report::json::Object inputs;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  /// Records one operation; a failed one also explains itself.
  void op(bool ok, const std::string& what) {
    ops.record(ok);
    if (!ok && problems.size() < 20) problems.push_back(what);
  }
};

Outcome run_repro(const RunConfig& config);
Outcome run_archive(const RunConfig& config);
Outcome run_serve(const RunConfig& config);

/// Traced replays. Each appends its spans to `rec`, its counts and
/// pipeline-specific metrics to `out`, and checks its replayed products
/// against the untraced top-level call. `selected` marks the workload
/// the run was started for: it also reports trace.overhead_s (traced
/// minus untraced wall of the same operation).
void trace_repro(const RunConfig& config, bool selected, Recorder& rec,
                 Outcome& out);
void trace_archive(const RunConfig& config, bool selected, Recorder& rec,
                   Outcome& out);
void trace_serve(const RunConfig& config, bool selected, Recorder& rec,
                 Outcome& out);

/// The campaign archive and serve are built from: 2024.75 IPv4 (the
/// widest VP matrix of the eras) at scale 0.01, simulated through the
/// routing::Simulator API — a RIB at t0, optionally 4 h of updates, then
/// +8 h, +24 h and +1 w captures.
std::unique_ptr<bgpatoms::routing::Simulator> simulate_campaign(
    std::uint64_t seed, bool with_updates, Recorder& rec,
    std::map<std::string, double>& counts);

/// Adds `value` to counts[name].
inline void count(std::map<std::string, double>& counts,
                  const std::string& name, double value) {
  counts[name] += value;
}

}  // namespace perfbench
