// Unified experiment registry.
//
// Each figure/table of the paper is one registered Experiment: a stable
// id ("fig04"), the paper section it reproduces, a display name, a run
// function that assembles structured output (report::Table rows,
// report::Metric scalars, report::Check shape assertions) through the
// Context it receives, and a plan listing the campaigns run will request.
// One runner executes any subset in one process: it builds the
// selection's distinct planned campaigns in one batch on a shared
// core::TaskPool (report/cache.h), runs the experiments in order, and
// renders text (report/render) and JSON (report/json) from the same
// result objects.
//
// Registration is explicit (bench/experiments/register_all.cpp calls one
// register_* function per experiment) — no static-initializer magic, so
// the experiment library works unchanged from static archives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "report/cache.h"
#include "report/check.h"
#include "report/json.h"
#include "report/options.h"
#include "report/table.h"

namespace bgpatoms::core {
class TaskPool;
}

namespace bgpatoms::report {

/// Everything one experiment produced in one run.
struct ExperimentResult {
  std::string id;
  std::string section;  // paper anchor, e.g. "§4.3"
  std::string name;     // display name, e.g. "Figure 4"
  std::string title;
  /// Freeform preamble lines (paper context, workload notes).
  std::vector<std::string> notes;
  std::vector<Table> tables;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// Primary substrate scale the experiment ran at (after the run
  /// multiplier), as printed by the old note_scale() banner.
  double scale = 0.0;
  int threads = 0;
  double wall_seconds = 0.0;

  bool passed() const;
  std::size_t checks_failed() const;
};

class Context;

struct Experiment {
  std::string id;       // stable slug: "table1", "fig04", "scenario_hijack"
  std::string section;  // paper anchor
  std::string name;     // display name: "Table 1", "Figure 4"
  std::string title;    // one-line description
  std::function<void(Context&)> run;
  /// Every config `run` passes to Context::campaign, computed from the
  /// same Context (scale and seed). Empty for experiments that request no
  /// campaign.
  std::function<std::vector<core::CampaignConfig>(const Context&)> plan =
      nullptr;
};

/// Ordered experiment collection; ids are unique. The process-global
/// instance is populated by register_all_experiments() (bench layer).
class Registry {
 public:
  /// Throws std::invalid_argument on a duplicate or empty id.
  void add(Experiment experiment);

  const Experiment* find(std::string_view id) const;
  /// All experiments, in registration order.
  std::vector<const Experiment*> all() const;
  /// Experiments whose id, name, section or title contains any of the
  /// case-insensitive `filters` (empty filter list = all).
  std::vector<const Experiment*> match(
      const std::vector<std::string>& filters) const;
  std::size_t size() const { return experiments_.size(); }

  static Registry& global();

 private:
  std::vector<std::unique_ptr<Experiment>> experiments_;
};

/// Handed to Experiment::run: workload parameters, shared simulation
/// resources, and the result under assembly.
class Context {
 public:
  /// `user` is the experiment's position in the run, as numbered in
  /// `campaigns`.
  Context(const RunOptions& options, core::TaskPool& pool,
          const CampaignPlan& campaigns, std::size_t user,
          ExperimentResult& result);

  // -- workload parameters --------------------------------------------
  double scale_multiplier() const { return options_.scale_multiplier; }
  /// Experiment base scale -> effective substrate scale for this run.
  double scale(double base) const {
    return base * options_.scale_multiplier;
  }
  /// Campaign seed for this run: the experiment's paper seed, remapped
  /// through the --seed universe override when one is set.
  std::uint64_t seed(std::uint64_t paper_seed) const;
  int threads() const;

  // -- shared simulation resources ------------------------------------
  /// The run-wide shared pool. Tasks on it must not call back into it.
  core::TaskPool& pool() const { return pool_; }
  /// A campaign this experiment's plan lists, built before the run
  /// started and kept until its last planned user finishes. Throws
  /// std::logic_error naming the experiment for an unplanned config.
  const core::Campaign& campaign(const core::CampaignConfig& config);
  /// Sweep over the shared pool (core::run_sweep; not cached).
  std::vector<core::QuarterMetrics> run_sweep(
      const std::vector<core::CampaignConfig>& configs);

  // -- result assembly -------------------------------------------------
  void note(std::string line);
  /// Records the substrate scale banner (old note_scale()).
  void note_scale(double scale);
  Table& add_table(std::string id, std::string title,
                   std::vector<std::string> columns);
  void add_metric(std::string name, double value, std::string note = "");
  void add_check(Check check);

 private:
  const RunOptions& options_;
  core::TaskPool& pool_;
  const CampaignPlan& campaigns_;
  std::size_t user_;
  ExperimentResult& result_;
};

/// A full harness run: options, per-experiment results, planned-campaign
/// totals.
struct RunReport {
  RunOptions options;
  int threads = 0;
  std::vector<ExperimentResult> experiments;
  CampaignStats cache;

  bool passed() const;
  std::size_t checks_failed() const;
};

/// Runs `experiments` in order in this process on one TaskPool: first the
/// selection's distinct planned campaigns in one pool batch, then each
/// experiment on the calling thread, freeing each campaign after its last
/// planned user. Per-experiment wall_seconds leave the batch out; its
/// wall is RunReport::cache.build_seconds.
RunReport run_experiments(const std::vector<const Experiment*>& experiments,
                          const RunOptions& options);

/// JSON document for --json / the BENCH_*.json trajectory (schema
/// documented in EXPERIMENTS.md).
json::Value to_json(const RunReport& report);

}  // namespace bgpatoms::report
