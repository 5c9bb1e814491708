// Sweep-engine throughput: the same 8-quarter longitudinal sweep run on
// one worker and on the full pool, with a bit-identity check between the
// two result vectors. On a 4+ core machine the pooled run should be >=2x
// faster; on fewer cores the check still validates determinism.
//
// Deliberately plans no campaign: both sweeps must actually execute for
// the timing and the bit-identity comparison to mean anything.
#include <chrono>

#include "core/parallel.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

double run_timed(const std::vector<core::SweepJob>& jobs, int threads,
                 std::vector<core::QuarterMetrics>& out) {
  core::SweepOptions opt;
  opt.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  out = core::run_sweep(jobs, opt);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

void run(Context& ctx) {
  const double scale = ctx.scale(0.01);
  ctx.note_scale(scale);

  std::vector<core::SweepJob> jobs;
  for (double year = 2010.0; year < 2018.0; year += 1.0) {
    jobs.push_back(core::quarter_job(net::Family::kIPv4, year, scale,
                                     ctx.seed(9000 + static_cast<int>(year))));
  }

  const int pool_threads = core::resolve_threads(ctx.threads());
  std::vector<core::QuarterMetrics> seq, par;
  const double t_seq = run_timed(jobs, 1, seq);
  const double t_par = run_timed(jobs, pool_threads, par);

  ctx.add_table("timing", "", {"", "threads", "seconds"})
      .add_row({"sequential", "1", fmt("%.2f", t_seq)})
      .add_row({"pooled", std::to_string(pool_threads), fmt("%.2f", t_par)});
  ctx.add_metric("speedup", t_par > 0 ? t_seq / t_par : 0.0,
                 "over " + std::to_string(pool_threads) + " threads");
  ctx.add_check(Check::that("bit-identical metrics across thread counts",
                            seq == par,
                            std::to_string(jobs.size()) + " quarters"));
}

}  // namespace

void register_perf_sweep(Registry& registry) {
  registry.add({"perf_sweep", "perf", "Perf (sweep)",
                "run_sweep(): sequential vs worker pool, 8 quarters", run});
}

}  // namespace bgpatoms::bench
