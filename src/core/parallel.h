// Deterministic task-pool subsystem.
//
// The longitudinal sweeps (and the atom grouping hot loop) are
// embarrassingly parallel: independent jobs whose *inputs* fully determine
// their outputs. Parallelism here therefore never touches the results —
// every job owns its state (campaigns are share-nothing, see DESIGN.md)
// and carries its own seed, and merge steps order by job/bucket index, so
// output is bit-identical for any worker count and any completion order.
//
// Worker-count resolution order: explicit request > BGPATOMS_THREADS
// environment variable > std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bgpatoms::core {

/// Thread counts a flag or BGPATOMS_THREADS may ask for: 1 to kMaxThreads.
constexpr int kMaxThreads = 4096;
constexpr const char* kThreadsRange = "an integer from 1 to 4096";

/// Worker count to use: `requested` if > 0, else the BGPATOMS_THREADS
/// environment variable if in [1, kMaxThreads] (any other value warns once
/// and is ignored), else hardware_concurrency() (min 1).
int resolve_threads(int requested = 0);

/// Seed `index` remapped into seed universe `base` (bga_bench --seed). A
/// SplitMix64 mix of (base, index): independent of thread count and
/// execution order, and well-separated even for adjacent bases or indices.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

/// A fixed-size pool of worker threads executing indexed task batches.
///
/// `run(n, body)` invokes body(0..n-1) exactly once each, distributing
/// indices over the workers plus the calling thread, and blocks until all
/// are done. Tasks must not call back into the same pool. If any task
/// throws, the first exception is rethrown from run() after the batch
/// drains.
class TaskPool {
 public:
  /// `threads` is the total concurrency including the calling thread,
  /// resolved via resolve_threads(); the pool spawns threads-1 workers.
  explicit TaskPool(int threads = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  void run(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Claims and executes indices of the current batch until exhausted.
  void drain(const std::function<void(std::size_t)>& body, std::size_t n);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;  // current batch
  std::size_t batch_n_ = 0;
  std::uint64_t generation_ = 0;  // bumped per batch to wake workers
  std::uint64_t batch_start_ns_ = 0;  // dispatch time of the current batch
                                      // (obs queue-wait accounting)
  std::size_t active_ = 0;        // workers still inside the current batch
  bool stop_ = false;
  std::exception_ptr error_;
  std::atomic<std::size_t> next_{0};  // next unclaimed index
};

/// 0..cost.size()-1 by descending `cost`, ties in index order: the order
/// to hand a batch of unequal tasks to a pool, so that the longest start
/// first and no worker idles through the batch's tail.
std::vector<std::size_t> heaviest_first(const std::vector<double>& cost);

}  // namespace bgpatoms::core
