#include "core/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "core/env.h"
#include "net/rng.h"
#include "obs/obs.h"

namespace bgpatoms::core {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const auto v = env_int("BGPATOMS_THREADS", kThreadsRange)) {
    if (*v > 0 && *v <= kMaxThreads) return static_cast<int>(*v);
    warn_env_ignored("BGPATOMS_THREADS", std::getenv("BGPATOMS_THREADS"),
                     kThreadsRange);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  // Golden-ratio stride separates adjacent indices before the SplitMix64
  // finalizer; +1 keeps (base=0, index=0) away from the all-zero state.
  SplitMix64 sm(base ^ ((index + 1) * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

TaskPool::TaskPool(int threads) {
  const int total = resolve_threads(threads);
  workers_.reserve(total > 1 ? total - 1 : 0);
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskPool::drain(const std::function<void(std::size_t)>& body,
                     std::size_t n) {
#if BGPATOMS_OBS_ENABLED
  std::size_t executed = 0;  // this thread's share of the batch
#endif
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
#if BGPATOMS_OBS_ENABLED
    ++executed;
#endif
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
#if BGPATOMS_OBS_ENABLED
  // Scheduling-dependent by design (load balance across workers): a
  // histogram, never a counter — the golden-trace determinism tier only
  // compares counters across thread counts.
  OBS_HISTOGRAM("pool.tasks_per_worker", executed);
#endif
}

void TaskPool::run(std::size_t n,
                   const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Batch/task totals are workload-determined (thread-count invariant);
  // the span covers dispatch through barrier.
  OBS_COUNT("pool.batches");
  OBS_COUNT_N("pool.tasks", n);
  OBS_SPAN("pool.run");
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    batch_n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_ = workers_.size();
    error_ = nullptr;
    ++generation_;
#if BGPATOMS_OBS_ENABLED
    batch_start_ns_ = obs::monotonic_ns();
#endif
  }
  cv_start_.notify_all();
  drain(body, n);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return active_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void TaskPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body;
    std::size_t n;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = batch_n_;
      OBS_TIME_NS("pool.queue_wait", obs::monotonic_ns() - batch_start_ns_);
    }
    drain(*body, n);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    cv_done_.notify_one();
  }
}

std::vector<std::size_t> heaviest_first(const std::vector<double>& cost) {
  std::vector<std::size_t> order(cost.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return cost[a] > cost[b];
  });
  return order;
}

}  // namespace bgpatoms::core
