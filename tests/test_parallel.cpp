// Tests for the deterministic task pool and seed derivation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"

namespace bgpatoms::core {
namespace {

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
}

TEST(ResolveThreads, EnvOverrideWhenUnrequested) {
  ::unsetenv("BGPATOMS_THREADS");
  const int hardware = resolve_threads(0);
  EXPECT_GE(hardware, 1);  // hardware fallback, always >= 1
  ::setenv("BGPATOMS_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(2), 2);  // explicit still wins
  ::setenv("BGPATOMS_THREADS", "4096", 1);
  EXPECT_EQ(resolve_threads(0), kMaxThreads);
  // Values outside [1, kMaxThreads] (the range --threads accepts) fall
  // through to hardware. Only resolved here: no pool is started from them.
  for (const char* invalid : {"0", "4097", "5000000000"}) {
    ::setenv("BGPATOMS_THREADS", invalid, 1);
    EXPECT_EQ(resolve_threads(0), hardware) << invalid;
  }
  ::unsetenv("BGPATOMS_THREADS");
}

TEST(DeriveSeed, DeterministicAndSeparated) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 1; base <= 4; ++base)
    for (std::uint64_t i = 0; i < 64; ++i) seen.insert(derive_seed(base, i));
  // Adjacent bases/indices must not collide (SplitMix64 mixing).
  EXPECT_EQ(seen.size(), 4u * 64u);
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 0));
}

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    TaskPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(TaskPool, ReusableAcrossBatches) {
  TaskPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> sum{0};
    pool.run(round, [&](std::size_t i) { sum += static_cast<int>(i) + 1; });
    EXPECT_EQ(sum.load(), round * (round + 1) / 2);
  }
}

TEST(TaskPool, FirstExceptionPropagates) {
  TaskPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(100,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 17) throw std::runtime_error("task 17");
                        }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // The pool survives a throwing batch.
  std::atomic<int> ok{0};
  pool.run(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

}  // namespace
}  // namespace bgpatoms::core
