// Self-tests of the benchmark's own measurement rules: the percentile
// rule, self time from nested spans, the metric-name charset, the
// error_rate accounting and the peak-RSS reset. Exit status 0 when every
// check holds.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "measure.h"
#include "recorder.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      ++failures;                                                \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                             \
    }                                                            \
  } while (0)

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  // 1000 samples: rank 990 is p99 and exactly ten samples lie beyond it.
  CHECK(tail_quantile(one_to(1000), 0.99) == 990.0);
  // 999 samples: only nine would lie beyond, so there is no p99.
  CHECK(!tail_quantile(one_to(999), 0.99).has_value());
  CHECK(tail_quantile(one_to(999), 0.99, 9) == 990.0);
  CHECK(tail_quantile(one_to(100), 0.5) == 50.0);
  CHECK(tail_quantile(one_to(100), 0.9) == 90.0);
  CHECK(!tail_quantile(one_to(100), 0.95).has_value());  // 5 beyond
  CHECK(!tail_quantile({}, 0.5).has_value());
  CHECK(!tail_quantile(one_to(10), 1.0).has_value());
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 3, 2}) == 2.5);
}

void self_time() {
  Recorder rec(true);
  std::int32_t root, child, grandchild, bench_child;
  {
    Scope r(rec, "bench.pass", 7);
    root = r.id();
    {
      Scope c(rec, "core.sanitize");
      child = c.id();
      Scope g(rec, "bgp.next_snapshot");
      grandchild = g.id();
    }
    Scope b(rec, "bench.glue");
    bench_child = b.id();
  }
  std::int32_t other;
  {
    Scope o(rec, "query.handle", 9);  // a second root
    other = o.id();
  }

  const auto self = rec.self_ns();
  CHECK(self[grandchild] == rec.duration_ns(grandchild));
  CHECK(self[child] == rec.duration_ns(child) - rec.duration_ns(grandchild));
  CHECK(self[root] == rec.duration_ns(root) - rec.duration_ns(child) -
                          rec.duration_ns(bench_child));
  // Self times of one tree add up to its root's duration.
  CHECK(self[root] + self[child] + self[grandchild] + self[bench_child] ==
        rec.duration_ns(root));
  // Children inherit the op id; a new root starts its own.
  CHECK(rec.spans()[grandchild].op == 7);
  CHECK(rec.spans()[other].op == 9);
  CHECK(rec.spans()[other].parent == -1);
  CHECK(rec.spans()[grandchild].parent == child);

  const auto layers = rec.self_by_layer();
  CHECK(layers.at("core") == self[child]);
  CHECK(layers.at("bgp") == self[grandchild]);
  CHECK(layers.at("bench") == self[root] + self[bench_child]);
  const double covered =
      static_cast<double>(self[child] + self[grandchild]) /
      static_cast<double>(rec.duration_ns(root));
  CHECK(std::abs(rec.coverage(root) - covered) < 1e-12);
  CHECK(rec.totals_by_name().at("core.sanitize").count == 1);

  Recorder off;
  {
    Scope s(off, "core.sanitize");
    CHECK(s.id() == -1);
  }
  CHECK(off.spans().empty());
  CHECK(layer_of("report.experiment.table1") == "report");
  CHECK(layer_of("bench") == "bench");
}

void metric_names() {
  CHECK(valid_metric_name("wall_s"));
  CHECK(valid_metric_name("report.experiment.table_vp_value.wall_s"));
  CHECK(valid_metric_name("query.lookup.p99_us"));
  CHECK(valid_metric_name("9-lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".hidden"));
  CHECK(!valid_metric_name("_x"));
  CHECK(!valid_metric_name("p99 us"));
  CHECK(!valid_metric_name("qps/s"));
  CHECK(!valid_metric_name("caf\xc3\xa9"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));

  Metrics m;
  m.add("wall_s", 1.5, "s", 3);
  CHECK(m.find("wall_s") != nullptr && m.find("wall_s")->samples == 3);
  bool threw = false;
  try {
    m.add("wall_s", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    m.add("bad name", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void error_rate() {
  OpTally t;
  CHECK(t.error_rate() == 0.0);
  for (int i = 0; i < 29; ++i) t.record(i != 3);
  CHECK(t.attempted == 29 && t.failed == 1);
  CHECK(t.error_rate() == 1.0 / 29.0);

  Outcome out;
  out.op(true, "fine");
  out.op(false, "table2: 1 check(s) failed");
  CHECK(out.ops.attempted == 2 && out.ops.failed == 1);
  CHECK(out.correct);  // a failed operation is counted, not a wrong output
  CHECK(out.problems.size() == 1);
  out.fail("digest differs");
  CHECK(!out.correct);
}

void peak_rss_reset() {
  {
    std::vector<char> block(std::size_t{64} << 20, 1);  // 64 MiB, touched
    volatile char sink = block[block.size() / 2];
    (void)sink;
  }
  auto peak = [] { return bgpatoms::obs::sample_memory().peak_rss_bytes; };
  const auto before = peak();
  reset_peak_rss();
  const auto after = peak();
  // The freed block's share of the peak does not survive the reset.
  CHECK(after > 0);
  CHECK(after + (std::uint64_t{32} << 20) < before);
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  metric_names();
  error_rate();
  peak_rss_reset();
  if (failures == 0) std::puts("perfbench self-tests: all passed");
  return failures == 0 ? 0 : 1;
}
