// Measurement helpers shared by every workload: process clocks and
// memory, the percentile rule, metric naming, failure accounting and the
// known-answer digest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Worker-thread budget of every workload. With the serve workload's two
/// client threads on top, a run keeps at most four threads busy.
constexpr int kThreads = 2;

constexpr double kMiB = 1024.0 * 1024.0;

/// User + system CPU seconds consumed by this process so far.
double cpu_seconds();
/// Hands the memory set-up freed back to the kernel and lowers this
/// process's peak resident set (VmHWM, obs::sample_memory().peak_rss_bytes)
/// to its current RSS, so that the peak read at exit covers only what ran
/// after the call. Throws when the kernel refuses the reset.
void reset_peak_rss();

double median(std::vector<double> values);

/// Nearest-rank `p`-quantile (0 < p < 1) of `samples`, provided at least
/// `min_beyond` samples rank above it; nullopt when the sample is too
/// small for that percentile to be reported.
std::optional<double> tail_quantile(std::vector<double> samples, double p,
                                    std::size_t min_beyond = 10);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Attempted/failed operation accounting behind error_rate.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

/// Ordered, name-checked metric list.
class Metrics {
 public:
  /// Throws std::invalid_argument on a malformed or repeated name.
  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1);
  const std::vector<Metric>& all() const { return metrics_; }
  const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Streaming FNV-1a digest over typed fields (doubles by bit pattern).
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(std::uint64_t v);

}  // namespace perfbench
