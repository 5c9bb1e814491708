#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;  // 5: reset the peak RSS (Linux >= 4.0)
  if (!clear_refs) {
    throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
  }
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::optional<double> tail_quantile(std::vector<double> samples, double p,
                                    std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0 && p < 1.0)) return std::nullopt;
  // Nearest rank: the smallest sample with at least p*n samples at or
  // below it. Rounded to 1e-9 so that 0.99 * 1000 counts as 990.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const std::size_t k = std::max<std::size_t>(1, static_cast<std::size_t>(rank));
  if (n - k < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[k - 1];
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Metrics::add(std::string name, double value, std::string unit,
                  std::uint64_t samples) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("malformed metric name '" + name + "'");
  }
  if (find(name) != nullptr) {
    throw std::invalid_argument("metric '" + name + "' reported twice");
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

const Metric* Metrics::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

Digest& Digest::add(std::uint64_t v) {
  bytes(&v, sizeof v);
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  bytes(s.data(), s.size());
  return *this;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
