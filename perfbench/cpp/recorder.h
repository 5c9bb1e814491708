// In-memory span recorder for the benchmark's traced run.
//
// The benchmark records one span around each public call it makes into a
// layer of the library (the layer is the span name up to its first '.',
// e.g. "core.sanitize" belongs to "core"); spans named "bench.*" are the
// benchmark's own framing (a set-up, an archive pass, a request replay).
// Spans nest strictly because they are opened and closed on the
// benchmark's one driving thread; parallel work inside a library call is
// attributed to the call's span. Nothing is written while the benchmark
// runs: the spans stay in memory and are exported when it ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The layer a span belongs to: its name up to the first '.'.
std::string_view layer_of(std::string_view span_name);

class Recorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;  // obs::monotonic_ns()
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(); -1 for a root
    std::uint64_t op = 0;      // shared by every span of one operation
  };

  /// A disabled recorder records nothing; Scope on it costs one branch.
  explicit Recorder(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. `op` 0 inherits the
  /// parent's op id. Returns the span id (-1 when disabled).
  std::int32_t begin(std::string_view name, std::uint64_t op = 0);
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t duration_ns(std::int32_t id) const {
    return static_cast<std::int64_t>(spans_[id].end_ns - spans_[id].start_ns);
  }

  /// Per-span self time: its duration minus its direct children's.
  std::vector<std::int64_t> self_ns() const;

  /// Self time and span count per span name (all spans).
  struct Total {
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Total> totals_by_name() const;
  /// Self time per layer (all spans).
  std::map<std::string, std::int64_t> self_by_layer() const;

  /// Share of span `root`'s duration spent in non-"bench" layers beneath
  /// it, i.e. 1 - (self time of bench spans in root's subtree) / duration.
  double coverage(std::int32_t root) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span.
class Scope {
 public:
  Scope(Recorder& recorder, std::string_view name, std::uint64_t op = 0)
      : recorder_(recorder), id_(recorder.begin(name, op)) {}
  ~Scope() { recorder_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Recorder& recorder_;
  std::int32_t id_;
};

}  // namespace perfbench
