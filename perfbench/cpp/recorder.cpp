#include "recorder.h"

#include "obs/obs.h"

namespace perfbench {

std::string_view layer_of(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::int32_t Recorder::begin(std::string_view name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = open_;
  span.op = op != 0 || open_ < 0 ? op : spans_[open_].op;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_ = id;
  // Last, so that the cost of opening the span stays outside it.
  spans_[id].start_ns = bgpatoms::obs::monotonic_ns();
  return id;
}

void Recorder::end(std::int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = bgpatoms::obs::monotonic_ns();
  open_ = spans_[id].parent;
}

std::vector<std::int64_t> Recorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += duration_ns(static_cast<std::int32_t>(i));
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= duration_ns(static_cast<std::int32_t>(i));
    }
  }
  return self;
}

std::map<std::string, Recorder::Total> Recorder::totals_by_name() const {
  const auto self = self_ns();
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Total& t = out[spans_[i].name];
    t.self_ns += self[i];
    ++t.count;
  }
  return out;
}

std::map<std::string, std::int64_t> Recorder::self_by_layer() const {
  const auto self = self_ns();
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[std::string(layer_of(spans_[i].name))] += self[i];
  }
  return out;
}

double Recorder::coverage(std::int32_t root) const {
  const auto self = self_ns();
  std::int64_t bench_ns = 0;
  // Spans are appended in open order, so root's subtree follows it.
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size(); ++i) {
    if (spans_[i].start_ns > spans_[root].end_ns) break;
    std::int32_t a = static_cast<std::int32_t>(i);
    while (a >= 0 && a != root) a = spans_[a].parent;
    if (a != root) continue;
    if (layer_of(spans_[i].name) == "bench") bench_ns += self[i];
  }
  const std::int64_t total = duration_ns(root);
  return total > 0 ? 1.0 - static_cast<double>(bench_ns) /
                               static_cast<double>(total)
                   : 0.0;
}

}  // namespace perfbench
