#include "report/render.h"

#include <algorithm>
#include <string>
#include <vector>

namespace bgpatoms::report {
namespace {

constexpr const char* kRule =
    "==================================================================";

void render_table(const Table& table, std::FILE* out) {
  if (!table.title.empty()) std::fprintf(out, "%s\n", table.title.c_str());
  std::vector<std::size_t> width(table.columns.size());
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    width[c] = table.columns[c].size();
    for (const auto& row : table.rows) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  // Header, then rows: first column left-aligned (labels), the rest
  // right-aligned (numbers).
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::fputs(" ", out);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const int w = static_cast<int>(width[c]);
      std::fprintf(out, c == 0 ? " %-*s" : "  %*s", w, cells[c].c_str());
    }
    std::fputs("\n", out);
  };
  bool any_header = false;
  for (const auto& col : table.columns) any_header |= !col.empty();
  if (any_header) print_row(table.columns);
  for (const auto& row : table.rows) print_row(row);
}

}  // namespace

void render(const ExperimentResult& result, std::FILE* out) {
  std::fprintf(out, "\n%s\n", kRule);
  std::fprintf(out, "%s — %s  [%s, id %s]\n", result.name.c_str(),
               result.title.c_str(), result.section.c_str(),
               result.id.c_str());
  std::fprintf(out, "%s\n", kRule);
  for (const auto& n : result.notes) std::fprintf(out, "%s\n", n.c_str());
  if (!result.notes.empty()) std::fputs("\n", out);

  for (const auto& t : result.tables) {
    render_table(t, out);
    std::fputs("\n", out);
  }

  if (!result.metrics.empty()) {
    std::fputs("Metrics:\n", out);
    for (const auto& m : result.metrics) {
      std::fprintf(out, "  %-38s %14.4g%s%s\n", m.name.c_str(), m.value,
                   m.note.empty() ? "" : "  ", m.note.c_str());
    }
    std::fputs("\n", out);
  }

  if (!result.checks.empty()) {
    std::fprintf(out, "Shape checks (%s):\n", result.section.c_str());
    for (const auto& c : result.checks) {
      std::fprintf(out, "  %s %s", c.passed ? "yes" : "NO ",
                   c.name.c_str());
      if (!c.observed.empty()) std::fprintf(out, ": %s", c.observed.c_str());
      if (!c.paper.empty()) std::fprintf(out, " (%s)", c.paper.c_str());
      if (!c.relation.empty()) {
        std::fprintf(out, "  [%s]", c.relation.c_str());
      }
      std::fputs("\n", out);
    }
  }
}

void render_summary(const RunReport& report, std::FILE* out) {
  std::fprintf(out, "\n%s\n", kRule);
  std::fprintf(out, "Run summary — %zu experiments, %d threads, scale x%g\n",
               report.experiments.size(), report.threads,
               report.options.scale_multiplier);
  std::fprintf(out, "%s\n", kRule);
  for (const auto& e : report.experiments) {
    const std::size_t failed = e.checks_failed();
    std::fprintf(out, "  %-16s %-10s %3zu/%-3zu checks  %8.2fs\n",
                 e.id.c_str(), failed ? "FAIL" : "ok",
                 e.checks.size() - failed, e.checks.size(), e.wall_seconds);
  }
  std::fprintf(out,
               "\n  campaign cache: %zu hits, %zu misses, built in %.2fs\n",
               report.cache.hits(), report.cache.misses(),
               report.cache.build_seconds);
  std::fprintf(out, "  shape checks failed: %zu%s\n", report.checks_failed(),
               report.options.strict_checks && report.checks_failed()
                   ? "  (strict mode: failing run)"
                   : "");
}

}  // namespace bgpatoms::report
