// bga_bench — unified runner for the paper-reproduction experiments.
//
// Every table/figure of the paper is a registered experiment
// (bench/experiments/); this binary runs any subset in one process on
// one worker pool, building the campaigns the selection plans once each
// in one batch before the experiments run, renders each result as text,
// and optionally emits the whole run as machine-readable JSON.
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "experiments/experiments.h"
#include "obs/obs.h"
#include "report/experiment.h"
#include "report/json.h"
#include "report/options.h"
#include "report/render.h"
#include "report/trace.h"

namespace {

constexpr char kUsage[] =
    "usage: bga_bench [filters...] [options]\n"
    "\n"
    "Runs the paper-reproduction experiments (tables, figures, ablations)\n"
    "in one process on one simulation worker pool. The campaigns the\n"
    "selection needs are built first, each once, in parallel on that\n"
    "pool; the experiments then run in order and each campaign is freed\n"
    "after its last user.\n"
    "\n"
    "selection:\n"
    "  --list              list experiments (with --filter: the selection)\n"
    "  --all               run every experiment\n"
    "  --filter SUBSTR     run experiments whose id/name/section/title\n"
    "                      contains SUBSTR (case-insensitive; repeatable\n"
    "                      via comma: --filter fig04,fig05); positional\n"
    "                      arguments are additional filters\n"
    "options:\n"
    "  --scale MULT        workload multiplier (default $BGPATOMS_SCALE or 1)\n"
    "  --threads N         worker threads (default $BGPATOMS_THREADS or auto)\n"
    "  --seed S            seed-universe override: campaign seed s becomes\n"
    "                      derive_seed(S, s) (default $BGPATOMS_SEED or the\n"
    "                      paper seeds)\n"
    "  --json FILE         also write the full run report as JSON\n"
    "  --trace FILE        write the run's metrics as a bgpatoms-trace/1\n"
    "                      JSON document (validated before exit)\n"
    "  --metrics           print a one-shot metrics summary to stderr\n"
    "  --strict-checks     exit non-zero when any shape check fails\n";

std::vector<std::string> split_filters(const std::string& value) {
  std::vector<std::string> out;
  std::istringstream stream(value);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Writes `doc` and a trailing newline to `path`; false if the file
/// cannot be opened, written or closed.
bool write_document(const std::string& path, const std::string& doc) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  const bool written =
      std::fwrite(doc.data(), 1, doc.size(), out) == doc.size() &&
      std::fputc('\n', out) != EOF;
  return std::fclose(out) == 0 && written;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bgpatoms;
  cli::Args args(argc, argv);
  args.usage_if(false, kUsage);

  auto& registry = report::Registry::global();
  if (registry.size() == 0) bench::register_all_experiments(registry);

  std::vector<std::string> filters = args.positional();
  if (args.has("filter")) {
    for (auto& f : split_filters(args.get("filter"))) {
      filters.push_back(std::move(f));
    }
  }
  if (!args.has("all") && !args.has("list") && filters.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  const auto selection = registry.match(filters);
  if (selection.empty()) {
    std::fprintf(stderr, "no experiment matches the given filters\n");
    return 2;
  }
  if (args.has("list")) {
    for (const auto* e : selection) {
      std::printf("%-20s %-9s %-22s %s\n", e->id.c_str(), e->section.c_str(),
                  e->name.c_str(), e->title.c_str());
    }
    return cli::checked_stdout(0, 2);
  }

  report::RunOptions options;
  auto flag = [&args](const char* name) -> std::optional<std::string> {
    if (!args.has(name)) return std::nullopt;
    return args.get(name);
  };
  try {
    options = report::resolve_run_options(flag("scale"), flag("threads"),
                                          flag("seed"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bga_bench: %s\n", e.what());
    return 2;
  }
  options.strict_checks = args.has("strict-checks");

  const auto report = report::run_experiments(selection, options);
  for (const auto& result : report.experiments) {
    report::render(result, stdout);
  }
  report::render_summary(report, stdout);

  if (args.has("json")) {
    const std::string path = args.get("json");
    if (!write_document(path, report::to_json(report).serialize())) {
      std::fprintf(stderr, "bga_bench: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("JSON report written to %s\n", path.c_str());
  }

  if (args.has("trace")) {
    const std::string path = args.get("trace");
    report::TraceMeta meta;
    meta.threads = report.threads;
    meta.scale_multiplier = options.scale_multiplier;
    const report::json::Value trace =
        report::trace_to_json(obs::registry().snapshot(), meta);
    const std::string doc = trace.serialize();
    if (!write_document(path, doc)) {
      std::fprintf(stderr, "bga_bench: cannot write %s\n", path.c_str());
      return 2;
    }
    // Round-trip the document through the parser before declaring it
    // good: the trace contract is exactly "parses + validates".
    const std::string problem =
        report::validate_trace(report::json::Value::parse(doc));
    if (!problem.empty()) {
      std::fprintf(stderr, "bga_bench: invalid trace document: %s\n",
                   problem.c_str());
      return 2;
    }
    std::printf("trace written to %s\n", path.c_str());
  }

  if (args.has("metrics")) obs::print_summary(stderr);

  return cli::checked_stdout(
      options.strict_checks && !report.passed() ? 1 : 0, 2);
}
