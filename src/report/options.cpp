#include "report/options.h"

#include <cstdlib>

#include "core/env.h"
#include "core/parallel.h"

namespace bgpatoms::report {
namespace {

[[noreturn]] void bad_flag(const char* flag, const std::string& value,
                           const char* requirement) {
  throw OptionError(std::string("invalid ") + flag + "='" + value +
                    "' (expected " + requirement + ")");
}

}  // namespace

RunOptions resolve_run_options(const std::optional<std::string>& scale_flag,
                               const std::optional<std::string>& threads_flag,
                               const std::optional<std::string>& seed_flag) {
  RunOptions opt;

  if (scale_flag) {
    const auto v = core::parse_double(*scale_flag);
    if (!v || *v <= 0) bad_flag("--scale", *scale_flag, "a positive number");
    opt.scale_multiplier = *v;
  } else if (const auto v =
                 core::env_double("BGPATOMS_SCALE", "a positive number")) {
    if (*v > 0) {
      opt.scale_multiplier = *v;
    } else {
      core::warn_env_ignored("BGPATOMS_SCALE", std::getenv("BGPATOMS_SCALE"),
                             "a positive number");
    }
  }

  if (threads_flag) {
    const auto v = core::parse_int(*threads_flag);
    if (!v || *v <= 0 || *v > core::kMaxThreads) {
      bad_flag("--threads", *threads_flag, core::kThreadsRange);
    }
    opt.threads = static_cast<int>(*v);
  }
  // No explicit env read here: core::resolve_threads() consumes
  // BGPATOMS_THREADS (strictly, warning once) when opt.threads stays 0.

  if (seed_flag) {
    const auto v = core::parse_uint(*seed_flag);
    if (!v) bad_flag("--seed", *seed_flag, "an unsigned integer");
    opt.seed = *v;
  } else if (const auto v =
                 core::env_uint("BGPATOMS_SEED", "an unsigned integer")) {
    opt.seed = *v;
  }

  return opt;
}

}  // namespace bgpatoms::report
