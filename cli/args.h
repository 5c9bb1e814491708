// Minimal command-line option parser shared by the CLI tools, plus the
// exit-path helpers every tool uses (--metrics summary, stdout check).
//
// Supports "--name value", "--name=value", "-x value" and boolean
// "--flag"; positional arguments are collected in order. Tokens that
// parse fully as numbers are never treated as option names, so negative
// values work both as option values ("--seed -3") and as positionals.
// Limitation: a flag followed by a bare token greedily binds it as the
// flag's value — place positional arguments before flags (all tools here
// do).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/env.h"
#include "net/prefix.h"
#include "obs/obs.h"

namespace bgpatoms::cli {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.empty() || arg[0] != '-' || arg == "-" || is_number(arg)) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(arg.rfind("--", 0) == 0 ? 2 : 1);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc &&
                 (argv[i + 1][0] != '-' || is_number(argv[i + 1]))) {
        options_[arg] = argv[++i];
      } else {
        options_[arg] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& name) const { return options_.count(name) > 0; }

  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
  }

  /// Strict numeric accessors: a present but malformed value ("--threads
  /// abc", "--scale 0.5x") is a hard usage error — print a diagnostic and
  /// exit 2 — never a silent 0 the way atof/atol behaved.
  /// `min_value`/`max_value` bound the accepted range the same way
  /// get_int's bounds do; NaN never satisfies a range, so it is always a
  /// usage error (exit 2), even under the default unbounded range.
  double get_double(
      const std::string& name, double fallback,
      double min_value = -std::numeric_limits<double>::infinity(),
      double max_value = std::numeric_limits<double>::infinity()) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    const auto value = core::parse_double(it->second);
    if (!value) fail_parse(name, it->second, "a number");
    if (std::isnan(*value) || *value < min_value || *value > max_value) {
      fail_range_double(name, it->second, min_value, max_value);
    }
    return *value;
  }

  /// Strict prefix accessor: the value must parse through the one shared
  /// net::parse_prefix helper ("addr/len" CIDR or a bare address as a
  /// host route). Malformed input is a usage error (exit 2), never a
  /// silently skipped filter. nullopt when the option is absent.
  std::optional<net::Prefix> get_prefix(const std::string& name) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return std::nullopt;
    const auto prefix = net::parse_prefix(it->second);
    if (!prefix) fail_parse(name, it->second, "an IP prefix or address");
    return prefix;
  }

  /// `min_value`/`max_value` bound the accepted range: an in-range check
  /// at the parse boundary, so callers can narrow (static_cast<int>,
  /// uint32) without silent wrapping. Out-of-range is a usage error
  /// (exit 2), same policy as a malformed value.
  long get_int(const std::string& name, long fallback,
               long min_value = std::numeric_limits<long>::min(),
               long max_value = std::numeric_limits<long>::max()) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return fallback;
    const auto value = core::parse_int(it->second);
    if (!value) fail_parse(name, it->second, "an integer");
    if (*value < static_cast<long long>(min_value) ||
        *value > static_cast<long long>(max_value)) {
      fail_range(name, it->second, min_value, max_value);
    }
    return static_cast<long>(*value);
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Prints usage and exits when --help was passed or `condition` holds.
  void usage_if(bool condition, const char* text) const {
    if (condition || has("help")) {
      std::fputs(text, stderr);
      std::exit(condition ? 2 : 0);
    }
  }

 private:
  /// True when the whole token parses as a number ("-3", "-0.5", "2e4").
  static bool is_number(const std::string& token) {
    return core::parse_double(token).has_value();
  }

  [[noreturn]] static void fail_parse(const std::string& name,
                                      const std::string& value,
                                      const char* expected) {
    std::fprintf(stderr, "error: --%s expects %s, got '%s' (see --help)\n",
                 name.c_str(), expected, value.c_str());
    std::exit(2);
  }

  [[noreturn]] static void fail_range(const std::string& name,
                                      const std::string& value, long lo,
                                      long hi) {
    std::fprintf(stderr,
                 "error: --%s expects an integer in [%ld, %ld], got '%s' "
                 "(see --help)\n",
                 name.c_str(), lo, hi, value.c_str());
    std::exit(2);
  }

  [[noreturn]] static void fail_range_double(const std::string& name,
                                             const std::string& value,
                                             double lo, double hi) {
    std::fprintf(stderr,
                 "error: --%s expects a number in [%g, %g], got '%s' "
                 "(see --help)\n",
                 name.c_str(), lo, hi, value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Scope guard for --metrics: dumps the obs registry on every exit path.
struct MetricsAtExit {
  bool enabled = false;
  ~MetricsAtExit() {
    if (enabled) obs::print_summary(stderr);
  }
};

/// Flushes standard output (std::cout and stdout) and returns `status`.
/// If any write to it failed (a full disk, a closed pipe), prints
/// "error: cannot write standard output" and returns `failure` instead,
/// so lost output is never reported as success.
inline int checked_stdout(int status, int failure = 1) {
  std::cout.flush();
  const bool failed =
      std::fflush(stdout) != 0 || std::ferror(stdout) != 0 || !std::cout;
  if (!failed) return status;
  std::fputs("error: cannot write standard output\n", stderr);
  return failure;
}

}  // namespace bgpatoms::cli
