// Byte-identity pin for the policy-engine refactor (ISSUE 9).
//
// The scenario engine (ROV, hijacks, route leaks) must be a strict
// superset of the classic Gao-Rexford pipeline: with every scenario
// disabled, registered experiments and raw simulator campaigns must
// produce byte-identical output to the pre-refactor code. These goldens
// were captured from the seed tree immediately before the refactor; any
// change here means the default path is no longer bit-stable and is a
// bug, not a test to update casually.
//
// Two layers are pinned:
//   * SimulatorArchiveDigest — FNV-1a over bgp::write_archive() bytes of
//     fixed campaigns (v4 2004, v4 2024 with updates, v6 2014): pins the
//     propagation + simulator layer directly.
//   * BenchReportDigest — FNV-1a over the canonicalized bga_bench JSON
//     report of a representative experiment subset at scale 0.05: pins
//     the whole topo -> routing -> analysis -> report stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "bench/experiments/experiments.h"
#include "bgp/archive.h"
#include "report/experiment.h"
#include "report/json.h"
#include "routing/simulator.h"
#include "topo/era.h"
#include "topo/topology.h"

namespace bgpatoms {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()));
}

// Drops run-volatile fields (timings, thread counts, cache hit stats)
// so the digest covers only the scientific payload.
report::json::Value canonicalize(const report::json::Value& v) {
  using report::json::Value;
  if (v.is_object()) {
    report::json::Object out;
    for (const auto& [key, value] : v.as_object()) {
      if (key == "wall_seconds" || key == "threads" || key == "cache") {
        continue;
      }
      out.emplace_back(key, canonicalize(value));
    }
    return Value(std::move(out));
  }
  if (v.is_array()) {
    report::json::Array out;
    for (const auto& item : v.as_array()) out.push_back(canonicalize(item));
    return Value(std::move(out));
  }
  return v;
}

std::uint64_t campaign_digest(const topo::EraParams& era, std::uint64_t seed,
                              bool with_updates,
                              routing::ScenarioOptions scenario = {}) {
  routing::SimOptions opt;
  opt.seed = seed;
  opt.scenario = scenario;
  routing::Simulator sim(topo::generate_topology(era, seed), opt);
  sim.capture();
  if (with_updates) sim.emit_updates(4 * routing::kHour);
  sim.advance_to(8 * routing::kHour);
  sim.capture();
  sim.advance_to(24 * routing::kHour);
  sim.capture();
  sim.advance_to(7 * routing::kDay);
  sim.capture();
  return fnv1a(bgp::write_archive(sim.dataset()));
}

// Captured from the pre-refactor seed (see file comment). A mismatch
// means the scenarios-disabled path changed simulator output bytes.
TEST(ScenarioCompat, SimulatorArchiveDigest) {
  EXPECT_EQ(campaign_digest(topo::era_params_v4(2004.0, 0.02), 7, false),
            4644960436340809974ull);
  EXPECT_EQ(campaign_digest(topo::era_params_v4(2024.75, 0.02), 11, true),
            7611315610023903196ull);
  EXPECT_EQ(campaign_digest(topo::era_params_v6(2014.0, 0.03), 5, true),
            2113291365971392245ull);
}

// Scenarios on: origin and sub-prefix hijacks, a route leak and ROV. MOAS
// prefixes put two routes for one prefix into a VP's list, and the
// incidents change which routes compete, so this pins the route capture
// keeps (shortest selection length, then lowest path id) along with the
// incident machinery. Captured before capture's MOAS pass became linear.
TEST(ScenarioCompat, ScenarioArchiveDigest) {
  routing::ScenarioOptions scenario;
  scenario.origin_hijacks = 2;
  scenario.subprefix_hijacks = 2;
  scenario.route_leaks = 1;
  scenario.rov = true;
  EXPECT_EQ(campaign_digest(topo::era_params_v4(2024.75, 0.02), 11, true,
                            scenario),
            7867447956161940888ull);
  EXPECT_EQ(campaign_digest(topo::era_params_v6(2020.0, 0.03), 5, true,
                            scenario),
            15494891475294311347ull);
}

// Canonicalized bga_bench --json digest over a subset spanning general
// stats, stability, update correlation, a year sweep, MOAS handling and
// the 2002 reproduction. A mismatch means a registered experiment's
// output changed with scenarios disabled.
TEST(ScenarioCompat, BenchReportDigest) {
  report::Registry registry;
  bench::register_table1(registry);
  bench::register_table3(registry);
  bench::register_table6(registry);
  bench::register_fig03(registry);
  bench::register_fig05(registry);
  bench::register_repro2002(registry);

  report::RunOptions options;
  options.scale_multiplier = 0.05;
  options.threads = 1;
  const auto report = report::run_experiments(registry.all(), options);
  const auto canonical = canonicalize(report::to_json(report)).serialize();
  EXPECT_EQ(fnv1a(canonical), 1543005841454114366ull)
      << canonical.substr(0, 2000);
}

}  // namespace
}  // namespace bgpatoms
