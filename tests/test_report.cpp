// The report layer: experiment registry, Check semantics, JSON
// round-trip, the campaign plan runner, and run-option resolution.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/env.h"
#include "core/longitudinal.h"
#include "core/parallel.h"
#include "report/cache.h"
#include "report/check.h"
#include "report/experiment.h"
#include "report/json.h"
#include "report/options.h"

namespace bgpatoms {
namespace {

using report::Check;
using report::Experiment;
using report::Registry;

Experiment make(const char* id, const char* name = "", const char* title = "",
                const char* section = "") {
  Experiment e;
  e.id = id;
  e.section = section;
  e.name = name;
  e.title = title;
  e.run = [](report::Context&) {};
  return e;
}

// ---------------------------------------------------------------- registry

TEST(Registry, FindAndOrder) {
  Registry r;
  r.add(make("table1", "Table 1"));
  r.add(make("fig04", "Figure 4"));
  ASSERT_NE(r.find("fig04"), nullptr);
  EXPECT_EQ(r.find("fig04")->name, "Figure 4");
  EXPECT_EQ(r.find("nope"), nullptr);
  const auto all = r.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->id, "table1");
  EXPECT_EQ(all[1]->id, "fig04");
}

TEST(Registry, RejectsDuplicateAndEmptyIds) {
  Registry r;
  r.add(make("fig01"));
  EXPECT_THROW(r.add(make("fig01")), std::invalid_argument);
  EXPECT_THROW(r.add(make("")), std::invalid_argument);
}

TEST(Registry, MatchIsCaseInsensitiveOverAllFields) {
  Registry r;
  r.add(make("table1", "Table 1", "General statistics", "§4.1"));
  r.add(make("fig05", "Figure 5", "Stability trend", "§4.4"));
  r.add(make("fig09", "Figure 9", "IPv6 stability trend", "§5.2"));

  EXPECT_EQ(r.match({"FIG05"}).size(), 1u);          // id
  EXPECT_EQ(r.match({"stability"}).size(), 2u);      // title
  EXPECT_EQ(r.match({"§4."}).size(), 2u);            // section
  EXPECT_EQ(r.match({"table1", "fig05"}).size(), 2u);  // union
  EXPECT_EQ(r.match({}).size(), 3u);                 // empty = all
  EXPECT_TRUE(r.match({"zzz"}).empty());
}

// ------------------------------------------------------------------ checks

TEST(Check, BooleanFactory) {
  EXPECT_TRUE(Check::that("x", true, "obs").passed);
  EXPECT_FALSE(Check::that("x", false, "obs").passed);
  EXPECT_EQ(Check::that("x", true, "obs", "paper").paper, "paper");
}

TEST(Check, NumericRelations) {
  EXPECT_TRUE(Check::less("a", 1.0, 2.0, "").passed);
  EXPECT_FALSE(Check::less("a", 2.0, 1.0, "").passed);
  EXPECT_FALSE(Check::less("a", 1.0, 1.0, "").passed);  // strict
  EXPECT_TRUE(Check::greater("b", 2.0, 1.0, "").passed);
  EXPECT_TRUE(Check::near("c", 1.05, 1.0, 0.1, "").passed);
  EXPECT_FALSE(Check::near("c", 1.2, 1.0, 0.1, "").passed);
  // The relation string records the operands for the rendered output.
  EXPECT_NE(Check::less("a", 0.25, 0.5, "").relation.find("0.25"),
            std::string::npos);
}

TEST(Check, NanAlwaysFails) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Check::less("a", nan, 1.0, "").passed);
  EXPECT_FALSE(Check::greater("a", nan, 0.0, "").passed);
  EXPECT_FALSE(Check::near("a", nan, 0.0, 10.0, "").passed);
}

// The exact relations the ported experiments assert (fig04 / fig05 /
// fig12 shapes), pinned so a refactor of the experiment code cannot
// silently weaken them.
TEST(Check, PaperShapeRelations) {
  // fig04: distance-1 share falls by more than 5pp over the period.
  const double first_d1 = 0.5522, last_d1 = 0.3137;
  EXPECT_TRUE(Check::less("d1 falls", last_d1, first_d1 - 0.05, "").passed);
  EXPECT_FALSE(Check::less("d1 falls", 0.52, first_d1 - 0.05, "").passed);
  // fig05: pre-2023 floor above 90%, final year dips below the floor.
  const double min_cam8 = 0.936, last_cam8 = 0.819;
  EXPECT_TRUE(Check::greater("floor", min_cam8, 0.90, "").passed);
  EXPECT_TRUE(Check::less("dip", last_cam8, min_cam8, "").passed);
  // fig12: the full-feed threshold grows by more than 2x.
  EXPECT_TRUE(Check::greater("growth", 6.3, 2.0, "").passed);
}

// -------------------------------------------------------------------- JSON

TEST(Json, RoundTripPreservesStructure) {
  report::json::Object inner;
  inner.emplace_back("name", report::json::Value("atoms grow"));
  inner.emplace_back("passed", report::json::Value(true));
  inner.emplace_back("value", report::json::Value(0.315));
  report::json::Array checks;
  checks.emplace_back(std::move(inner));
  report::json::Object root;
  root.emplace_back("schema", report::json::Value("bgpatoms-report/1"));
  root.emplace_back("count", report::json::Value(3));
  root.emplace_back("seed", report::json::Value(nullptr));
  root.emplace_back("checks", report::json::Value(std::move(checks)));
  const report::json::Value doc{std::move(root)};

  const auto parsed = report::json::Value::parse(doc.serialize());
  EXPECT_EQ(parsed, doc);
  ASSERT_NE(parsed.find("checks"), nullptr);
  const auto& check = parsed.find("checks")->as_array().at(0);
  EXPECT_EQ(check.find("name")->as_string(), "atoms grow");
  EXPECT_TRUE(check.find("passed")->as_bool());
  EXPECT_DOUBLE_EQ(check.find("value")->as_number(), 0.315);
  EXPECT_TRUE(parsed.find("seed")->is_null());
}

TEST(Json, StringEscapesRoundTrip) {
  const report::json::Value v(std::string("§4.3 \"quoted\"\nline\ttab"));
  EXPECT_EQ(report::json::Value::parse(v.serialize()), v);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(report::json::Value::parse("{"), std::runtime_error);
  EXPECT_THROW(report::json::Value::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(report::json::Value::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(report::json::Value::parse("'single'"), std::runtime_error);
}

TEST(Json, ParseRejectsDeepNesting) {
  using report::json::Value;
  // The parser recurses once per container; hostile input far below a
  // serve frame's size must fail as a parse error, not overflow the stack.
  for (const std::size_t n : {std::size_t{65}, std::size_t{100000},
                              std::size_t{1000000}}) {
    std::string objects;
    for (std::size_t i = 0; i < n; ++i) objects += "{\"a\":";
    for (const std::string& doc : {std::string(n, '['), objects}) {
      try {
        (void)Value::parse(doc);
        ADD_FAILURE() << n << " levels parsed";
      } catch (const std::runtime_error& e) {
        const std::string at = doc[0] == '[' ? "byte 64:" : "byte 320:";
        EXPECT_NE(std::string(e.what()).find("json parse error at " + at),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The cap (64) is far above the deepest document the repo writes.
  const Value deep = Value::parse(std::string(64, '[') + std::string(64, ']'));
  EXPECT_TRUE(deep.is_array());
}

TEST(Json, SerializeLayoutIsPinned) {
  using report::json::Array;
  using report::json::Object;
  using report::json::Value;
  EXPECT_EQ(Value(Object{}).serialize(), "{}");
  EXPECT_EQ(Value(Array{}).serialize(), "[]");

  const Value doc(Object{
      {"a", Value(Array{Value(1), Value(Object{}), Value(Array{}),
                        Value(Object{{"k", Value(nullptr)}})})},
      {"b", Value(Object{{"c", Value(Array{Value(true), Value(false)})}})},
      {"s", Value("x")}});
  EXPECT_EQ(doc.serialize(),
            "{\n"
            "  \"a\": [\n"
            "    1,\n"
            "    {},\n"
            "    [],\n"
            "    {\n"
            "      \"k\": null\n"
            "    }\n"
            "  ],\n"
            "  \"b\": {\n"
            "    \"c\": [\n"
            "      true,\n"
            "      false\n"
            "    ]\n"
            "  },\n"
            "  \"s\": \"x\"\n"
            "}");

  // Every escape, in values and keys; '/' and UTF-8 pass through.
  EXPECT_EQ(Value(std::string("\"\\\b\f\n\r\t\x01\x1f/\xc3\xa9")).serialize(),
            "\"\\\"\\\\\\b\\f\\n\\r\\t\\u0001\\u001f/\xc3\xa9\"");
  EXPECT_EQ(Value(Object{{"k\"\n", Value(1)}}).serialize(),
            "{\n  \"k\\\"\\n\": 1\n}");

  // Integers digit-exact, doubles shortest of %.15g / %.17g that
  // round-trips, non-finite as null.
  EXPECT_EQ(Value(std::int64_t{-42}).serialize(), "-42");
  EXPECT_EQ(Value((std::uint64_t{1} << 53) + 3).serialize(),
            "9007199254740995");
  EXPECT_EQ(Value(0.315).serialize(), "0.315");
  EXPECT_EQ(Value(0.1 + 0.2).serialize(), "0.30000000000000004");
  EXPECT_EQ(Value(1e300).serialize(), "1e+300");
  EXPECT_EQ(Value(2.0).serialize(), "2");
  EXPECT_EQ(Value(std::nan("")).serialize(), "null");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).serialize(),
            "null");
}

TEST(Json, IntegersAboveTwoPow53SerializeDigitExact) {
  // 2^53 + 1 is the first integer a double cannot represent: the old
  // double round-trip printed 9007199254740992 for it. Counters from the
  // obs registry flow through here, so the full u64 range must survive.
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  EXPECT_EQ(report::json::Value(big).serialize(), "9007199254740993");
  EXPECT_EQ(report::json::Value(UINT64_MAX).serialize(),
            "18446744073709551615");
  EXPECT_EQ(report::json::Value(INT64_MIN).serialize(),
            "-9223372036854775808");

  const auto parsed = report::json::Value::parse("18446744073709551615");
  ASSERT_TRUE(parsed.is_integer());
  EXPECT_EQ(parsed.as_uint64(), UINT64_MAX);
  EXPECT_EQ(report::json::Value::parse("9007199254740993").as_uint64(), big);
  EXPECT_EQ(report::json::Value::parse("-7").as_int64(), -7);

  // Full round trip: serialize -> parse -> equal, for values where the
  // double path would already have drifted.
  for (const report::json::Value& v :
       {report::json::Value(big), report::json::Value(UINT64_MAX),
        report::json::Value(INT64_MIN)}) {
    EXPECT_EQ(report::json::Value::parse(v.serialize()), v);
  }
}

TEST(Json, NumericEqualityCrossesRepresentations) {
  using report::json::Value;
  // Same mathematical value, different alternatives.
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_EQ(Value(std::uint64_t{3}), Value(std::int64_t{3}));
  EXPECT_EQ(Value(std::uint64_t{3}), Value(3.0));
  // Not equal: sign mismatch, and an integer a double cannot hold.
  EXPECT_FALSE(Value(std::int64_t{-1}) == Value(UINT64_MAX));
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
  EXPECT_FALSE(Value(big) == Value(9007199254740992.0));
  // Fractional literals still parse as doubles and round-trip.
  const auto frac = report::json::Value::parse("0.25");
  EXPECT_FALSE(frac.is_integer());
  EXPECT_DOUBLE_EQ(frac.as_number(), 0.25);
  // Integer-valued but exponent-marked literals stay on the double path.
  EXPECT_FALSE(report::json::Value::parse("1e3").is_integer());
  EXPECT_EQ(report::json::Value::parse("1e3"), Value(1000));
  // Out-of-range integer literals fall back to double instead of failing.
  const auto huge = report::json::Value::parse("99999999999999999999999999");
  EXPECT_FALSE(huge.is_integer());
  EXPECT_DOUBLE_EQ(huge.as_number(), 1e26);
}

// ----------------------------------------------------------- campaign plan

TEST(CampaignPlan, KeyCoversConfigFields) {
  core::CampaignConfig a;
  a.year = 2004.0;
  a.scale = 0.002;
  a.seed = 42;
  core::CampaignConfig b = a;
  EXPECT_EQ(report::campaign_cache_key(a), report::campaign_cache_key(b));
  b.seed = 43;
  EXPECT_NE(report::campaign_cache_key(a), report::campaign_cache_key(b));
  b = a;
  b.with_updates = true;
  EXPECT_NE(report::campaign_cache_key(a), report::campaign_cache_key(b));
  b = a;
  b.sanitize.min_peer_ases = 1;
  EXPECT_NE(report::campaign_cache_key(a), report::campaign_cache_key(b));
}

core::CampaignConfig tiny_campaign(std::uint64_t seed, double year) {
  core::CampaignConfig config;
  config.year = year;
  config.scale = 0.002;
  config.seed = seed;
  return config;
}

/// Experiment `id` whose plan is `configs`: run requests each of them,
/// reports its atom statistics, and records the Campaign it got in
/// `seen[{id, index}]`.
Experiment planned(const char* id, std::vector<core::CampaignConfig> configs,
                   std::map<std::pair<std::string, std::size_t>,
                            const core::Campaign*>& seen) {
  Experiment e = make(id);
  e.plan = [configs](const report::Context&) { return configs; };
  e.run = [id, configs, &seen](report::Context& ctx) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const core::Campaign& c = ctx.campaign(configs[i]);
      seen[{id, i}] = &c;
      ctx.add_metric("prefixes_" + std::to_string(i),
                     static_cast<double>(c.stats.prefixes));
      ctx.add_metric("atoms_" + std::to_string(i),
                     static_cast<double>(c.stats.atoms));
    }
  };
  return e;
}

/// The report without the fields that vary with the machine: timings
/// and thread counts.
report::json::Value without_timing(const report::json::Value& v) {
  using report::json::Value;
  if (v.is_object()) {
    report::json::Object out;
    for (const auto& [key, value] : v.as_object()) {
      if (key == "wall_seconds" || key == "build_seconds" || key == "threads") {
        continue;
      }
      out.emplace_back(key, without_timing(value));
    }
    return Value(std::move(out));
  }
  if (v.is_array()) {
    report::json::Array out;
    for (const auto& item : v.as_array()) out.push_back(without_timing(item));
    return Value(std::move(out));
  }
  return v;
}

// Three experiments with overlapping plans: "a" and "c" share x, "a" and
// "b" share y. The selection's three distinct campaigns build in one pool
// batch (raced under the tsan preset), each request for a shared config
// returns the same Campaign, and the report is the same at any thread
// count.
TEST(CampaignPlan, OverlappingPlansBuildOnceAtAnyThreadCount) {
  const auto x = tiny_campaign(42, 2004.0);
  const auto y = tiny_campaign(43, 2010.0);
  const auto z = tiny_campaign(44, 2016.0);
  std::string first;
  for (const int threads : {1, 2, 8}) {
    std::map<std::pair<std::string, std::size_t>, const core::Campaign*> seen;
    Registry r;
    r.add(planned("a", {x, y}, seen));
    // "b" and "c" compare what they got with what "a" got while those
    // campaigns are still alive: "b" is y's last planned user, "c" x's.
    bool same_y = false, distinct = false, same_x = false;
    Experiment b = planned("b", {y, z}, seen);
    b.run = [&, run_b = b.run](report::Context& ctx) {
      run_b(ctx);
      same_y = seen.at({"b", 0}) == seen.at({"a", 1});
      distinct = seen.at({"a", 0}) != seen.at({"a", 1});
    };
    r.add(std::move(b));
    Experiment c = planned("c", {x}, seen);
    c.run = [&, run_c = c.run](report::Context& ctx) {
      run_c(ctx);
      same_x = seen.at({"c", 0}) == seen.at({"a", 0});
    };
    r.add(std::move(c));

    report::RunOptions options;
    options.threads = threads;
    const auto report = report::run_experiments(r.all(), options);
    EXPECT_TRUE(same_x) << threads << " threads";
    EXPECT_TRUE(same_y) << threads << " threads";
    EXPECT_TRUE(distinct) << threads << " threads";
    EXPECT_EQ(report.cache.misses(), 3u);
    EXPECT_EQ(report.cache.hits(), 2u);
    EXPECT_GE(report.cache.build_seconds, 0.0);

    const std::string doc = without_timing(report::to_json(report)).serialize();
    if (first.empty()) {
      first = doc;
    } else {
      EXPECT_EQ(doc, first) << threads << " threads";
    }
  }
}

TEST(CampaignPlan, UnplannedRequestThrowsNamingTheExperiment) {
  const auto x = tiny_campaign(42, 2004.0);
  const auto y = tiny_campaign(43, 2010.0);
  Registry r;
  Experiment e = make("rogue");
  e.plan = [x](const report::Context&) {
    return std::vector<core::CampaignConfig>{x};
  };
  e.run = [y](report::Context& ctx) { ctx.campaign(y); };
  r.add(std::move(e));
  // Without a plan, any request is unplanned.
  Experiment none = make("unplanned");
  none.run = [x](report::Context& ctx) { ctx.campaign(x); };
  r.add(std::move(none));

  report::RunOptions options;
  options.threads = 2;
  for (const auto* experiment : r.all()) {
    try {
      report::run_experiments({experiment}, options);
      ADD_FAILURE() << experiment->id << " did not throw";
    } catch (const std::logic_error& err) {
      EXPECT_NE(std::string(err.what()).find(experiment->id),
                std::string::npos)
          << err.what();
    }
  }
}

// ----------------------------------------------------------------- options

class RunOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("BGPATOMS_SCALE");
    unsetenv("BGPATOMS_SEED");
    core::reset_env_warnings_for_test();
  }
  void TearDown() override {
    unsetenv("BGPATOMS_SCALE");
    unsetenv("BGPATOMS_SEED");
    core::reset_env_warnings_for_test();
  }
};

TEST_F(RunOptionsTest, DefaultsWhenNothingIsSet) {
  const auto options = report::resolve_run_options();
  EXPECT_DOUBLE_EQ(options.scale_multiplier, 1.0);
  EXPECT_EQ(options.threads, 0);
  EXPECT_FALSE(options.seed.has_value());
  EXPECT_FALSE(options.strict_checks);
}

TEST_F(RunOptionsTest, EnvironmentIsRead) {
  setenv("BGPATOMS_SCALE", "0.25", 1);
  setenv("BGPATOMS_SEED", "99", 1);
  const auto options = report::resolve_run_options();
  EXPECT_DOUBLE_EQ(options.scale_multiplier, 0.25);
  ASSERT_TRUE(options.seed.has_value());
  EXPECT_EQ(*options.seed, 99u);
}

TEST_F(RunOptionsTest, FlagsTakePrecedenceOverEnvironment) {
  setenv("BGPATOMS_SCALE", "0.25", 1);
  setenv("BGPATOMS_SEED", "99", 1);
  const auto options =
      report::resolve_run_options(std::string("0.5"), std::string("3"),
                                  std::string("7"));
  EXPECT_DOUBLE_EQ(options.scale_multiplier, 0.5);
  EXPECT_EQ(options.threads, 3);
  EXPECT_EQ(*options.seed, 7u);
}

TEST_F(RunOptionsTest, MalformedFlagThrows) {
  EXPECT_THROW(report::resolve_run_options(std::string("0.5abc")),
               report::OptionError);
  EXPECT_THROW(report::resolve_run_options(std::nullopt, std::string("two")),
               report::OptionError);
  EXPECT_THROW(report::resolve_run_options(std::nullopt, std::string("4097")),
               report::OptionError);
  EXPECT_THROW(report::resolve_run_options(std::string("-1")),
               report::OptionError);
}

TEST_F(RunOptionsTest, MalformedEnvironmentFallsBackToDefault) {
  setenv("BGPATOMS_SCALE", "0.5abc", 1);
  const auto options = report::resolve_run_options();
  EXPECT_DOUBLE_EQ(options.scale_multiplier, 1.0);
}

// ------------------------------------------------------------- env parsing

TEST(EnvParsing, RejectsTrailingGarbageAndEmpty) {
  EXPECT_EQ(core::parse_double("0.5abc"), std::nullopt);
  EXPECT_EQ(core::parse_double("12 "), std::nullopt);
  EXPECT_EQ(core::parse_double(""), std::nullopt);
  EXPECT_DOUBLE_EQ(*core::parse_double("0.25"), 0.25);
  EXPECT_EQ(core::parse_int("4x"), std::nullopt);
  EXPECT_EQ(*core::parse_int("-4"), -4);
  EXPECT_EQ(core::parse_uint("-4"), std::nullopt);
  EXPECT_EQ(*core::parse_uint("42"), 42u);
}

}  // namespace
}  // namespace bgpatoms
