#include "report/experiment.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "core/parallel.h"

namespace bgpatoms::report {
namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool contains_ci(std::string_view haystack, const std::string& lower_needle) {
  return lower(haystack).find(lower_needle) != std::string::npos;
}

}  // namespace

bool ExperimentResult::passed() const { return checks_failed() == 0; }

std::size_t ExperimentResult::checks_failed() const {
  std::size_t n = 0;
  for (const auto& c : checks) n += !c.passed;
  return n;
}

void Registry::add(Experiment experiment) {
  if (experiment.id.empty()) {
    throw std::invalid_argument("experiment id must not be empty");
  }
  if (find(experiment.id)) {
    throw std::invalid_argument("duplicate experiment id: " + experiment.id);
  }
  if (!experiment.run) {
    throw std::invalid_argument("experiment has no run function: " +
                                experiment.id);
  }
  experiments_.push_back(
      std::make_unique<Experiment>(std::move(experiment)));
}

const Experiment* Registry::find(std::string_view id) const {
  for (const auto& e : experiments_) {
    if (e->id == id) return e.get();
  }
  return nullptr;
}

std::vector<const Experiment*> Registry::all() const {
  std::vector<const Experiment*> out;
  out.reserve(experiments_.size());
  for (const auto& e : experiments_) out.push_back(e.get());
  return out;
}

std::vector<const Experiment*> Registry::match(
    const std::vector<std::string>& filters) const {
  if (filters.empty()) return all();
  std::vector<const Experiment*> out;
  for (const auto& e : experiments_) {
    for (const auto& f : filters) {
      const std::string needle = lower(f);
      if (contains_ci(e->id, needle) || contains_ci(e->name, needle) ||
          contains_ci(e->section, needle) || contains_ci(e->title, needle)) {
        out.push_back(e.get());
        break;
      }
    }
  }
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Context::Context(const RunOptions& options, core::TaskPool& pool,
                 const CampaignPlan& campaigns, std::size_t user,
                 ExperimentResult& result)
    : options_(options),
      pool_(pool),
      campaigns_(campaigns),
      user_(user),
      result_(result) {}

std::uint64_t Context::seed(std::uint64_t paper_seed) const {
  if (!options_.seed) return paper_seed;
  return core::derive_seed(*options_.seed, paper_seed);
}

int Context::threads() const { return pool_.thread_count(); }

const core::Campaign& Context::campaign(const core::CampaignConfig& config) {
  const core::Campaign* c = campaigns_.find(user_, config);
  if (c == nullptr) {
    throw std::logic_error("experiment " + result_.id +
                           " requested a campaign its plan does not list");
  }
  return *c;
}

std::vector<core::QuarterMetrics> Context::run_sweep(
    const std::vector<core::CampaignConfig>& configs) {
  return core::run_sweep(configs, pool_);
}

void Context::note(std::string line) {
  result_.notes.push_back(std::move(line));
}

void Context::note_scale(double scale) {
  result_.scale = scale;
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "[synthetic Internet at scale %.4f of real size; see "
                "EXPERIMENTS.md]",
                scale);
  note(buf);
}

Table& Context::add_table(std::string id, std::string title,
                          std::vector<std::string> columns) {
  Table t;
  t.id = std::move(id);
  t.title = std::move(title);
  t.columns = std::move(columns);
  result_.tables.push_back(std::move(t));
  return result_.tables.back();
}

void Context::add_metric(std::string name, double value, std::string note) {
  result_.metrics.push_back(Metric{std::move(name), value, std::move(note)});
}

void Context::add_check(Check check) {
  result_.checks.push_back(std::move(check));
}

bool RunReport::passed() const { return checks_failed() == 0; }

std::size_t RunReport::checks_failed() const {
  std::size_t n = 0;
  for (const auto& e : experiments) n += e.checks_failed();
  return n;
}

RunReport run_experiments(const std::vector<const Experiment*>& experiments,
                          const RunOptions& options) {
  RunReport report;
  report.options = options;
  core::TaskPool pool(options.threads);
  report.threads = pool.thread_count();
  CampaignPlan campaigns;

  report.experiments.resize(experiments.size());
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const Experiment& e = *experiments[i];
    ExperimentResult& result = report.experiments[i];
    result.id = e.id;
    result.section = e.section;
    result.name = e.name;
    result.title = e.title;
    result.threads = pool.thread_count();
    if (e.plan) {
      campaigns.add(i, e.plan(Context(options, pool, campaigns, i, result)));
    }
  }
  campaigns.build(pool);

  for (std::size_t i = 0; i < experiments.size(); ++i) {
    ExperimentResult& result = report.experiments[i];
    Context ctx(options, pool, campaigns, i, result);
    const auto t0 = std::chrono::steady_clock::now();
    experiments[i]->run(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    campaigns.release(i);
  }

  report.cache = campaigns.stats();
  return report;
}

json::Value to_json(const RunReport& report) {
  json::Array experiments;
  for (const auto& e : report.experiments) {
    json::Array tables;
    for (const auto& t : e.tables) {
      json::Array columns;
      for (const auto& c : t.columns) columns.emplace_back(c);
      json::Array rows;
      for (const auto& r : t.rows) {
        json::Array row;
        for (const auto& cell : r) row.emplace_back(cell);
        rows.emplace_back(std::move(row));
      }
      tables.emplace_back(json::Object{{"id", t.id},
                                       {"title", t.title},
                                       {"columns", std::move(columns)},
                                       {"rows", std::move(rows)}});
    }
    json::Array metrics;
    for (const auto& m : e.metrics) {
      metrics.emplace_back(json::Object{
          {"name", m.name}, {"value", m.value}, {"note", m.note}});
    }
    json::Array checks;
    for (const auto& c : e.checks) {
      checks.emplace_back(json::Object{{"name", c.name},
                                       {"relation", c.relation},
                                       {"observed", c.observed},
                                       {"paper", c.paper},
                                       {"passed", c.passed}});
    }
    json::Array notes;
    for (const auto& n : e.notes) notes.emplace_back(n);
    experiments.emplace_back(json::Object{{"id", e.id},
                                          {"section", e.section},
                                          {"name", e.name},
                                          {"title", e.title},
                                          {"scale", e.scale},
                                          {"threads", e.threads},
                                          {"wall_seconds", e.wall_seconds},
                                          {"notes", std::move(notes)},
                                          {"tables", std::move(tables)},
                                          {"metrics", std::move(metrics)},
                                          {"checks", std::move(checks)},
                                          {"passed", e.passed()}});
  }

  json::Object cache{
      {"campaign_hits", report.cache.campaign_hits},
      {"campaign_misses", report.cache.campaign_misses},
      {"build_seconds", report.cache.build_seconds},
  };
  return json::Value(json::Object{
      {"schema", "bgpatoms-report/1"},
      {"scale_multiplier", report.options.scale_multiplier},
      {"threads", report.threads},
      {"seed", report.options.seed
                   ? json::Value(static_cast<std::uint64_t>(*report.options.seed))
                   : json::Value(nullptr)},
      {"cache", std::move(cache)},
      {"experiments", std::move(experiments)},
      {"checks_failed", report.checks_failed()},
      {"passed", report.passed()},
  });
}

}  // namespace bgpatoms::report
