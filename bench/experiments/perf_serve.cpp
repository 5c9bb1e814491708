// Query-layer serving perf: drive a large randomized query mix through
// the exact ServeState::handle() the bga_serve socket loop runs —
// in-process, so the numbers are the handler cost without kernel/socket
// noise — and report per-op p50/p99 latency plus QPS.
//
// Correctness is asserted before speed: every AtomIndex fingerprint must
// equal core::partition_fingerprint() of the batch AtomSet it was built
// from, a sampled slice of replies is re-derived against a linear-scan
// longest-match oracle over the sanitized snapshot (matched prefix AND
// atom id must agree with compute_atoms' atom_of), and replaying the
// whole mix at 8 threads must produce byte-identical replies to the
// 1-thread run (handle() is a pure function of the request).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/parallel.h"
#include "experiments/common.h"
#include "experiments/experiments.h"
#include "net/hash.h"
#include "query/serve.h"
#include "report/json.h"

namespace bgpatoms::bench {
namespace {

/// Full-scale query volume; scaled by the multiplier with a floor that
/// keeps percentiles meaningful at smoke scales.
constexpr std::size_t kQueriesFullScale = 1'000'000;
constexpr std::size_t kQueriesFloor = 50'000;
constexpr std::size_t kOracleSample = 2'000;

struct QueryPlan {
  std::vector<std::string> requests;
  /// Indices of lookup/equiv requests re-derivable against the oracle,
  /// with the rows they target (kMiss for the random-address misses).
  struct Probe {
    std::size_t request = 0;
    char op = 'l';               // 'l' lookup, 'e' equiv
    std::uint32_t row_a = 0;     // sampled prefix row (lookup: the query)
    std::uint32_t row_b = 0;     // equiv only
  };
  std::vector<Probe> probes;
};

/// Deterministic randomized mix: ~70% lookup (mostly stored prefixes,
/// some bare addresses, some guaranteed-unstored addresses), ~15% equiv,
/// ~10% history, ~5% stats. Everything derives from the seeded engine,
/// so the plan — and therefore every reply — is a pure function of
/// (campaign, seed).
QueryPlan make_plan(const core::SanitizedSnapshot& snap, std::size_t n,
                    std::uint64_t seed) {
  using report::json::Object;
  using report::json::Value;
  QueryPlan plan;
  plan.requests.reserve(n);
  std::mt19937_64 rng(seed);
  const auto rows = static_cast<std::uint32_t>(snap.prefixes.size());
  auto prefix_str = [&](std::uint32_t row) {
    return snap.prefix(snap.prefixes[row]).to_string();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t dice = rng() % 100;
    if (dice < 70) {
      const auto row = static_cast<std::uint32_t>(rng() % rows);
      const std::uint64_t form = rng() % 10;
      std::string q;
      if (form < 6) {
        q = prefix_str(row);  // exact stored prefix: must match itself
      } else if (form < 9) {
        q = snap.prefix(snap.prefixes[row]).address().to_string();
      } else {
        // The simulator never allocates class-E space, so this address
        // exercises the miss path (the oracle confirms, not assumes).
        q = "240." + std::to_string(rng() % 256) + "." +
            std::to_string(rng() % 256) + ".1";
      }
      plan.requests.push_back(
          Value(Object{{"op", Value("lookup")}, {"q", Value(q)}}).serialize());
      if (form < 6) plan.probes.push_back({i, 'l', row, 0});
    } else if (dice < 85) {
      const auto a = static_cast<std::uint32_t>(rng() % rows);
      const auto b = static_cast<std::uint32_t>(rng() % rows);
      plan.requests.push_back(Value(Object{{"op", Value("equiv")},
                                           {"a", Value(prefix_str(a))},
                                           {"b", Value(prefix_str(b))}})
                                  .serialize());
      plan.probes.push_back({i, 'e', a, b});
    } else if (dice < 95) {
      const auto row = static_cast<std::uint32_t>(rng() % rows);
      plan.requests.push_back(
          Value(Object{{"op", Value("history")}, {"q", Value(prefix_str(row))}})
              .serialize());
    } else {
      plan.requests.push_back(Value(Object{{"op", Value("stats")}}).serialize());
    }
  }
  return plan;
}

/// ns percentile of an unsorted latency sample (nth_element, destructive).
double percentile_ns(std::vector<std::uint64_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      p * static_cast<double>(ns.size() - 1) + 0.5);
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]);
}

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig config;
  config.year = 2024.75;
  config.scale = ctx.scale(0.02);
  config.seed = ctx.seed(7700);
  config.with_stability = true;  // 4 snapshots: history/equiv have depth
  return {config};
}

void run(Context& ctx) {
  const auto config = campaigns(ctx).front();
  ctx.note_scale(config.scale);
  const auto& campaign = ctx.campaign(config);

  // Freeze every captured snapshot's batch atoms into the query layer.
  query::Timeline timeline;
  for (std::size_t i = 0; i < campaign.atom_sets.size(); ++i) {
    timeline.add("snap" + std::to_string(i),
                 std::make_shared<query::AtomIndex>(
                     query::AtomIndex::build(campaign.atom_sets[i])));
  }
  const std::size_t n_snapshots = timeline.size();

  // Fingerprint identity: the index must carry the exact canonical
  // digest of the batch partition it froze.
  bool fingerprints_match = true;
  for (std::size_t i = 0; i < n_snapshots; ++i) {
    fingerprints_match &= timeline.fingerprint(i) ==
                          core::partition_fingerprint(campaign.atom_sets[i]);
  }

  const query::ServeState state{std::move(timeline)};
  const auto& latest = campaign.atom_sets.back();
  const auto& snap = *latest.snapshot;

  const std::size_t n_queries =
      std::max(kQueriesFloor,
               static_cast<std::size_t>(static_cast<double>(kQueriesFullScale) *
                                        ctx.scale_multiplier()));
  const QueryPlan plan = make_plan(snap, n_queries, ctx.seed(7701));

  // Timed pass 1 — single thread, per-request latency.
  std::vector<std::uint64_t> latency_ns(n_queries);
  std::vector<std::uint64_t> digest_1t(n_queries);
  const auto t1_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_queries; ++i) {
    const auto q0 = std::chrono::steady_clock::now();
    const auto reply = state.handle(plan.requests[i]);
    const auto q1 = std::chrono::steady_clock::now();
    latency_ns[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(q1 - q0).count());
    digest_1t[i] = fnv1a64(reply.body);
  }
  const double t_1t = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t1_start)
                          .count();

  // Timed pass 2 — the same plan at 8 threads; replies must be
  // byte-identical (digest per request position).
  std::vector<std::uint64_t> digest_8t(n_queries);
  const auto t8_start = std::chrono::steady_clock::now();
  core::parallel_for(n_queries, 8, [&](std::size_t i) {
    digest_8t[i] = fnv1a64(state.handle(plan.requests[i]).body);
  });
  const double t_8t = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t8_start)
                          .count();
  const bool threads_identical = digest_1t == digest_8t;

  // Oracle pass (untimed): re-derive a sample of replies from first
  // principles — linear scan for the longest stored prefix covering the
  // query, compute_atoms' atom_of for the atom id.
  std::size_t checked = 0, agreed = 0;
  const std::size_t stride =
      std::max<std::size_t>(1, plan.probes.size() / kOracleSample);
  for (std::size_t pi = 0; pi < plan.probes.size(); pi += stride) {
    const auto& probe = plan.probes[pi];
    const auto reply = state.handle(plan.requests[probe.request]);
    const auto doc = report::json::Value::parse(reply.body);
    ++checked;
    auto atom_of = [&](std::uint32_t row) {
      return latest.atom_of.at(snap.prefixes[row]);
    };
    if (probe.op == 'l') {
      // An exact stored-prefix query's longest covering stored prefix is
      // itself; assert the full resolution path end to end.
      const auto& want = snap.prefix(snap.prefixes[probe.row_a]);
      const auto* matched = doc.find("matched");
      const auto* atom = doc.find("atom");
      agreed += matched != nullptr && atom != nullptr &&
                matched->as_string() == want.to_string() &&
                atom->as_uint64() == atom_of(probe.row_a);
    } else {
      const bool want = atom_of(probe.row_a) == atom_of(probe.row_b);
      const auto* equivalent = doc.find("equivalent");
      agreed += equivalent != nullptr && equivalent->as_bool() == want;
    }
  }

  const double p50 = percentile_ns(latency_ns, 0.50);
  const double p99 = percentile_ns(latency_ns, 0.99);
  const double qps_1t = t_1t > 0 ? static_cast<double>(n_queries) / t_1t : 0.0;
  const double qps_8t = t_8t > 0 ? static_cast<double>(n_queries) / t_8t : 0.0;

  ctx.add_table("serving", "", {"threads", "queries", "seconds", "qps"})
      .add_row({"1", std::to_string(n_queries), fmt("%.3f", t_1t),
                fmt("%.0f", qps_1t)})
      .add_row({"8", std::to_string(n_queries), fmt("%.3f", t_8t),
                fmt("%.0f", qps_8t)});
  ctx.add_metric("prefixes", static_cast<double>(snap.prefixes.size()));
  ctx.add_metric("snapshots", static_cast<double>(n_snapshots));
  ctx.add_metric("queries", static_cast<double>(n_queries));
  ctx.add_metric("latency_p50_ns", p50);
  ctx.add_metric("latency_p99_ns", p99);
  ctx.add_metric("qps_1t", qps_1t);
  ctx.add_metric("qps_8t", qps_8t);

  ctx.add_check(Check::that(
      "index fingerprints equal core::partition_fingerprint",
      fingerprints_match, std::to_string(n_snapshots) + " snapshots"));
  ctx.add_check(Check::that(
      "replies byte-identical at thread counts {1, 8}", threads_identical,
      std::to_string(n_queries) + " replies"));
  ctx.add_check(Check::that(
      "sampled replies agree with the linear-scan oracle", agreed == checked,
      std::to_string(agreed) + "/" + std::to_string(checked)));
}

}  // namespace

void register_perf_serve(Registry& registry) {
  registry.add({"perf_serve", "perf", "Perf (query serving)",
                "ServeState::handle: randomized query mix, p50/p99 + QPS",
                run, campaigns});
}

}  // namespace bgpatoms::bench
