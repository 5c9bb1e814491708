// Scenario engine end-to-end: a campaign with scheduled origin hijacks,
// a sub-prefix hijack and a route leak is compared capture-by-capture
// against the identical campaign with the scenario engine off. The t0
// snapshot must be untouched (incidents start no earlier than +2h), the
// +8h snapshot must show the perturbation (every incident is still live
// there), and the +1w snapshot must be back to baseline (every incident
// has a bounded lifetime well inside the week).
#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

/// One content hash per path id of the path's origin-first AS runs. Path
/// ids are NOT comparable across runs (the scenario run interns attacker
/// paths mid-campaign), so records compare paths through this hash.
std::vector<std::uint64_t> path_run_hashes(const bgp::Dataset& ds) {
  std::vector<std::uint64_t> out(ds.paths.size());
  for (std::size_t id = 0; id < out.size(); ++id) {
    const auto hops = ds.paths.get(static_cast<net::PathPool::PathId>(id))
                          .hops();
    std::uint64_t h = kFnvOffset;
    for (std::size_t end = hops.size(); end > 0;) {
      std::size_t begin = end - 1;
      while (begin > 0 && hops[begin - 1] == hops[end - 1]) --begin;
      mix(h, hops[end - 1]);
      mix(h, end - begin);
      end = begin;
    }
    out[id] = h;
  }
  return out;
}

/// Sorted order- and pool-independent signatures of the RIB records in
/// `snapshot`: the peer session, the prefix id (stable across the two
/// runs — overlay prefixes are appended after the shared base plan) and
/// the path's run hash from path_run_hashes.
std::vector<std::uint64_t> snapshot_signature(
    const bgp::Dataset& ds, const std::vector<std::uint64_t>& path_hash,
    std::size_t snapshot) {
  std::vector<std::uint64_t> sig;
  const bgp::Snapshot& snap = ds.snapshots[snapshot];
  sig.reserve(bgp::Dataset::record_count(snap));
  for (const auto& feed : snap.peers) {
    std::uint64_t peer = kFnvOffset;
    mix(peer, feed.peer.asn);
    mix(peer, feed.peer.collector);
    mix(peer, feed.peer.address.hi());
    mix(peer, feed.peer.address.lo());
    for (const auto& rec : feed.records) {
      std::uint64_t h = peer;
      mix(h, rec.prefix);
      mix(h, path_hash[rec.path]);
      sig.push_back(h);
    }
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// Records present in exactly one of the two snapshots (symmetric
/// difference of the signature multisets).
std::size_t differing_records(const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b) {
  std::size_t diff = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i, ++j;
    } else if (a[i] < b[j]) {
      ++i, ++diff;
    } else {
      ++j, ++diff;
    }
  }
  return diff + (a.size() - i) + (b.size() - j);
}

/// RIB records in `snapshot` per origin AS, for each AS of the sorted
/// `asns`, in one pass.
std::vector<std::size_t> records_by_origin(const bgp::Dataset& ds,
                                           std::size_t snapshot,
                                           const std::vector<net::Asn>& asns) {
  std::vector<std::size_t> counts(asns.size());
  for (const auto& feed : ds.snapshots[snapshot].peers) {
    for (const auto& rec : feed.records) {
      const auto origin = ds.paths.get(rec.path).origin();
      if (!origin) continue;
      const auto it = std::lower_bound(asns.begin(), asns.end(), *origin);
      if (it != asns.end() && *it == *origin) {
        ++counts[static_cast<std::size_t>(it - asns.begin())];
      }
    }
  }
  return counts;
}

const char* kind_name(routing::ScenarioKind kind) {
  switch (kind) {
    case routing::ScenarioKind::kOriginHijack: return "origin hijack";
    case routing::ScenarioKind::kSubPrefixHijack: return "sub-prefix hijack";
    case routing::ScenarioKind::kRouteLeak: return "route leak";
  }
  return "?";
}

/// The baseline campaign, then the same campaign with the scheduled
/// incidents.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig config;
  config.year = 2020.0;
  config.scale = ctx.scale(0.08);
  config.seed = ctx.seed(2077);
  config.with_stability = true;  // captures at t0 / +8h / +24h / +1w

  core::CampaignConfig attacked = config;
  attacked.scenario.origin_hijacks = 2;
  attacked.scenario.subprefix_hijacks = 2;
  attacked.scenario.route_leaks = 1;
  return {config, attacked};
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[0].scale);
  const core::Campaign& base = ctx.campaign(configs[0]);
  const core::Campaign& scen = ctx.campaign(configs[1]);
  const bgp::Dataset* datasets[] = {&base.dataset(), &scen.dataset()};
  core::TaskPool& pool = ctx.pool();
  ctx.note("Same seed, same topology: the only difference between the two "
           "campaigns is the scheduled incidents.");

  // -- incident schedule ------------------------------------------------
  auto& incidents = ctx.add_table(
      "incidents", "Scheduled incidents",
      {"kind", "actor AS", "start", "end", "leaked units"});
  bool starts_in_window = true;
  bool ends_inside_week = true;
  std::size_t hijacks = 0;
  for (const auto& inc : scen.incidents) {
    const double start_h = static_cast<double>(inc.start) / 3600.0;
    const double end_h = static_cast<double>(inc.end) / 3600.0;
    incidents.add_row(
        {kind_name(inc.kind),
         std::to_string(scen.topology.graph.node(inc.actor).asn),
         fmt("+%.1fh", start_h), fmt("+%.1fh", end_h),
         inc.kind == routing::ScenarioKind::kRouteLeak
             ? std::to_string(inc.affected.size())
             : "-"});
    starts_in_window = starts_in_window && inc.start >= 2 * 3600 &&
                       inc.start < 6 * 3600;
    ends_inside_week = ends_inside_week && inc.end > 8 * 3600 &&
                       inc.end < 7 * 24 * 3600;
    if (inc.kind != routing::ScenarioKind::kRouteLeak) ++hijacks;
  }
  ctx.add_check(Check::that(
      "incidents were scheduled",
      scen.incidents.size() >= 3 && hijacks >= 2,
      std::to_string(scen.incidents.size()) + " incidents",
      ">= 3 (2 origin hijacks survive; sub-prefix may drop on collision)"));
  ctx.add_check(Check::that(
      "incident starts fall in the configured window", starts_in_window,
      "all starts in [+2h, +6h)", "first_start + start_spread"));
  ctx.add_check(Check::that(
      "incident lifetimes are bounded inside the campaign week",
      ends_inside_week, "all ends in (+8h, +1w)", "mean_duration 30h"));

  // -- capture-by-capture comparison against baseline -------------------
  const char* const capture_names[] = {"t0", "+8h", "+24h", "+1w"};
  auto& captures = ctx.add_table(
      "captures", "RIB capture vs the scenario-free baseline",
      {"capture", "baseline records", "scenario records", "differing"});
  std::size_t diffs[4] = {};
  std::vector<std::uint64_t> path_hash[2];
  pool.run(2, [&](std::size_t i) {
    path_hash[i] = path_run_hashes(*datasets[i]);
  });
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<std::uint64_t> sig[2];
    pool.run(2, [&](std::size_t i) {
      sig[i] = snapshot_signature(*datasets[i], path_hash[i], s);
    });
    diffs[s] = differing_records(sig[0], sig[1]);
    captures.add_row({capture_names[s], std::to_string(sig[0].size()),
                      std::to_string(sig[1].size()),
                      std::to_string(diffs[s])});
  }
  ctx.add_check(Check::that(
      "t0 capture is untouched by scheduled incidents", diffs[0] == 0,
      std::to_string(diffs[0]) + " differing records", "0"));
  ctx.add_check(Check::that(
      "+8h capture shows the perturbation", diffs[1] > 0,
      std::to_string(diffs[1]) + " differing records", "> 0"));
  ctx.add_check(Check::that(
      "+1w capture is back to baseline (all incidents resolved)",
      diffs[3] == 0, std::to_string(diffs[3]) + " differing records", "0"));

  // -- attacker visibility ----------------------------------------------
  // At +8h every hijack is live: the attacker's ASN must originate more
  // RIB records than it does in the baseline (where it only originates
  // its own prefixes). At +1w the counts must match again.
  std::vector<net::Asn> attackers;
  for (const auto& inc : scen.incidents) {
    if (inc.kind == routing::ScenarioKind::kRouteLeak) continue;
    attackers.push_back(scen.topology.graph.node(inc.actor).asn);
  }
  std::sort(attackers.begin(), attackers.end());
  attackers.erase(std::unique(attackers.begin(), attackers.end()),
                  attackers.end());
  const auto base_8h = records_by_origin(base.dataset(), 1, attackers);
  const auto seen_8h = records_by_origin(scen.dataset(), 1, attackers);
  const auto base_1w = records_by_origin(base.dataset(), 3, attackers);
  const auto seen_1w = records_by_origin(scen.dataset(), 3, attackers);
  std::size_t extra_8h = 0, extra_1w = 0;
  for (const auto& inc : scen.incidents) {
    if (inc.kind == routing::ScenarioKind::kRouteLeak) continue;
    const net::Asn asn = scen.topology.graph.node(inc.actor).asn;
    const auto k = static_cast<std::size_t>(
        std::lower_bound(attackers.begin(), attackers.end(), asn) -
        attackers.begin());
    extra_8h += seen_8h[k] > base_8h[k] ? seen_8h[k] - base_8h[k] : 0;
    extra_1w += seen_1w[k] > base_1w[k] ? seen_1w[k] - base_1w[k] : 0;
  }
  ctx.add_metric("hijacked_origin_records_8h",
                 static_cast<double>(extra_8h),
                 "attacker-originated records above baseline at +8h");
  ctx.add_check(Check::that(
      "hijacked origins are visible at vantage points at +8h",
      extra_8h > 0, std::to_string(extra_8h) + " extra records", "> 0"));
  ctx.add_check(Check::that(
      "hijacked origins are gone at +1w", extra_1w == 0,
      std::to_string(extra_1w) + " extra records", "0"));

  // -- stability context -------------------------------------------------
  if (base.stability_8h && scen.stability_8h && base.stability_1w &&
      scen.stability_1w) {
    auto& stability = ctx.add_table(
        "stability", "Atom stability under incidents",
        {"window", "baseline CAM", "scenario CAM"});
    stability.add_row({"8h", pct(base.stability_8h->cam),
                       pct(scen.stability_8h->cam)});
    stability.add_row({"1w", pct(base.stability_1w->cam),
                       pct(scen.stability_1w->cam)});
  }
}

}  // namespace

void register_scenario_hijack(Registry& registry) {
  registry.add({"scenario_hijack", "scenario", "Scenario (hijack)",
                "Hijacks and route leaks perturb mid-campaign captures "
                "and resolve",
                run, campaigns});
}

}  // namespace bgpatoms::bench
