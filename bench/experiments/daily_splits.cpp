#include "experiments/daily_splits.h"

#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/atoms.h"
#include "core/sanitize.h"
#include "core/splits.h"
#include "routing/simulator.h"
#include "topo/era.h"
#include "topo/topology.h"

namespace bgpatoms::bench {
namespace {

DailySplitCampaign compute(int days, double scale, std::uint64_t seed,
                           int threads) {
  routing::SimOptions opt;
  opt.seed = seed;
  opt.weekly_churn = false;
  const auto era = topo::era_params_v4(2019.0, scale);
  opt.daily_event_rate = era.split_events_per_day;
  routing::Simulator sim(topo::generate_topology(era, seed), opt);

  DailySplitCampaign out;
  std::deque<core::SanitizedSnapshot> snaps;
  std::deque<core::AtomSet> atom_sets;
  core::AtomOptions atom_options;
  atom_options.threads = threads;

  for (int day = 0; day < days; ++day) {
    sim.advance_to(day * routing::kDay);
    const std::size_t idx = sim.capture();
    snaps.push_back(core::sanitize(sim.dataset(), idx));
    atom_sets.push_back(core::compute_atoms(snaps.back(), atom_options));
    if (atom_sets.size() < 3) continue;

    const auto events = core::detect_splits(
        atom_sets[atom_sets.size() - 3], atom_sets[atom_sets.size() - 2],
        atom_sets[atom_sets.size() - 1]);
    std::vector<std::size_t> counts;
    std::vector<net::Asn> singles;
    for (const auto& ev : events) {
      counts.push_back(ev.observers.size());
      if (ev.observers.size() == 1) {
        singles.push_back(ev.observers[0].asn);
      }
    }
    out.observers_per_day.push_back(std::move(counts));
    out.single_observer_asn_per_day.push_back(std::move(singles));

    // Rolling window: drop state older than three days. Snapshots must be
    // dropped from the back of the window only after the AtomSets that
    // reference them are gone.
    if (atom_sets.size() > 3) {
      atom_sets.pop_front();
      snaps.pop_front();
      sim.drop_snapshot(0);
    }
  }
  return out;
}

}  // namespace

const DailySplitCampaign& run_daily_splits(int days, double scale,
                                           std::uint64_t seed, int threads) {
  using Key = std::tuple<int, std::uint64_t, std::uint64_t>;
  static std::mutex mu;
  static std::map<Key, std::unique_ptr<DailySplitCampaign>> memo;

  std::uint64_t scale_bits = 0;
  std::memcpy(&scale_bits, &scale, sizeof scale_bits);
  const Key key{days, scale_bits, seed};
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = memo.find(key);
    if (it != memo.end()) return *it->second;
  }
  auto fresh = std::make_unique<DailySplitCampaign>(
      compute(days, scale, seed, threads));
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = memo[key];
  if (!slot) slot = std::move(fresh);
  return *slot;
}

}  // namespace bgpatoms::bench
