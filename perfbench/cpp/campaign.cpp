#include "bgp/dataset.h"
#include "routing/simulator.h"
#include "topo/era.h"
#include "topo/topology.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpatoms;

std::unique_ptr<routing::Simulator> simulate_campaign(
    std::uint64_t seed, bool with_updates, Recorder& rec,
    std::map<std::string, double>& counts) {
  constexpr double kYear = 2024.75;
  constexpr double kScale = 0.01;
  // The AS graph, prefix plan and vantage points stay the same for every
  // seed, so the amount of work (records per capture, matrix size) does
  // not vary with it; the seed drives the simulator: churn schedule,
  // update stream and fault-injection draws.
  constexpr std::uint64_t kTopologySeed = 1;
  const topo::EraParams era = topo::era_params_v4(kYear, kScale);

  topo::Topology topology;
  {
    Scope s(rec, "topo.generate");
    topology = topo::generate_topology(era, kTopologySeed);
  }
  routing::SimOptions options;
  options.seed = seed;
  options.weekly_churn = true;  // the +8h/+24h/+1w captures see churn
  std::unique_ptr<routing::Simulator> sim;
  {
    Scope s(rec, "routing.init");
    sim = std::make_unique<routing::Simulator>(std::move(topology), options);
  }
  auto capture = [&] {
    Scope s(rec, "routing.capture");
    sim->capture();
  };
  auto advance = [&](bgp::Timestamp t) {
    Scope s(rec, "routing.advance");
    sim->advance_to(t);
  };

  capture();
  if (with_updates) {
    Scope s(rec, "routing.emit_updates");
    sim->emit_updates(4 * routing::kHour);
  }
  for (const bgp::Timestamp t :
       {8 * routing::kHour, routing::kDay, routing::kWeek}) {
    advance(t);
    capture();
  }

  const bgp::Dataset& ds = sim->dataset();
  double rib = 0;
  for (const auto& snap : ds.snapshots) {
    rib += static_cast<double>(bgp::Dataset::record_count(snap));
  }
  count(counts, "routing.rib_records", rib);
  count(counts, "routing.update_records", static_cast<double>(ds.updates.size()));
  return sim;
}

}  // namespace perfbench
