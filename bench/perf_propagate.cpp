// Microbenchmarks for the pluggable-policy Propagator: single-origin
// (the one-source run every scenario-free unit group makes), multi-origin
// MOAS selection, ROV-filtered propagation and the route-leak second
// pass, all over one generated 2024 topology.
#include <benchmark/benchmark.h>

#include <vector>

#include "routing/policy.h"
#include "routing/policy_engine.h"
#include "routing/propagation.h"
#include "routing/rov.h"
#include "topo/era.h"
#include "topo/topology.h"

using namespace bgpatoms;

namespace {

struct Substrate {
  topo::Topology topo;
  routing::PolicySet policies;
  routing::Propagator propagator;
  routing::RovState rov;

  Substrate()
      : topo(topo::generate_topology(topo::era_params_v4(2024.0, 0.02), 42)),
        policies(routing::assign_policies(topo, 42)),
        propagator(topo.graph) {
    Rng rng(42);
    for (topo::NodeId n = 0; n < topo.graph.size(); ++n) {
      if (rng.chance(0.3)) rov.set_validating(n, true);
    }
  }

  const routing::OriginUnit& unit(std::size_t i) const {
    return policies.units[i % policies.units.size()];
  }
};

const Substrate& substrate() {
  static const Substrate s;
  return s;
}

void BM_Propagate(benchmark::State& state) {
  const auto& s = substrate();
  routing::RouteTable table;
  std::size_t i = 0, reached = 0;
  for (auto _ : state) {
    const auto& u = s.unit(i++);
    s.propagator.compute(u.origin, &u.policy, table);
    reached = 0;
    for (topo::NodeId n = 0; n < s.topo.graph.size(); ++n) {
      reached += table.reachable(n);
    }
    benchmark::DoNotOptimize(reached);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.topo.graph.size()));
  state.counters["ases"] = static_cast<double>(s.topo.graph.size());
}
BENCHMARK(BM_Propagate)->Unit(benchmark::kMicrosecond);

void BM_PropagateMultiOrigin(benchmark::State& state) {
  const auto& s = substrate();
  routing::RouteTable table;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = s.unit(i);
    const auto& b = s.unit(i + 7);
    ++i;
    const routing::RouteSource sources[] = {
        {a.origin, &a.policy, false}, {b.origin, nullptr, false}};
    const routing::GaoRexfordEngine engine(s.topo.graph);
    s.propagator.compute(sources, engine, table);
    benchmark::DoNotOptimize(table.dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.topo.graph.size()));
}
BENCHMARK(BM_PropagateMultiOrigin)->Unit(benchmark::kMicrosecond);

void BM_PropagateRov(benchmark::State& state) {
  const auto& s = substrate();
  routing::RouteTable table;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& u = s.unit(i++);
    const routing::RouteSource sources[] = {{u.origin, &u.policy, true}};
    const routing::GaoRexfordEngine engine(s.topo.graph, &s.rov);
    s.propagator.compute(sources, engine, table);
    benchmark::DoNotOptimize(table.dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.topo.graph.size()));
}
BENCHMARK(BM_PropagateRov)->Unit(benchmark::kMicrosecond);

void BM_PropagateLeak(benchmark::State& state) {
  const auto& s = substrate();
  // A mid-table transit as the leaker: its learned route is re-exported
  // to providers/peers, forcing the second propagation pass every time.
  topo::NodeId leaker = topo::kNoNode;
  for (topo::NodeId n = 0; n < s.topo.graph.size(); ++n) {
    const auto tier = s.topo.graph.node(n).tier;
    if (tier == topo::Tier::kTransit) {
      leaker = n;
      break;
    }
  }
  routing::RouteTable table;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& u = s.unit(i++);
    const routing::RouteSource sources[] = {{u.origin, &u.policy, false}};
    const routing::GaoRexfordEngine engine(s.topo.graph, nullptr, leaker);
    s.propagator.compute(sources, engine, table);
    benchmark::DoNotOptimize(table.dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.topo.graph.size()));
}
BENCHMARK(BM_PropagateLeak)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
