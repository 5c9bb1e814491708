// Figure 14 (Appendix A8.4.1): 2002 distributions of atoms per AS,
// prefixes per atom and prefixes per AS.
#include "core/stats.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void run(Context& ctx) {
  const auto config = repro_2002_config(ctx);
  ctx.note_scale(config.scale);
  const auto& c = ctx.campaign(config);

  const auto atoms_as = core::atoms_per_as_cdf(c.atoms());
  const auto pfx_atom = core::prefixes_per_atom_cdf(c.atoms());
  const auto pfx_as = core::prefixes_per_as_cdf(c.atoms());

  auto& table = ctx.add_table(
      "cdfs", "", {"value<=", "atoms/AS", "prefixes/atom", "prefixes/AS"});
  for (std::uint64_t v : {1, 2, 4, 8, 16, 32, 64}) {
    table.add_row({std::to_string(v), pct(atoms_as.at(v)),
                   pct(pfx_atom.at(v)), pct(pfx_as.at(v))});
  }

  ctx.add_check(Check::that(
      "most ASes have 1 atom (~60-70%)",
      atoms_as.at(1) > 0.5 && atoms_as.at(1) < 0.8,
      pct(atoms_as.at(1)) + " at 1", "Afek et al. ~60-70%"));
  ctx.add_check(Check::that(
      "atoms/AS stochastically dominates prefixes/AS",
      atoms_as.at(4) >= pfx_as.at(4),
      pct(atoms_as.at(4)) + " vs " + pct(pfx_as.at(4)) + " at 4"));
}

}  // namespace

void register_fig14(Registry& registry) {
  registry.add({"fig14", "§A8.4.1", "Figure 14",
                "2002 CDFs: atoms/AS, prefixes/atom, prefixes/AS", run,
                repro_2002_plan});
}

}  // namespace bgpatoms::bench
