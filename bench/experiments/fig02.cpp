// Figure 2: CDFs of atoms-per-AS (left) and prefixes-per-atom (right),
// 2004 vs 2024.
#include "core/stats.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void add_cdf_table(Context& ctx, const char* id, const char* label,
                   const core::Cdf& c2004, const core::Cdf& c2024) {
  auto& table = ctx.add_table(id, label, {"value<=", "2004 CDF", "2024 CDF"});
  for (std::uint64_t v : {1, 2, 3, 5, 10, 20, 50, 100, 500, 1000}) {
    table.add_row({std::to_string(v), pct(c2004.at(v)), pct(c2024.at(v))});
  }
}

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  return pair_2004_2024(ctx, 0.05, 0.03);
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[0].scale);
  const auto& c2004 = ctx.campaign(configs[0]);
  const auto& c2024 = ctx.campaign(configs[1]);

  const auto a04 = core::atoms_per_as_cdf(c2004.atoms());
  const auto a24 = core::atoms_per_as_cdf(c2024.atoms());
  const auto p04 = core::prefixes_per_atom_cdf(c2004.atoms());
  const auto p24 = core::prefixes_per_atom_cdf(c2024.atoms());

  add_cdf_table(ctx, "atoms_per_as",
                "Left: number of atoms in an AS (CDF over ASes)", a04, a24);
  add_cdf_table(ctx, "prefixes_per_atom",
                "Right: number of prefixes in an atom (CDF over atoms)", p04,
                p24);

  ctx.add_check(Check::less(
      "2024 ASes have MORE atoms (CDF right-shift at 2)", a24.at(2),
      a04.at(2), pct(a24.at(2)) + " vs " + pct(a04.at(2)), "paper §4.1"));
  ctx.add_check(Check::greater(
      "2024 atoms have FEWER prefixes (CDF left-shift at 2)", p24.at(2),
      p04.at(2), pct(p24.at(2)) + " vs " + pct(p04.at(2)), "paper §4.1"));
}

}  // namespace

void register_fig02(Registry& registry) {
  registry.add({"fig02", "§4.1", "Figure 2",
                "Atoms per AS and prefixes per atom, 2004 vs 2024", run,
                campaigns});
}

}  // namespace bgpatoms::bench
