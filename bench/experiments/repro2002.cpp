// §3.2 / Appendix A8.4.1: reproduced 2002 general statistics — the check
// that validated the paper's inferred methodology (12.5K ASes, 115K
// prefixes, 26K atoms on the 2002-01-15 RRC00 snapshot).
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void run(Context& ctx) {
  const auto config = repro_2002_config(ctx);
  ctx.note_scale(config.scale);
  const auto& c = ctx.campaign(config);
  const auto& s = c.stats;

  const std::size_t vps = c.sanitized.front().vps.size();
  ctx.add_metric("vantage_points", static_cast<double>(vps),
                 "paper: 13 full-feed RRC00 peers");

  const double k = config.scale;
  ctx.add_table("counts", "", {"", "paper (scaled)", "sim"})
      .add_row({"ASes", num(12500 * k, 0), std::to_string(s.ases)})
      .add_row({"Prefixes", num(115000 * k, 0), std::to_string(s.prefixes)})
      .add_row({"Atoms", num(26000 * k, 0), std::to_string(s.atoms)});

  const double pfx_per_as = static_cast<double>(s.prefixes) / s.ases;
  const double atoms_per_as = static_cast<double>(s.atoms) / s.ases;
  ctx.add_table("ratios", "Ratios (scale-free):", {"", "paper", "sim"})
      .add_row({"prefixes / AS", "9.2", num(pfx_per_as)})
      .add_row({"atoms / AS", "2.08", num(atoms_per_as)})
      .add_row({"prefixes / atom", "4.4", num(s.mean_atom_size)});

  ctx.add_check(Check::that("13 full-feed RRC00 vantage points used",
                            vps == 13, std::to_string(vps) + " peers"));
  ctx.add_check(Check::that(
      "atoms/AS ratio near the 2002 paper value (within 50%)",
      atoms_per_as > 0.5 * 2.08 && atoms_per_as < 1.5 * 2.08,
      num(atoms_per_as), "paper 2.08"));
  ctx.add_check(Check::that(
      "prefixes/atom ratio near the 2002 paper value (within 50%)",
      s.mean_atom_size > 0.5 * 4.4 && s.mean_atom_size < 1.5 * 4.4,
      num(s.mean_atom_size), "paper 4.4"));
}

}  // namespace

void register_repro2002(Registry& registry) {
  registry.add({"repro2002", "§3.2", "Repro 2002",
                "Reproduced 2002 general statistics (RRC00, 13 peers)", run,
                repro_2002_plan});
}

}  // namespace bgpatoms::bench
