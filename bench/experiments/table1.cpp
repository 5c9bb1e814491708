// Table 1: general statistics of policy atoms, Jan 2004 vs Oct 2024.
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

void add_stats_table(Context& ctx, const char* id, const char* label,
                     const core::GeneralStats& s) {
  ctx.add_table(id, label, {"", ""})
      .add_row({"Number of prefixes", std::to_string(s.prefixes)})
      .add_row({"Number of ASes", std::to_string(s.ases)})
      .add_row({"Number of ASes with one atom",
                std::to_string(s.ases_with_one_atom) + " (" +
                    pct(s.one_atom_as_share()) + ")"})
      .add_row({"Number of atoms", std::to_string(s.atoms)})
      .add_row({"Number of atoms with one prefix",
                std::to_string(s.atoms_with_one_prefix) + " (" +
                    pct(s.one_prefix_atom_share()) + ")"})
      .add_row({"Mean atom size", num(s.mean_atom_size)})
      .add_row({"99th percentile of atom size",
                std::to_string(s.p99_atom_size)})
      .add_row({"Largest atom size", std::to_string(s.largest_atom_size)});
}

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  return pair_2004_2024(ctx, 0.05, 0.03);
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  const double scale04 = configs[0].scale, scale24 = configs[1].scale;
  ctx.note_scale(scale04);
  const auto& c2004 = ctx.campaign(configs[0]);
  const auto& c2024 = ctx.campaign(configs[1]);

  ctx.add_table("paper", "Paper (real Internet):",
                {"", "Jan 2004", "Oct 2024"})
      .add_row({"Prefixes", "131,526", "1,028,444"})
      .add_row({"ASes", "16,490", "76,672"})
      .add_row({"ASes w/ one atom", "59.5%", "40.4%"})
      .add_row({"Atoms", "34,261", "483,117"})
      .add_row({"Atoms w/ one prefix", "57.7%", "73.5%"})
      .add_row({"Mean atom size", "3.84", "2.13"})
      .add_row({"99th pct atom size", "40", "17"})
      .add_row({"Largest atom", "1,020", "3,072"});

  add_stats_table(ctx, "sim2004", "Simulated Jan 2004:", c2004.stats);
  add_stats_table(ctx, "sim2024", "Simulated Oct 2024:", c2024.stats);

  // Headline growth factors (scale-free comparison with the paper).
  const auto& s04 = c2004.stats;
  const auto& s24 = c2024.stats;
  const double prefix_growth =
      (s24.prefixes / scale24) / (s04.prefixes / scale04);
  const double atom_growth = (s24.atoms / scale24) / (s04.atoms / scale04);
  const double atoms_per_as_growth =
      (static_cast<double>(s24.atoms) / s24.ases) /
      (static_cast<double>(s04.atoms) / s04.ases);
  const double size_ratio = s24.mean_atom_size / s04.mean_atom_size;
  ctx.add_table("growth",
                "Growth factors, 2004 -> 2024 (scale-normalized):",
                {"", "paper", "sim"})
      .add_row({"prefixes", "7.8x", num(prefix_growth, 1) + "x"})
      .add_row({"atoms", "14.1x", num(atom_growth, 1) + "x"})
      .add_row({"atoms per AS", "3.0x", num(atoms_per_as_growth, 1) + "x"})
      .add_row({"mean atom size", "0.55x", num(size_ratio, 2) + "x"});

  // §4.1's headline: strong fragmentation (atoms outgrow prefixes) while
  // giant atoms survive.
  ctx.add_check(Check::greater("atoms grow faster than prefixes",
                               atom_growth, prefix_growth,
                               num(atom_growth, 1) + "x vs " +
                                   num(prefix_growth, 1) + "x",
                               "paper 14.1x vs 7.8x"));
  ctx.add_check(Check::less("mean atom size shrinks", size_ratio, 1.0,
                            num(size_ratio, 2) + "x",
                            "paper 0.55x"));
  ctx.add_check(Check::greater(
      "giant atoms survive in 2024 (largest >> p99)",
      static_cast<double>(s24.largest_atom_size),
      2.5 * static_cast<double>(s24.p99_atom_size),
      std::to_string(s24.largest_atom_size) + " vs p99 " +
          std::to_string(s24.p99_atom_size),
      "paper 3,072 vs 17"));
}

}  // namespace

void register_table1(Registry& registry) {
  registry.add({"table1", "§4.1", "Table 1",
                "General statistics of atoms in 2004 and 2024", run,
                campaigns});
}

}  // namespace bgpatoms::bench
