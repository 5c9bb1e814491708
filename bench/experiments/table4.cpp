// Table 4: general statistics of atoms, IPv4 vs IPv6 (2024) and IPv6 2011.
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig v4;
  v4.seed = ctx.seed(42);
  v4.family = net::Family::kIPv4;
  v4.year = 2024.75;
  v4.scale = ctx.scale(0.03);
  core::CampaignConfig v6 = v4;
  v6.family = net::Family::kIPv6;
  v6.scale = ctx.scale(0.06);
  core::CampaignConfig v6_2011 = v6;
  v6_2011.year = 2011.0;
  v6_2011.scale = ctx.scale(0.5);
  return {v4, v6, v6_2011};
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[1].scale);
  const auto& v4 = ctx.campaign(configs[0]);
  const auto& v6 = ctx.campaign(configs[1]);
  const auto& v6_2011 = ctx.campaign(configs[2]);

  ctx.add_table("paper", "Paper:",
                {"", "v4 (2024)", "v6 (2024)", "v6 (2011)"})
      .add_row({"Prefixes", "1,028,444", "227,363", "4,178"})
      .add_row({"ASes", "76,672", "34,164", "2,938"})
      .add_row({"single-atom ASes", "40.4%", "65.3%", "87.1%"})
      .add_row({"Atoms", "483,117", "94,494", "3,486"})
      .add_row({"single-prefix atoms", "73.5%", "77.6%", "92.5%"})
      .add_row({"Mean atom size", "2.13", "2.41", "1.20"})
      .add_row({"99th pct atom size", "17", "20", "3"});

  auto& sim = ctx.add_table("sim", "Simulated:",
                            {"", "v4 (2024)", "v6 (2024)", "v6 (2011)"});
  const auto& a = v4.stats;
  const auto& b = v6.stats;
  const auto& c = v6_2011.stats;
  auto row3 = [&sim, &a, &b, &c](const char* label, auto get) {
    sim.add_row({label, get(a), get(b), get(c)});
  };
  row3("Prefixes", [](const auto& s) { return std::to_string(s.prefixes); });
  row3("ASes", [](const auto& s) { return std::to_string(s.ases); });
  row3("single-atom ASes",
       [](const auto& s) { return pct(s.one_atom_as_share()); });
  row3("Atoms", [](const auto& s) { return std::to_string(s.atoms); });
  row3("single-prefix atoms",
       [](const auto& s) { return pct(s.one_prefix_atom_share()); });
  row3("Mean atom size",
       [](const auto& s) { return num(s.mean_atom_size); });
  row3("99th pct atom size",
       [](const auto& s) { return std::to_string(s.p99_atom_size); });

  ctx.add_check(Check::greater(
      "v6 mean atom size grew 2011 -> 2024", b.mean_atom_size,
      c.mean_atom_size, num(c.mean_atom_size) + " -> " + num(b.mean_atom_size),
      "paper 1.20 -> 2.41"));
  ctx.add_check(Check::greater(
      "v6 2024 mean atom size comparable to v4 (>= 90%)", b.mean_atom_size,
      0.9 * a.mean_atom_size,
      num(b.mean_atom_size) + " vs " + num(a.mean_atom_size),
      "paper 2.41 vs 2.13 (v6 larger)"));
  ctx.add_check(Check::less(
      "v6 single-atom-AS share fell from ~87%", b.one_atom_as_share(),
      c.one_atom_as_share(),
      arrow_pct(c.one_atom_as_share(), b.one_atom_as_share()),
      "paper 87.1% -> 65.3%"));
  ctx.add_metric("fiti_ases", static_cast<double>(v6.era.fiti_ases),
                 "FITI burst single-prefix /32 ASes injected (2021+)");
}

}  // namespace

void register_table4(Registry& registry) {
  registry.add({"table4", "§5.1", "Table 4",
                "General statistics: IPv4 vs IPv6", run, campaigns});
}

}  // namespace bgpatoms::bench
