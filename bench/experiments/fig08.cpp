// Figure 8: CDFs of atoms-per-AS and prefixes-per-atom, IPv4 vs IPv6, 2024.
#include <cmath>

#include "core/stats.h"
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig v4;
  v4.seed = ctx.seed(42);
  v4.year = 2024.75;
  v4.family = net::Family::kIPv4;
  v4.scale = ctx.scale(0.03);
  core::CampaignConfig v6 = v4;
  v6.family = net::Family::kIPv6;
  v6.scale = ctx.scale(0.06);
  return {v4, v6};
}

void run(Context& ctx) {
  const auto configs = campaigns(ctx);
  ctx.note_scale(configs[1].scale);
  const auto& v4 = ctx.campaign(configs[0]);
  const auto& v6 = ctx.campaign(configs[1]);

  const auto a4 = core::atoms_per_as_cdf(v4.atoms());
  const auto a6 = core::atoms_per_as_cdf(v6.atoms());
  const auto p4 = core::prefixes_per_atom_cdf(v4.atoms());
  const auto p6 = core::prefixes_per_atom_cdf(v6.atoms());

  auto& table = ctx.add_table("cdfs", "",
                              {"value<=", "v4 atoms/AS", "v6 atoms/AS",
                               "v4 pfx/atom", "v6 pfx/atom"});
  for (std::uint64_t v : {1, 2, 3, 5, 10, 20, 50, 100}) {
    table.add_row({std::to_string(v), pct(a4.at(v)), pct(a6.at(v)),
                   pct(p4.at(v)), pct(p6.at(v))});
  }

  ctx.add_check(Check::greater(
      "v6 has FEWER atoms per AS (CDF above v4 at 1)", a6.at(1), a4.at(1),
      pct(a6.at(1)) + " vs " + pct(a4.at(1)), "paper §5.1"));
  ctx.add_check(Check::less(
      "prefixes-per-atom distributions similar (|diff| at 2 < 15pp)",
      std::abs(p6.at(2) - p4.at(2)), 0.15,
      pct(p6.at(2)) + " vs " + pct(p4.at(2)), "paper §5.1"));
}

}  // namespace

void register_fig08(Registry& registry) {
  registry.add({"fig08", "§5.1", "Figure 8",
                "IPv4 vs IPv6 atom distributions (2024)", run, campaigns});
}

}  // namespace bgpatoms::bench
