// Figure 10: likelihood of atoms/ASes seen in full in one update, IPv6 2024.
#include <cmath>

#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  core::CampaignConfig config;
  config.family = net::Family::kIPv6;
  config.year = 2024.75;
  config.scale = ctx.scale(0.05);
  config.seed = ctx.seed(42);
  config.with_updates = true;
  return {config};
}

void run(Context& ctx) {
  const auto config = campaigns(ctx).front();
  ctx.note_scale(config.scale);
  const auto& c = ctx.campaign(config);
  const auto& corr = *c.correlation;

  std::vector<std::string> cols{"prefixes in entity (k):"};
  for (int k = 2; k <= 7; ++k) cols.push_back(std::to_string(k));
  auto& table = ctx.add_table(
      "curves",
      "(" + std::to_string(corr.updates_seen) + " update records)", cols);
  auto line = [&table](const char* label, const core::PrFullCurve& curve) {
    std::vector<std::string> cells{label};
    for (int k = 2; k <= 7; ++k) {
      cells.push_back(std::isnan(curve.at(k)) ? "-" : pct(curve.at(k), 0));
    }
    table.add_row(cells);
  };
  line("Atom (with k prefixes)", corr.atom);
  line("AS (with k prefixes)", corr.as_all);
  line("AS (with at least one atom of size > 1)", corr.as_multi);
  line("AS (with all single-prefix-atoms)", corr.as_single);

  bool atom_above = true;
  for (int k = 2; k <= 6; ++k) {
    if (!std::isnan(corr.as_all.at(k)) &&
        corr.atom.at(k) <= corr.as_all.at(k)) {
      atom_above = false;
    }
  }
  ctx.add_check(Check::that(
      "atom curve consistently above the AS curve", atom_above,
      "k=2: " + pct(corr.atom.at(2), 0) + " vs " + pct(corr.as_all.at(2), 0),
      "paper §5.3"));
}

}  // namespace

void register_fig10(Registry& registry) {
  registry.add({"fig10", "§5.3", "Figure 10",
                "IPv6 atoms vs ASes seen in full in one update (2024)", run,
                campaigns});
}

}  // namespace bgpatoms::bench
