// Figure 15 (Appendix A8.4.2): reproduced 2002 update-correlation analysis
// — 4 hours of updates after the 2002-01-15 08:00 snapshot.
#include <cmath>

#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  auto config = repro_2002_config(ctx);
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
      "(" + std::to_string(corr.updates_seen) + " update records in the 4h "
      "window)",
      cols);
  auto line = [&table](const char* label, const core::PrFullCurve& curve) {
    std::vector<std::string> cells{label};
    for (int k = 2; k <= 7; ++k) {
      cells.push_back(std::isnan(curve.at(k)) ? "-" : pct(curve.at(k), 0));
    }
    table.add_row(cells);
  };
  line("Atom (with k prefixes)", corr.atom);
  line("AS (with k prefixes)", corr.as_all);

  bool atom_above = true;
  for (int k = 2; k <= 6; ++k) {
    if (!std::isnan(corr.as_all.at(k)) &&
        corr.atom.at(k) <= corr.as_all.at(k)) {
      atom_above = false;
    }
  }
  ctx.add_check(Check::that(
      "atom curve above AS curve, atoms ~50-80% at small k",
      atom_above && corr.atom.at(2) > 0.5 && corr.atom.at(2) < 0.85,
      "atom k=2: " + pct(corr.atom.at(2)), "Appendix A8.4.2"));
}

}  // namespace

void register_fig15(Registry& registry) {
  registry.add({"fig15", "§A8.4.2", "Figure 15",
                "2002 atoms vs ASes seen in full in one update", run,
                campaigns});
}

}  // namespace bgpatoms::bench
