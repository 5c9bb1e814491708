// Table 5 (Appendix A8.3): abnormal BGP peers detected and removed.
//
// The simulator injects the same three fault classes the paper documents
// (ADD-PATH-incompatible peers on RouteViews-style collectors, one
// private-ASN injector, duplicate-prefix emitters); this experiment shows
// the sanitizer finding all of them from the data alone.
#include "experiments/common.h"
#include "experiments/experiments.h"

namespace bgpatoms::bench {
namespace {

/// The campaigns run() requests, in request order.
std::vector<core::CampaignConfig> campaigns(const Context& ctx) {
  // 2022 era: ADD-PATH breakage + the private-ASN injector window closed
  // in early 2023, so both fault classes are present.
  core::CampaignConfig config;
  config.year = 2022.0;
  config.scale = ctx.scale(0.03);
  config.seed = ctx.seed(42);
  return {config};
}

void run(Context& ctx) {
  const auto config = campaigns(ctx).front();
  ctx.note_scale(config.scale);

  ctx.note(
      "Paper (Appendix A8.3): peers of 5 ASNs removed —\n"
      "  AS136557, AS57695, AS42541, AS47065  (ADD-PATH artifacts)\n"
      "  AS25885                               (AS65000 injection)\n"
      "  plus peers with >10% duplicate prefixes");

  const auto& c = ctx.campaign(config);
  const auto& report = c.sanitized.front().report;
  const auto& vps = c.topology.vantage_points;

  auto& table = ctx.add_table(
      "removed",
      "Simulated detection (" + std::to_string(report.peers_in) +
          " peers in, " + std::to_string(report.full_feed_peers) +
          " full-feed kept):",
      {"peer", "reason", "artifact share"});
  std::size_t abnormal = 0;
  for (const auto& removed : report.removed_peers) {
    if (removed.reason == core::PeerRemovalReason::kPartialFeed) continue;
    table.add_row({"AS" + std::to_string(removed.peer.asn),
                   core::to_string(removed.reason),
                   pct(removed.artifact_share)});
    ++abnormal;
  }

  // Ground truth from the fault-injection flags.
  std::size_t injected = 0;
  for (const auto& vp : vps) {
    injected += vp.addpath_broken + vp.private_asn_injector +
                vp.duplicate_emitter;
  }
  ctx.add_metric("injected_faulty_peers", static_cast<double>(injected));
  ctx.add_metric("detected_abnormal_peers", static_cast<double>(abnormal));
  ctx.add_metric("records_dropped_corrupt",
                 static_cast<double>(report.records_dropped_corrupt));
  ctx.add_check(Check::that(
      "sanitizer finds every injected faulty peer", injected == abnormal,
      "injected " + std::to_string(injected) + ", detected " +
          std::to_string(abnormal),
      "paper removed peers of 5 ASNs"));
}

}  // namespace

void register_table5(Registry& registry) {
  registry.add({"table5", "§A8.3", "Table 5",
                "Abnormal BGP peers removed from the analysis", run,
                campaigns});
}

}  // namespace bgpatoms::bench
