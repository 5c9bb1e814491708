#include "routing/policy_engine.h"

namespace bgpatoms::routing {

bool GaoRexfordEngine::allow_export(const RouteSource& src,
                                    bool from_is_origin, topo::NodeId from,
                                    const topo::Neighbor& to,
                                    std::uint8_t& prepend) const {
  prepend = 0;
  const UnitPolicy* policy = src.policy;
  if (policy == nullptr) return true;

  if (from_is_origin) {
    if (!policy->announce_to.empty()) {
      // announce_to stores neighbor indices; recover the index of `to`.
      const auto& nbs = graph_.node(from).neighbors;
      std::uint16_t idx = UINT16_MAX;
      for (std::uint16_t i = 0; i < nbs.size(); ++i) {
        if (&nbs[i] == &to) {
          idx = i;
          break;
        }
      }
      bool allowed = false;
      for (std::uint16_t a : policy->announce_to) {
        if (a == idx) {
          allowed = true;
          break;
        }
      }
      if (!allowed) return false;
    }
    if (policy->prepend_count > 0) {
      const auto& nbs = graph_.node(from).neighbors;
      for (std::uint16_t a : policy->prepend_to) {
        if (a < nbs.size() && &nbs[a] == &to) {
          prepend = policy->prepend_count;
          break;
        }
      }
    }
  } else if (policy->no_export) {
    return false;  // NO_EXPORT: the first AS keeps the route to itself
  }

  for (const auto& rule : policy->transit_rules) {
    if (rule.at != from) continue;
    switch (rule.kind) {
      case TransitRule::Kind::kBlockNeighbor:
        if (to.node == rule.neighbor) return false;
        break;
      case TransitRule::Kind::kBlockRegionExport:
        if (graph_.node(to.node).region == rule.region) return false;
        break;
      case TransitRule::Kind::kPrependRegionExport:
        if (graph_.node(to.node).region == rule.region) {
          prepend = static_cast<std::uint8_t>(prepend + rule.prepend);
        }
        break;
    }
  }
  return true;
}

bool GaoRexfordEngine::allow_import(const RouteSource& src,
                                    topo::NodeId node) const {
  if (rov_ == nullptr || !src.rov_invalid) return true;
  return !rov_->validating(node);
}

}  // namespace bgpatoms::routing
