#include "fault/fault_injector.h"

#include <algorithm>

#include "util/check.h"

namespace hlsrg {

FaultInjector::FaultInjector(Simulator& sim, const FaultPlan& plan,
                             WiredNetwork* wired, RadioMedium* medium,
                             const RsuGrid* rsus)
    : sim_(&sim), plan_(plan), wired_(wired), medium_(medium), rsus_(rsus),
      // A pinned fault seed replays identical fault randomness across
      // replica-seed sweeps; either way the draws come off the fault stream.
      // HLSRG_LINT_ALLOW(rng-discipline): fault_seed != 0 is an explicit
      // user override that must bypass the world streams by design.
      rng_(plan.fault_seed != 0 ? Rng(plan.fault_seed)
                                : sim.fault_rng().split(RngStreamId::kFault)),
      active_(plan_.windows.size(), 0),
      cut_links_(plan_.windows.size()) {}

void FaultInjector::arm(SimTime horizon) {
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    if (w.begin > horizon) continue;
    sim_->schedule_at(w.begin, [this, i] { apply(i, /*begin=*/true); });
    if (!w.open_ended() && w.end <= horizon) {
      sim_->schedule_at(w.end, [this, i] { apply(i, /*begin=*/false); });
    }
  }
}

bool FaultInjector::fault_active_at(SimTime t) const {
  return std::any_of(plan_.windows.begin(), plan_.windows.end(),
                     [t](const FaultWindow& w) { return w.active_at(t); });
}

std::vector<SimTime> FaultInjector::finite_window_ends() const {
  std::vector<SimTime> out;
  for (const FaultWindow& w : plan_.windows) {
    if (!w.open_ended()) out.push_back(w.end);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool FaultInjector::has_gps_noise() const {
  return std::any_of(
      plan_.windows.begin(), plan_.windows.end(),
      [](const FaultWindow& w) { return w.kind == FaultKind::kGpsNoise; });
}

Vec2 FaultInjector::observed_pos(Vec2 p) {
  double sigma = 0.0;
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    if (active_[i] == 0 || w.kind != FaultKind::kGpsNoise) continue;
    if (w.has_box && !w.box.contains(p)) continue;
    sigma = std::max(sigma, w.sigma_m);
  }
  if (sigma <= 0.0) return p;
  return {p.x + rng_.uniform(-sigma, sigma),
          p.y + rng_.uniform(-sigma, sigma)};
}

std::vector<RsuId> FaultInjector::rsus_matching(const FaultWindow& w) const {
  std::vector<RsuId> out;
  if (rsus_ == nullptr) return out;
  const GridLevel level = w.level == 2 ? GridLevel::kL2 : GridLevel::kL3;
  for (const RsuGrid::Rsu& r : rsus_->all()) {
    if (r.level != level) continue;
    if (w.col >= 0 && (r.coord.col != w.col || r.coord.row != w.row)) continue;
    out.push_back(r.id);
  }
  return out;
}

void FaultInjector::refresh_loss_zones() {
  if (medium_ == nullptr) return;
  std::vector<RadioLossZone> zones;
  for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
    const FaultWindow& w = plan_.windows[i];
    if (active_[i] != 0 && w.kind == FaultKind::kRadioLoss) {
      zones.push_back({w.box, w.extra_loss});
    }
  }
  medium_->set_loss_zones(std::move(zones));
}

void FaultInjector::apply(std::size_t window_index, bool begin) {
  const FaultWindow& w = plan_.windows[window_index];
  active_[window_index] = begin ? 1 : 0;
  const bool up = !begin;
  switch (w.kind) {
    case FaultKind::kRsuCrash:
      for (RsuId id : rsus_matching(w)) {
        if (wired_ != nullptr) wired_->set_node_up(rsus_->rsu(id).node, up);
        if (rsu_hook_) rsu_hook_(id, up);
      }
      break;
    case FaultKind::kLinkCut: {
      if (wired_ == nullptr || rsus_ == nullptr) break;
      const NodeId a = rsus_->node_at(GridCoord{w.col, w.row},
                                      w.level == 2 ? GridLevel::kL2
                                                   : GridLevel::kL3);
      const NodeId b = rsus_->node_at(GridCoord{w.peer_col, w.peer_row},
                                      w.peer_level == 2 ? GridLevel::kL2
                                                        : GridLevel::kL3);
      wired_->set_link_up(a, b, up);
      break;
    }
    case FaultKind::kPartition: {
      if (wired_ == nullptr || medium_ == nullptr) break;
      if (begin) {
        // Cut every wired link with exactly one endpoint inside the box;
        // links() is deterministic, so so is the cut set.
        auto& cuts = cut_links_[window_index];
        cuts.clear();
        for (const auto& [a, b] : wired_->links()) {
          const bool a_in = w.box.contains(medium_->position(a));
          const bool b_in = w.box.contains(medium_->position(b));
          if (a_in == b_in) continue;
          if (!wired_->link_up(a, b)) continue;  // already down: not ours
          wired_->set_link_up(a, b, false);
          cuts.emplace_back(a, b);
        }
      } else {
        for (const auto& [a, b] : cut_links_[window_index]) {
          wired_->set_link_up(a, b, true);
        }
        cut_links_[window_index].clear();
      }
      break;
    }
    case FaultKind::kRadioLoss:
      refresh_loss_zones();
      break;
    case FaultKind::kGpsNoise:
      break;  // the active_ flag is the whole mechanism
    case FaultKind::kChurn:
      // Burst departure is an edge event, not a state: the hook fires once
      // at begin (the end edge only clears the active_ flag, which keeps
      // fault_active_at honest for availability-under-churn windows).
      if (begin && churn_hook_) churn_hook_(w, rng_);
      break;
  }
}

}  // namespace hlsrg
