// Drives a FaultPlan against a live world.
//
// arm() schedules one event per window edge on the sim clock; each edge
// flips the affected component's state — wired node/link up-down, the radio
// medium's loss zones, the RSU agents via a hook the harness installs (the
// fault library must not depend on core). All randomness (GPS noise) comes
// from the simulator's dedicated fault stream (or a plan-pinned seed split
// from it), so an armed plan never perturbs mobility/radio/workload draw
// order, and a plan with no windows schedules nothing at all — zero-fault
// runs stay event-for-event identical to fault-unaware builds.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "infra/rsu_grid.h"
#include "net/radio.h"
#include "net/wired.h"
#include "sim/simulator.h"

namespace hlsrg {

class FaultInjector {
 public:
  FaultInjector(Simulator& sim, const FaultPlan& plan, WiredNetwork* wired,
                RadioMedium* medium, const RsuGrid* rsus);

  // Called with (rsu, up) at crash (up=false) and reboot (up=true) edges.
  // Install before arm() fires the first edge.
  void set_rsu_hook(std::function<void(RsuId, bool)> hook) {
    rsu_hook_ = std::move(hook);
  }

  // Called once per churn window at its begin edge with the window and the
  // injector's fault RNG (for the per-vehicle depart_fraction draws, so
  // burst departures never touch the mobility stream). Install before arm().
  void set_churn_hook(std::function<void(const FaultWindow&, Rng&)> hook) {
    churn_hook_ = std::move(hook);
  }

  // Schedules every window edge at or before `horizon`. Call once.
  void arm(SimTime horizon);

  // True when any fault window (of any kind) is active at `t`.
  [[nodiscard]] bool fault_active_at(SimTime t) const;

  // End times of every finite window, for time-to-recovery accounting.
  [[nodiscard]] std::vector<SimTime> finite_window_ends() const;

  // GPS reading for a vehicle truly at `p`: adds uniform per-axis noise in
  // [-sigma, +sigma] while an applicable gps_noise window is active (the
  // widest sigma wins when windows overlap), otherwise returns `p` without
  // touching the RNG.
  [[nodiscard]] Vec2 observed_pos(Vec2 p);

  [[nodiscard]] bool has_gps_noise() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  void apply(std::size_t window_index, bool begin);
  void refresh_loss_zones();
  // RSUs addressed by a window: (level, col, row), col < 0 = whole level.
  [[nodiscard]] std::vector<RsuId> rsus_matching(const FaultWindow& w) const;

  Simulator* sim_;
  FaultPlan plan_;
  WiredNetwork* wired_;
  RadioMedium* medium_;
  const RsuGrid* rsus_;
  std::function<void(RsuId, bool)> rsu_hook_;
  std::function<void(const FaultWindow&, Rng&)> churn_hook_;
  Rng rng_;
  std::vector<char> active_;  // per-window active flag
  // Links a partition window took down, to restore at its end edge.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> cut_links_;
};

}  // namespace hlsrg
