// Wireless medium (ns-2 substitute): unit-disk radio with a loss model.
//
// Reception succeeds within `range_m` with probability 1 - p_loss, where
// p_loss grows with distance (fading) and with the receiver-side neighbor
// count (contention — more stations in earshot, more collisions). Per-hop
// latency is a base MAC/propagation floor plus uniform jitter. This is the
// minimal channel that still produces the effects the paper's evaluation
// turns on: long hops and dense areas lose packets, so multi-hop
// vehicle-to-vehicle paths across "vast areas" are unreliable while short
// hops and wired RSUs are not.
//
// Hot-path shape: a broadcast does ONE index walk (query), then one pass over
// the receivers that reads each one's cached contention density and draws its
// loss, and schedules ONE fan-out event at the shared hop delay. That event
// walks the surviving receivers in index-walk order, so dispatch order
// matches what one event per receiver gave (those events had consecutive
// sequence numbers at one timestamp, so nothing could run between them), at
// one queue slot per broadcast instead of one per receiver. Both unicast
// entry points run one kernel (try_unicast): unicast() only supplies the
// sink delivery, as broadcast() does for fan_out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geom/aabb.h"
#include "net/neighbor_index.h"
#include "net/node_registry.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace hlsrg {

struct RadioConfig {
  // Communication range; the paper uses 500 m, matched to the L1 grid edge.
  double range_m = 500.0;
  // Per-hop latency floor and uniform jitter (MAC access + serialization).
  double base_delay_ms = 1.5;
  double jitter_ms = 2.5;
  // Loss model: p = base + distance_loss * (d/R)^2 + contention excess.
  // ns-2's two-ray-ground model delivers near-deterministically inside the
  // range; most real loss is contention. The distance term stays moderate so
  // edge-of-range hops are risky but not hopeless.
  double base_loss = 0.01;
  double distance_loss = 0.15;
  double contention_loss_per_neighbor = 0.002;
  int contention_free_neighbors = 15;
  double max_loss = 0.95;
  // MAC retransmissions for unicast frames (broadcasts are never retried,
  // as in 802.11).
  int unicast_retries = 2;
  double retry_delay_ms = 1.0;
};

// Region of degraded radio reception (jamming, interference, weather): any
// reception whose receiver sits inside `box` takes `extra_loss` additional
// loss probability. Installed/cleared by the fault layer at window edges.
struct RadioLossZone {
  Aabb box;
  double extra_loss = 0.0;
};

class RadioMedium {
 public:
  RadioMedium(Simulator& sim, const NodeRegistry& registry, RadioConfig cfg);

  // One-hop broadcast to every node in range of the sender. Each receiver
  // independently passes the loss draw; survivors' sinks (looked up at
  // delivery time) get on_receive in index-walk order (cell by cell,
  // ascending NodeId within a cell), all at one shared hop delay. Returns
  // the in-range receiver count (before losses).
  int broadcast(NodeId sender, const Packet& pkt);

  // One-hop broadcast delivering to a callback instead of node sinks; the
  // geocast layer uses this to run region-limited floods with its own
  // duplicate suppression. Loss/delay semantics and delivery order match
  // broadcast(): the callback fires at reception time, once per surviving
  // receiver. `kind` feeds the per-kind channel ledger (the frame carries no
  // Packet, but the conservation auditor still covers it).
  int broadcast_each(NodeId sender, PacketKind kind,
                     std::function<void(NodeId)> on_deliver);

  // One-hop unicast with MAC retries, delivered to the target's sink (looked
  // up at delivery time). `target` must currently be in range; if it is not,
  // or every retry is lost, `on_lost` fires (if provided). A wrapper over
  // unicast_frame(): same channel semantics, span and draws.
  void unicast(NodeId sender, NodeId target, const Packet& pkt,
               std::function<void()> on_lost = {});

  // One-hop unicast of a bare frame: channel semantics (range check, loss,
  // retries, delay) without sink delivery. Routing layers use this for
  // intermediate hops so forwarders do not consume the packet; exactly one
  // of the callbacks fires, at delivery/abandon time. `kind` is the packet
  // kind the frame is carrying, for the channel ledger and the detail of
  // the kRadioHop span, which covers every retry and ends at the target's
  // position at the time of the successful (or last) attempt.
  void unicast_frame(NodeId sender, NodeId target, PacketKind kind,
                     std::function<void()> on_delivered,
                     std::function<void()> on_lost = {});

  // Nodes currently within range of `node`: nodes_near(its position).
  void neighbors_of(NodeId node, std::vector<NodeId>* out);
  // Nodes currently within range of a position (excluding `exclude`).
  void nodes_near(Vec2 pos, double radius, NodeId exclude,
                  std::vector<NodeId>* out);

  [[nodiscard]] Vec2 position(NodeId id) const { return registry_->position(id); }
  [[nodiscard]] double range() const { return cfg_.range_m; }
  [[nodiscard]] const RadioConfig& config() const { return cfg_; }
  [[nodiscard]] Simulator& sim() { return *sim_; }

  // Loss probability for a hop of length `dist` with `local_neighbors`
  // stations audible at the receiver. Exposed for tests.
  [[nodiscard]] double loss_probability(double dist, int local_neighbors) const;
  // Same, with the receiver position folded against any active loss zones.
  // With no zones this is exactly the two-argument form.
  [[nodiscard]] double loss_probability(double dist, int local_neighbors,
                                        Vec2 receiver_pos) const;

  // Replaces the active degraded-reception zones. Zero zones restores the
  // nominal channel bit-for-bit (no extra RNG draws, same loss values).
  void set_loss_zones(std::vector<RadioLossZone> zones) {
    loss_zones_ = std::move(zones);
  }
  [[nodiscard]] const std::vector<RadioLossZone>& loss_zones() const {
    return loss_zones_;
  }

  // Test seam: forces the per-receiver density recount by count_within
  // (bypassing the sub-bucket count and the per-node cache), so
  // digest-equality tests can prove the cached path is behavior-neutral.
  // Never set outside tests.
  void set_reference_density_for_test(bool on) { reference_density_ = on; }

 private:
  [[nodiscard]] SimTime hop_delay();
  // The broadcast kernel behind broadcast() and broadcast_each(): one index
  // walk, the hop-delay draw, one loss draw per in-range receiver, then at
  // most one scheduled event that calls `deliver(rx)` for each survivor in
  // walk order, with the sender's span context re-established around each
  // call. Returns the in-range receiver count.
  template <typename Deliver>
  int fan_out(NodeId sender, PacketKind kind, Deliver deliver);
  // The unicast kernel behind unicast() and unicast_frame(): one attempt's
  // range check and loss draw, then either the hop_delay() draw and one
  // event that ends `span` at the target's send-time position and runs
  // `on_delivered` under `ctx`, or a retry after retry_delay_ms while
  // attempts are left, else `span` fails and `on_lost` runs under `ctx`.
  void try_unicast(NodeId sender, NodeId target, PacketKind kind,
                   int attempts_left, std::function<void()> on_delivered,
                   std::function<void()> on_lost, SpanId span, SpanId ctx);
  // Receiver-side contention density for the loss model: the index's cached
  // sub-bucket count normally, the count_within recount under the reference
  // seam. Both are exact.
  [[nodiscard]] int density_at(NodeId rx);

  Simulator* sim_;
  const NodeRegistry* registry_;
  RadioConfig cfg_;
  NeighborIndex index_;
  std::vector<RadioLossZone> loss_zones_;
  std::vector<NodeId> scratch_;
  bool reference_density_ = false;
};

}  // namespace hlsrg
