#include "net/radio.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace hlsrg {

RadioMedium::RadioMedium(Simulator& sim, const NodeRegistry& registry,
                         RadioConfig cfg)
    : sim_(&sim), registry_(&registry), cfg_(cfg),
      index_(registry, cfg.range_m) {
  HLSRG_CHECK(cfg.range_m > 0.0);
}

double RadioMedium::loss_probability(double dist, int local_neighbors) const {
  const double frac = std::clamp(dist / cfg_.range_m, 0.0, 1.0);
  const int excess = std::max(0, local_neighbors - cfg_.contention_free_neighbors);
  const double p = cfg_.base_loss + cfg_.distance_loss * frac * frac +
                   cfg_.contention_loss_per_neighbor * excess;
  return std::clamp(p, 0.0, cfg_.max_loss);
}

double RadioMedium::loss_probability(double dist, int local_neighbors,
                                     Vec2 receiver_pos) const {
  double extra = 0.0;
  for (const RadioLossZone& z : loss_zones_) {
    if (z.box.contains(receiver_pos)) extra += z.extra_loss;
  }
  if (extra <= 0.0) return loss_probability(dist, local_neighbors);
  // Zones may exceed max_loss up to certain loss (a fully jammed region),
  // which Rng::chance resolves without a draw.
  return std::clamp(loss_probability(dist, local_neighbors) + extra, 0.0, 1.0);
}

SimTime RadioMedium::hop_delay() {
  const double ms =
      cfg_.base_delay_ms + sim_->radio_rng().uniform(0.0, cfg_.jitter_ms);
  return SimTime::from_ms(ms);
}

int RadioMedium::density_at(NodeId rx) {
  if (reference_density_) return index_.exact_density(rx);
  return index_.local_density(rx);
}

template <typename Deliver>
int RadioMedium::fan_out(NodeId sender, PacketKind pkt_kind, Deliver deliver) {
  ProfileScope profile(sim_->profiler(), "radio_broadcast");
  index_.refresh(sim_->now(), sim_->profiler());
  scratch_.clear();
  const Vec2 sp = registry_->position(sender);
  index_.query(sp, cfg_.range_m, sender, &scratch_);
  sim_->metrics().radio_broadcasts++;
  RegionTelemetry* regions = sim_->regions();
  if (regions != nullptr) ++regions->at(regions->region_of(sp)).radio_broadcasts;
  const SimTime delay = hop_delay();
  const int kind = static_cast<int>(pkt_kind);
  // Survivors are owned by the fan-out event: receiver handlers broadcast
  // again and reuse scratch_ before the walk is over.
  std::vector<NodeId> survivors;
  for (NodeId rx : scratch_) {
    sim_->metrics().channel.add_offered(kind);
    const Vec2 rp = registry_->position(rx);
    if (sim_->radio_rng().chance(
            loss_probability(distance(sp, rp), density_at(rx), rp))) {
      sim_->metrics().radio_drops++;
      sim_->metrics().channel.add_dropped(kind);
      if (regions != nullptr) {
        ++regions->at(regions->region_of(rp)).radio_dropped;
      }
      continue;
    }
    sim_->metrics().channel.add_delivered(kind);
    if (regions != nullptr) {
      ++regions->at(regions->region_of(rp)).radio_delivered;
    }
    survivors.push_back(rx);
  }
  if (!survivors.empty()) {
    sim_->schedule_after(delay, [sim = sim_, survivors = std::move(survivors),
                                 ctx = sim_->active_span(),
                                 deliver = std::move(deliver)] {
      ProfileScope walk(sim->profiler(), "radio_deliver");
      for (NodeId rx : survivors) {
        SpanScope scope(*sim, ctx);
        deliver(rx);
      }
    });
  }
  return static_cast<int>(scratch_.size());
}

int RadioMedium::broadcast(NodeId sender, const Packet& pkt) {
  auto shared = std::make_shared<const Packet>(pkt);
  return fan_out(sender, pkt.kind,
                 [registry = registry_, shared = std::move(shared),
                  sender](NodeId rx) {
                   if (PacketSink* sink = registry->sink(rx)) {
                     sink->on_receive(*shared, sender);
                   }
                 });
}

int RadioMedium::broadcast_each(NodeId sender, PacketKind kind,
                                std::function<void(NodeId)> on_deliver) {
  HLSRG_CHECK(on_deliver != nullptr);
  return fan_out(sender, kind, std::move(on_deliver));
}

void RadioMedium::try_unicast(NodeId sender, NodeId target, PacketKind pkt_kind,
                              int attempts_left,
                              std::function<void()> on_delivered,
                              std::function<void()> on_lost, SpanId span,
                              SpanId ctx) {
  ProfileScope profile(sim_->profiler(), "radio_unicast");
  index_.refresh(sim_->now(), sim_->profiler());
  const Vec2 sp = registry_->position(sender);
  const Vec2 tp = registry_->position(target);
  const double d = distance(sp, tp);
  sim_->metrics().radio_unicasts++;
  RegionTelemetry* regions = sim_->regions();
  if (regions != nullptr) ++regions->at(regions->region_of(sp)).radio_unicasts;
  const int kind = static_cast<int>(pkt_kind);
  sim_->metrics().channel.add_offered(kind);
  const std::int32_t retries_used = cfg_.unicast_retries - attempts_left;
  if (d <= cfg_.range_m) {
    const int density = density_at(target);
    if (!sim_->radio_rng().chance(loss_probability(d, density, tp))) {
      sim_->metrics().channel.add_delivered(kind);
      if (regions != nullptr) {
        ++regions->at(regions->region_of(tp)).radio_delivered;
      }
      // The receiver inherits the sender's span context across the hop.
      sim_->schedule_after(
          hop_delay(), [this, cb = std::move(on_delivered), tp, span, ctx,
                        retries_used] {
            sim_->end_span(span, SpanStatus::kOk, tp, retries_used);
            SpanScope scope(*sim_, ctx);
            cb();
          });
      return;
    }
  }
  sim_->metrics().radio_drops++;
  sim_->metrics().channel.add_dropped(kind);
  if (regions != nullptr) ++regions->at(regions->region_of(tp)).radio_dropped;
  if (attempts_left > 0) {
    sim_->schedule_after(
        SimTime::from_ms(cfg_.retry_delay_ms),
        [this, sender, target, pkt_kind, attempts_left,
         on_delivered = std::move(on_delivered),
         on_lost = std::move(on_lost), span, ctx]() mutable {
          try_unicast(sender, target, pkt_kind, attempts_left - 1,
                      std::move(on_delivered), std::move(on_lost), span, ctx);
        });
  } else {
    sim_->end_span(span, SpanStatus::kFailed, tp, retries_used);
    if (on_lost) {
      SpanScope scope(*sim_, ctx);
      on_lost();
    }
  }
}

void RadioMedium::unicast(NodeId sender, NodeId target, const Packet& pkt,
                          std::function<void()> on_lost) {
  // One immutable copy shared across the whole retry chain.
  auto shared = std::make_shared<const Packet>(pkt);
  unicast_frame(sender, target, pkt.kind,
                [registry = registry_, shared = std::move(shared), sender,
                 target] {
                  if (PacketSink* sink = registry->sink(target)) {
                    sink->on_receive(*shared, sender);
                  }
                },
                std::move(on_lost));
}

void RadioMedium::unicast_frame(NodeId sender, NodeId target, PacketKind kind,
                                std::function<void()> on_delivered,
                                std::function<void()> on_lost) {
  HLSRG_CHECK(on_delivered != nullptr);
  // One hop span covering every MAC retry; ends at reception or abandon.
  const SpanId ctx = sim_->active_span();
  const SpanId span =
      sim_->begin_span(SpanKind::kRadioHop, sender.value(), target.value(),
                       registry_->position(sender), kNoQuery, -1,
                       packet_kind_name(kind));
  try_unicast(sender, target, kind, cfg_.unicast_retries,
              std::move(on_delivered), std::move(on_lost), span, ctx);
}

void RadioMedium::neighbors_of(NodeId node, std::vector<NodeId>* out) {
  nodes_near(registry_->position(node), cfg_.range_m, node, out);
}

void RadioMedium::nodes_near(Vec2 pos, double radius, NodeId exclude,
                             std::vector<NodeId>* out) {
  HLSRG_CHECK(radius <= cfg_.range_m);
  index_.refresh(sim_->now(), sim_->profiler());
  out->clear();
  index_.query(pos, radius, exclude, out);
}

}  // namespace hlsrg
