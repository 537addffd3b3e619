// Flooding-baseline wire messages.
#pragma once

#include "core/location_service.h"
#include "geom/vec2.h"
#include "net/packet.h"
#include "sim/time.h"
#include "util/tagged_id.h"

namespace hlsrg {

// Packet kinds live in the shared PacketKind enum (net/packet.h); FLOOD uses
// the kFloodUpdate..kFloodAck block.

struct FloodUpdatePayload final : PayloadBase {
  VehicleId vehicle;
  Vec2 pos;
  SimTime time;
};

struct FloodProbePayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
  Vec2 src_pos;
  VehicleId target;
};

}  // namespace hlsrg
