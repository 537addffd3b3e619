// HLSRG wire messages (packet kinds and payloads).
//
// Field sets mirror the paper's table schemas: an L1 update carries full
// detail {location, time, direction, L1 grid, id}; L2 summaries carry
// {vehicle id, time, sender L1 grid}; L3 summaries {vehicle id, time, sender
// L2 RSU} (we keep the grid coordinate, which identifies the L2 RSU).
#pragma once

#include <vector>

#include "core/location_service.h"
#include "geom/vec2.h"
#include "grid/hierarchy.h"
#include "net/packet.h"
#include "sim/time.h"
#include "util/tagged_id.h"

namespace hlsrg {

// Packet kinds live in the shared PacketKind enum (net/packet.h); HLSRG uses
// the kLocationUpdate..kAck block.

// Full L1 record for one vehicle (paper: "location, time, direction, Level 1
// grid number and ID").
struct L1Record {
  VehicleId vehicle;
  Vec2 pos;
  Vec2 dir;  // unit heading when the update was sent
  SimTime time;
  GridCoord l1;
  // True if the update was sent from a selected main artery; selects the
  // notification strategy (corridor vs grid-region geocast).
  bool on_artery = false;
};

struct UpdatePayload final : PayloadBase {
  L1Record record;
  // Grid transition info so old-grid centers can evict the vehicle.
  GridCoord old_l1;
  bool grid_changed = false;
};

// Table handoff within the intersection and table push to the L2 RSU share
// a payload: a snapshot of full L1 records for one grid.
struct TablePayload final : PayloadBase {
  GridCoord l1;
  std::vector<L1Record> records;
};

// L2 table entry schema.
struct L2Summary {
  VehicleId vehicle;
  SimTime time;
  GridCoord l1;  // sender L1 grid
};

struct L2SummaryPayload final : PayloadBase {
  GridCoord l2;
  std::vector<L2Summary> records;
};

// L3 table entry schema; owner_l3 says which L3 region holds the detail.
struct L3Summary {
  VehicleId vehicle;
  SimTime time;
  GridCoord l2;       // sender L2 RSU
  GridCoord owner_l3; // L3 region of that L2
};

struct L3GossipPayload final : PayloadBase {
  std::vector<L3Summary> records;
};

struct QueryPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
  // Source-side attempt number (1 = to nearest level center, 2 = the 5 s
  // fallback straight to the L3 RSU). Deduplication keys include it so the
  // fallback is not swallowed by first-attempt bookkeeping.
  int attempt = 1;
  VehicleId src_vehicle;
  Vec2 src_pos;
  VehicleId target;
  // True when this request is an L3->L3 forward (such requests are answered
  // from the receiver's own table and never re-forwarded sideways).
  bool from_l3 = false;
  // First L2 RSU that forwarded the request upward; the answering RSU sends
  // a kCacheFill back here so the hot-destination cache warms on the reverse
  // path. Invalid when the request never crossed an L2 RSU.
  NodeId via_rsu;

  // Deduplication key distinguishing retry attempts of the same query.
  [[nodiscard]] std::uint64_t dedup_key() const {
    return (static_cast<std::uint64_t>(query_id) << 8) |
           static_cast<std::uint64_t>(attempt & 0xff);
  }
};

// Service-tier batching window (kQueryBatch): co-destined requests held at
// an L2/L3 RSU and flushed as one wired lookup. The receiver unbatches and
// runs each request through its normal dedup + handling path.
struct BatchedQueryPayload final : PayloadBase {
  VehicleId target;
  std::vector<QueryPayload> queries;
};

// Service-tier cache fill (kCacheFill): the answering RSU hands the record
// it served back to the first L2 RSU on the query's path.
struct CacheFillPayload final : PayloadBase {
  L1Record record;
};

// Role handoff (kRoleHandoff): a departing L2/L3 role host ships its whole
// table state to the elected successor (radio unicast) or, when no successor
// exists, to the parent/sibling RSU absorbing the orphaned region (wired).
// Receivers merge the snapshots through the normal newer-wins table paths,
// so a handoff that races fresh updates never resurrects stale records.
struct RoleHandoffPayload final : PayloadBase {
  RsuId role;            // logical role whose tables are being handed off
  GridLevel level = GridLevel::kL2;
  std::vector<L1Record> full_records;
  std::vector<L2Summary> l2_records;
  std::vector<L3Summary> l3_records;

  [[nodiscard]] std::size_t record_count() const {
    return full_records.size() + l2_records.size() + l3_records.size();
  }
};

struct ServerClaimPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
  int attempt = 1;
  [[nodiscard]] std::uint64_t dedup_key() const {
    return (static_cast<std::uint64_t>(query_id) << 8) |
           static_cast<std::uint64_t>(attempt & 0xff);
  }
};

struct NotificationPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
  VehicleId target;
  Vec2 src_pos;
};

}  // namespace hlsrg
