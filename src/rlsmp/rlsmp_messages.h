// RLSMP wire messages.
#pragma once

#include <vector>

#include "core/location_service.h"
#include "geom/vec2.h"
#include "net/packet.h"
#include "rlsmp/cell_grid.h"
#include "sim/time.h"
#include "util/tagged_id.h"

namespace hlsrg {

// Packet kinds live in the shared PacketKind enum (net/packet.h); RLSMP uses
// the kCellUpdate..kRlsmpBatch block.

struct CellRecord {
  VehicleId vehicle;
  Vec2 pos;
  SimTime time;
  CellCoord cell;
};

struct CellUpdatePayload final : PayloadBase {
  CellRecord record;
  CellCoord old_cell;
  bool cell_changed = false;
};

// Cell leader -> LSC summary: which vehicles are in which cell.
struct CellSummaryPayload final : PayloadBase {
  CellCoord cell;
  std::vector<CellRecord> records;
};

struct PushClaimPayload final : PayloadBase {
  CellCoord cell;
  std::int64_t period_index = 0;
};

struct LeaderHandoffPayload final : PayloadBase {
  CellCoord cell;                       // leader-duty cell
  std::vector<CellRecord> cell_records; // per-cell leader table
  bool is_lsc = false;                  // also carries cluster table?
  std::vector<CellRecord> cluster_records;
};

struct RlsmpQueryPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
  VehicleId src_vehicle;
  Vec2 src_pos;
  VehicleId target;
  // Spiral bookkeeping: cluster of origin and position in its spiral order.
  ClusterCoord origin_cluster;
  int spiral_index = 0;
  // True once an LSC resolved the cell and forwarded to the cell leader.
  bool to_cell_leader = false;
  CellCoord target_cell;  // valid when to_cell_leader
};

struct LscClaimPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
};

// "The LSC will send the aggregated query packets to others LSC": all
// queries that missed at one LSC within the waiting window travel onward in
// a single packet. Every query in a batch shares the same next-LSC hop.
struct RlsmpBatchPayload final : PayloadBase {
  std::vector<RlsmpQueryPayload> queries;
};

struct RlsmpNotifyPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
  VehicleId target;
  Vec2 src_pos;
};

}  // namespace hlsrg
