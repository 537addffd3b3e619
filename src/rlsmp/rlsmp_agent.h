// Per-vehicle RLSMP behaviour: cell-crossing updates, cell-leader duty,
// LSC duty (cluster table, query election, spiral forwarding), and the
// Sv/Dv ends of the query handshake (timer and ACK through the tracker).
#pragma once

#include "net/node_registry.h"
#include "rlsmp/cell_grid.h"
#include "rlsmp/rlsmp_messages.h"
#include "sim/event_queue.h"
#include "sim/expiring_table.h"
#include "util/flat_table.h"

namespace hlsrg {

class RlsmpService;

class RlsmpVehicleAgent final : public PacketSink {
 public:
  RlsmpVehicleAgent(RlsmpService& service, VehicleId vehicle, NodeId node);

  void on_receive(const Packet& packet, NodeId from) override;

  // Mobility hook: detects cell crossings and leader-region transitions.
  void handle_moved(Vec2 before, Vec2 after);

  // Periodic cell-leader aggregation check (scheduled by the service).
  void aggregation_tick(std::int64_t period_index);

  void start_query(QueryTracker::QueryId qid, VehicleId target);

  // Introspection for tests.
  [[nodiscard]] bool in_leader_region() const { return in_leader_; }
  [[nodiscard]] bool lsc_duty() const;
  [[nodiscard]] std::size_t cell_table_size() const { return cell_table_.size(); }
  [[nodiscard]] std::size_t cluster_table_size() const {
    return cluster_table_.size();
  }
  [[nodiscard]] std::size_t table_bytes() const {
    return cell_table_.bytes() + cluster_table_.bytes();
  }

 private:
  using QueryId = QueryTracker::QueryId;

  void send_cell_update(CellCoord old_cell, CellCoord new_cell);
  // Bootstrap announcement (same ignition-time update HLSRG vehicles send).
  void send_initial_update();
  void leave_leader_region();
  void purge_tables();

  // LSC query path.
  void handle_lsc_query(const Packet& packet);
  void lsc_win_election(QueryId qid, const RlsmpQueryPayload& query);
  // Queues an unresolved query for the aggregation window; the window timer
  // flushes the whole batch to the next LSC in one packet.
  void enqueue_for_spiral(const RlsmpQueryPayload& query);
  void flush_spiral_batch();

  // Cell-leader notification path.
  void handle_cell_leader_query(const RlsmpQueryPayload& query);

  RlsmpService* svc_;
  VehicleId vehicle_;
  NodeId node_;

  bool in_leader_ = false;
  CellCoord leader_cell_;
  // Per-cell leader table (full records).
  ExpiringTable<CellRecord> cell_table_;
  // Cluster table, populated only while on LSC duty.
  ExpiringTable<CellRecord> cluster_table_;

  std::int64_t heard_push_period_ = -1;

  // Flat agent-local bookkeeping (a handful of live entries per vehicle;
  // DESIGN.md §15).
  SmallFlatMap<QueryId, EventHandle> elections_;
  // Unresolved queries awaiting the aggregation window, grouped by the
  // spiral hop they will take next (spiral_index already advanced).
  std::vector<RlsmpQueryPayload> spiral_batch_;
  bool spiral_timer_armed_ = false;
  SortedIdSet<QueryId> settled_elections_;
  SortedIdSet<QueryId> relayed_requests_;
  // Batch packets already relayed into the LSC region, keyed by packet id.
  SortedIdSet<std::uint32_t> relayed_batches_;
  SortedIdSet<QueryId> handled_notify_forwards_;
};

}  // namespace hlsrg
