// Wired RSU backhaul.
//
// The paper wires every Level-2 RSU to its Level-3 RSU and every Level-3 RSU
// to its four compass neighbors, and treats the wired plane as fast and
// reliable. We model links with a fixed per-hop latency and route messages
// over the shortest wired path (BFS), counting each traversed link as one
// wired message. The fault layer (src/fault) can take individual nodes and
// links down; sends that then find no path are dropped at the edge — and
// accounted through the packet ledger so conservation audits still balance.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/node_registry.h"
#include "sim/simulator.h"

namespace hlsrg {

struct WiredConfig {
  double link_latency_ms = 1.0;
};

class WiredNetwork {
 public:
  WiredNetwork(Simulator& sim, const NodeRegistry& registry,
               WiredConfig cfg = {});

  // Adds a bidirectional link; idempotent.
  void connect(NodeId a, NodeId b);

  // Sends `pkt` from `from` to `to` over the shortest wired path. Delivery
  // invokes to's PacketSink after hops * link_latency. Returns false if no
  // wired path exists (disjoint graph, cut link, or down endpoint); the
  // failed send is still offered+dropped in the ledger and counted in
  // RunMetrics::wired_drops.
  bool send(NodeId from, NodeId to, const Packet& pkt,
            std::uint64_t* tx_counter = nullptr);

  // Wired hop count between two nodes, or -1 if unconnected. Results are
  // served from a per-source BFS cache that is invalidated whenever the
  // topology changes (connect / node or link state flips).
  [[nodiscard]] int hop_count(NodeId from, NodeId to) const;

  [[nodiscard]] const std::vector<NodeId>& links_of(NodeId n) const;

  // Every undirected link once, as (a, b) with a.value() < b.value(), sorted.
  // Enumeration order is deterministic; used by the fault layer to cut the
  // links crossing a partition boundary.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> links() const;

  // --- fault state (driven by src/fault) ---------------------------------
  // A down node neither originates, relays, nor receives wired messages; a
  // down link is skipped by routing. Both are reversible.
  void set_node_up(NodeId n, bool up);
  void set_link_up(NodeId a, NodeId b, bool up);
  [[nodiscard]] bool node_up(NodeId n) const {
    return !down_nodes_.contains(n.value());
  }
  [[nodiscard]] bool link_up(NodeId a, NodeId b) const {
    return !down_links_.contains(link_key(a, b));
  }

 private:
  [[nodiscard]] static std::uint64_t link_key(NodeId a, NodeId b) {
    const std::uint64_t lo = a.value() < b.value() ? a.value() : b.value();
    const std::uint64_t hi = a.value() < b.value() ? b.value() : a.value();
    return (lo << 32) | hi;
  }
  // Full single-source BFS distances honoring down nodes/links; cached.
  [[nodiscard]] const std::unordered_map<NodeId, int>& distances_from(
      NodeId from) const;
  void invalidate_cache() { bfs_cache_.clear(); }

  Simulator* sim_;
  const NodeRegistry* registry_;
  WiredConfig cfg_;
  // Always-on backhaul path-length histogram ("wired.message_hops").
  Histogram* hops_hist_;
  std::unordered_map<NodeId, std::vector<NodeId>> adjacency_;
  std::unordered_set<std::uint64_t> down_nodes_;  // NodeId::value()
  std::unordered_set<std::uint64_t> down_links_;  // link_key()
  // Distance maps per BFS source, rebuilt lazily after topology edits.
  mutable std::unordered_map<NodeId, std::unordered_map<NodeId, int>>
      bfs_cache_;
  std::vector<NodeId> empty_;
};

}  // namespace hlsrg
