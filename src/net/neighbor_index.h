// Spatial hash over node positions for O(1) neighborhood queries.
//
// Cell size equals the radio range, so a range query touches at most the
// 3x3 cell block around the query point. The index is rebuilt lazily, keyed
// on the registry's position generation and node count alone. Positions are
// pushed into the registry, and every write batch that should become visible
// bumps the generation (the world's pose bridge bumps on each on_moved), so
// a build stays valid until the next bump however far the clock advances;
// broadcasts between two mobility ticks share one build and its cached
// densities. A rebuild after a bump visits only the nodes in the registry's
// position-write log since the last build (NodeRegistry::writes_since),
// bumped or not, so it costs O(moved), not O(N); a reader that fell behind
// the log rescans every node. The cell table is an open-addressing flat map
// (util/flat_table.h).
//
// Each range-sized cell holds two views of its members:
//  - an ascending-id list. Every lookup — query() and count_within() — runs
//    one private 3x3 cell walk (for_each_block_cell) over these lists: cell
//    by cell, ascending ids within a cell. query() returns receivers in that
//    order, and the radio draws their losses in it, so the walk order is
//    part of every digest;
//  - kSplit x kSplit sub-buckets of side cell/kSplit, each holding its
//    members' positions contiguously. A node that stays in its sub-bucket is
//    updated in place.
//
// local_density(id) is the exact number of other nodes within one cell size
// (the radio range) of id, the count the radio loss model consumes per
// receiver (RadioMedium::density_at). It is computed on the sub-buckets of
// the same 3x3 block: a sub-bucket wholly inside the disk adds its
// population, one wholly outside adds nothing, and only the members of the
// sub-buckets that cross the circle are distance-tested, with the same
// `distance2(q, p) <= r2` as count_within. Both geometric tests are padded
// by a rounding margin, so rounding can only demote a sub-bucket to
// "crossing", never promote it, and the count equals count_within exactly.
// Densities are cached per node until the next rebuild.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "net/node_registry.h"
#include "sim/time.h"
#include "util/flat_table.h"
#include "util/tagged_id.h"

namespace hlsrg {

class PhaseProfiler;

class NeighborIndex {
 public:
  NeighborIndex(const NodeRegistry& registry, double cell_size)
      : registry_(&registry), cell_(cell_size) {}
  // perfbench/perfbench.cpp still passes the radio's contention threshold;
  // the exact density no longer needs it, so it is ignored.
  NeighborIndex(const NodeRegistry& registry, double cell_size,
                int /*ignored*/)
      : NeighborIndex(registry, cell_size) {}

  // Ensures the index reflects the registry's positions as of its current
  // position generation: rebuilds only when the generation or the node count
  // changed since the last build. `now` does not affect the result (a write
  // without a bump stays invisible however far the clock advances); it is
  // kept so callers that pass the clock keep compiling. A non-null profiler
  // times the rebuild path (the cheap staleness check is never profiled).
  void refresh(SimTime now, PhaseProfiler* profiler = nullptr);

  // Appends all nodes within `radius` of `p` (excluding `exclude` if valid)
  // to `out`, in walk order. Caller must refresh() first.
  void query(Vec2 p, double radius, NodeId exclude,
             std::vector<NodeId>* out) const;

  // Number of nodes within `radius` of `p`, excluding `exclude`: the
  // distance-filtered count over the 3x3 walk.
  [[nodiscard]] int count_within(Vec2 p, double radius, NodeId exclude) const;

  // Contention density at node `id`: the number of other stations within
  // one cell size of its indexed position, counted on the sub-buckets and
  // equal to exact_density(id). Cached per node until the next rebuild.
  [[nodiscard]] std::int32_t local_density(NodeId id);

  // The same count by count_within, bypassing the sub-buckets and the
  // per-node cache: the reference the equivalence tests hold
  // local_density() to.
  [[nodiscard]] std::int32_t exact_density(NodeId id) const {
    return count_within(cached_pos_[id.index()], cell_, id);
  }

 private:
  // Sub-buckets per cell axis. 2 measured faster than 4 and 8: finer
  // sub-cells cost more to classify than the distance tests they save.
  static constexpr int kSplit = 2;

  struct SubBucket {
    std::vector<Vec2> pos;    // member positions, contiguous for the count
    std::vector<NodeId> ids;  // the node in each pos slot
  };
  struct Cell {
    std::uint64_t key = 0;
    std::vector<NodeId> nodes;  // ascending ids: the walk order
    std::array<SubBucket, kSplit * kSplit> sub;
  };
  // Where a node sits: cells_ index, sub-bucket within the cell, and slot
  // within the sub-bucket.
  struct Place {
    std::uint32_t cell = 0;
    std::uint32_t sub = 0;
    std::uint32_t slot = 0;
  };

  // Cells keyed by packed (x, y) 32-bit coordinates; value indexes cells_.
  [[nodiscard]] static std::uint64_t pack(std::int32_t x, std::int32_t y) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(y));
  }
  // Cell key and sub-bucket of position `p`.
  void bin(Vec2 p, std::uint64_t* key, std::uint32_t* sub) const;

  // Cell at `key`, or nullptr when no node ever entered it.
  [[nodiscard]] const Cell* cell_at(std::uint64_t key) const;
  // cells_ index of the cell at `key`, created on demand.
  std::uint32_t cell_slot(std::uint64_t key);

  // The one 3x3 walk: calls fn(cell, dx, dy) for each existing cell of the
  // range-sized block around `p`, column by column (dx outer, dy inner).
  template <typename Fn>
  void for_each_block_cell(Vec2 p, Fn&& fn) const;
  // fn(id) for every node of that walk within `radius` of `p`, bar `exclude`.
  template <typename Fn>
  void for_each_within(Vec2 p, double radius, NodeId exclude, Fn&& fn) const;

  void rebuild_full();
  // Re-indexes node `i` at its registry position: in place when its
  // sub-bucket is unchanged, else between sub-buckets (and, on a cell
  // change, between the sorted cell lists).
  void move_node(std::size_t i);
  void insert_sub(std::size_t i, Vec2 p, std::uint32_t cell, std::uint32_t sub);
  void erase_sub(std::size_t i);
  [[nodiscard]] std::int32_t compute_density(NodeId id) const;

  const NodeRegistry* registry_;
  double cell_;

  // Cell table: packed key -> index into cells_. Cell records are recycled
  // across rebuilds (their vectors keep capacity); the set of occupied
  // cells is bounded by map area / cell^2 and never shrinks within a run.
  OpenAddressMap<std::uint64_t, std::uint32_t> cell_index_;
  std::vector<Cell> cells_;

  std::vector<Vec2> cached_pos_;
  std::vector<Place> place_;

  // Per-node density cache, valid while density_stamp_[i] == stamp_.
  std::vector<std::int32_t> density_;
  std::vector<std::uint64_t> density_stamp_;
  std::uint64_t stamp_ = 0;

  std::uint64_t built_generation_ = ~std::uint64_t{0};
  // Registry write_seq() as of the last build.
  std::uint64_t built_writes_ = 0;
};

}  // namespace hlsrg
