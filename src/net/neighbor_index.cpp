#include "net/neighbor_index.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"
#include "util/check.h"

namespace hlsrg {

namespace {

// Rounding margin of the sub-bucket classification, as a fraction of the
// cell size. A node can sit a few ulps of its coordinate outside the
// nominal bounds of the sub-bucket it was binned into (p / cell rounds), and
// those bounds round too when the cell size is not a dyadic fraction; this
// margin exceeds both by orders of magnitude for any coordinate below
// 1e6 cell sizes, and is far too small to cost a distance test.
constexpr double kMargin = 1e-9;

}  // namespace

void NeighborIndex::bin(Vec2 p, std::uint64_t* key,
                        std::uint32_t* sub) const {
  const double tx = p.x / cell_;
  const double ty = p.y / cell_;
  const double fx = std::floor(tx);
  const double fy = std::floor(ty);
  // t - floor(t) is in [0, 1) but may round up to 1 for tiny negative t.
  const auto part = [](double frac) {
    return std::min(static_cast<std::uint32_t>(frac * kSplit),
                    static_cast<std::uint32_t>(kSplit - 1));
  };
  *key = pack(static_cast<std::int32_t>(fx), static_cast<std::int32_t>(fy));
  *sub = part(tx - fx) * kSplit + part(ty - fy);
}

const NeighborIndex::Cell* NeighborIndex::cell_at(std::uint64_t key) const {
  const std::uint32_t* slot = cell_index_.find(key);
  return slot == nullptr ? nullptr : &cells_[*slot];
}

std::uint32_t NeighborIndex::cell_slot(std::uint64_t key) {
  const std::uint32_t next = static_cast<std::uint32_t>(cells_.size());
  const std::uint32_t slot = cell_index_.find_or_insert(key, next);
  if (slot == next) cells_.emplace_back().key = key;
  return slot;
}

void NeighborIndex::refresh(SimTime /*now*/, PhaseProfiler* profiler) {
  const std::uint64_t generation = registry_->position_generation();
  if (built_generation_ == generation &&
      cached_pos_.size() == registry_->count()) {
    return;
  }
  ProfileScope scope(profiler, "neighbor_index_rebuild");
  ++stamp_;  // invalidates every cached density
  if (cached_pos_.size() == registry_->count() && !cached_pos_.empty()) {
    if (const auto written = registry_->writes_since(built_writes_)) {
      for (const NodeId id : *written) move_node(id.index());
    } else {
      for (std::size_t i = 0; i < cached_pos_.size(); ++i) {
        move_node(i);
      }
    }
  } else {
    rebuild_full();
  }
  built_generation_ = generation;
  built_writes_ = registry_->write_seq();
}

void NeighborIndex::rebuild_full() {
  const std::size_t n = registry_->count();
  for (Cell& cell : cells_) {
    cell.nodes.clear();
    for (SubBucket& b : cell.sub) {
      b.pos.clear();
      b.ids.clear();
    }
  }
  cached_pos_.resize(n);
  place_.resize(n);
  density_.assign(n, 0);
  density_stamp_.assign(n, 0);
  // Ascending-id insertion keeps every cell list sorted, which move_node
  // preserves and query() relies on for receiver order.
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 p = registry_->position(NodeId{i});
    std::uint64_t key = 0;
    std::uint32_t sub = 0;
    bin(p, &key, &sub);
    const std::uint32_t cell = cell_slot(key);
    cached_pos_[i] = p;
    cells_[cell].nodes.push_back(NodeId{i});
    insert_sub(i, p, cell, sub);
  }
}

void NeighborIndex::insert_sub(std::size_t i, Vec2 p, std::uint32_t cell,
                               std::uint32_t sub) {
  SubBucket& b = cells_[cell].sub[sub];
  place_[i] = Place{cell, sub, static_cast<std::uint32_t>(b.pos.size())};
  b.pos.push_back(p);
  b.ids.push_back(NodeId{i});
}

void NeighborIndex::erase_sub(std::size_t i) {
  // Swap-remove: member order within a sub-bucket does not matter.
  const Place at = place_[i];
  SubBucket& b = cells_[at.cell].sub[at.sub];
  const NodeId last = b.ids.back();
  b.pos[at.slot] = b.pos.back();
  b.ids[at.slot] = last;
  place_[last.index()].slot = at.slot;
  b.pos.pop_back();
  b.ids.pop_back();
}

void NeighborIndex::move_node(std::size_t i) {
  // Read here, not passed in: a Vec2 argument arrives in two registers, and
  // storing it whole below then stalls on store forwarding under -O3.
  const Vec2 p = registry_->position(NodeId{i});
  Vec2& cached = cached_pos_[i];
  if (p.x == cached.x && p.y == cached.y) return;
  cached = p;
  std::uint64_t key = 0;
  std::uint32_t sub = 0;
  bin(p, &key, &sub);
  const Place at = place_[i];
  if (key == cells_[at.cell].key) {
    if (sub == at.sub) {
      cells_[at.cell].sub[sub].pos[at.slot] = p;
    } else {
      erase_sub(i);
      insert_sub(i, p, at.cell, sub);
    }
    return;
  }
  erase_sub(i);
  const NodeId id{i};
  const std::uint32_t cell = cell_slot(key);  // may grow cells_
  // Order-preserving move between the sorted cell lists.
  std::vector<NodeId>& from = cells_[at.cell].nodes;
  const auto it = std::lower_bound(from.begin(), from.end(), id);
  HLSRG_DCHECK(it != from.end() && *it == id);
  from.erase(it);
  std::vector<NodeId>& to = cells_[cell].nodes;
  to.insert(std::lower_bound(to.begin(), to.end(), id), id);
  insert_sub(i, p, cell, sub);
}

template <typename Fn>
void NeighborIndex::for_each_block_cell(Vec2 p, Fn&& fn) const {
  const auto cx = static_cast<std::int32_t>(std::floor(p.x / cell_));
  const auto cy = static_cast<std::int32_t>(std::floor(p.y / cell_));
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const Cell* cell = cell_at(pack(cx + dx, cy + dy));
      if (cell != nullptr) fn(*cell, dx, dy);
    }
  }
}

template <typename Fn>
void NeighborIndex::for_each_within(Vec2 p, double radius, NodeId exclude,
                                    Fn&& fn) const {
  const double r2 = radius * radius;
  for_each_block_cell(p, [&](const Cell& cell, std::int32_t, std::int32_t) {
    for (NodeId id : cell.nodes) {
      if (id != exclude && distance2(cached_pos_[id.index()], p) <= r2) {
        fn(id);
      }
    }
  });
}

void NeighborIndex::query(Vec2 p, double radius, NodeId exclude,
                          std::vector<NodeId>* out) const {
  HLSRG_CHECK(out != nullptr);
  HLSRG_CHECK_MSG(radius <= cell_ + 1e-9,
                  "query radius must not exceed the hash cell size");
  for_each_within(p, radius, exclude, [out](NodeId id) { out->push_back(id); });
}

int NeighborIndex::count_within(Vec2 p, double radius, NodeId exclude) const {
  int n = 0;
  for_each_within(p, radius, exclude, [&n](NodeId) { ++n; });
  return n;
}

std::int32_t NeighborIndex::compute_density(NodeId id) const {
  const Vec2 p = cached_pos_[id.index()];
  const double r2 = cell_ * cell_;
  const double side = cell_ / kSplit;
  const double margin = cell_ * kMargin;
  // Squared distances from p to the nearest and farthest point of each
  // sub-cell column (x) and row (y) of the 3x3 block, the near ones shrunk
  // and the far ones grown by the margin.
  constexpr int kSpan = 3 * kSplit;
  std::array<double, kSpan> near_x{};
  std::array<double, kSpan> far_x{};
  std::array<double, kSpan> near_y{};
  std::array<double, kSpan> far_y{};
  const auto extents = [&](double q, double first_lo,
                           std::array<double, kSpan>& near,
                           std::array<double, kSpan>& far) {
    for (int c = 0; c < kSpan; ++c) {
      const double lo = first_lo + c * side;
      const double hi = lo + side;
      const double f = std::max(q - lo, hi - q) + margin;
      const double g = std::max(0.0, std::max(lo - q, q - hi) - margin);
      far[c] = f * f;
      near[c] = g * g;
    }
  };
  extents(p.x, (std::floor(p.x / cell_) - 1.0) * cell_, near_x, far_x);
  extents(p.y, (std::floor(p.y / cell_) - 1.0) * cell_, near_y, far_y);

  std::int32_t n = 0;
  for_each_block_cell(p, [&](const Cell& cell, std::int32_t dx,
                             std::int32_t dy) {
    for (int sx = 0; sx < kSplit; ++sx) {
      const int col = (dx + 1) * kSplit + sx;
      for (int sy = 0; sy < kSplit; ++sy) {
        const SubBucket& b = cell.sub[sx * kSplit + sy];
        if (b.pos.empty()) continue;
        const int row = (dy + 1) * kSplit + sy;
        if (far_x[col] + far_y[row] <= r2) {
          n += static_cast<std::int32_t>(b.pos.size());  // wholly inside
        } else if (near_x[col] + near_y[row] <= r2) {    // crosses
          for (const Vec2& q : b.pos) n += distance2(q, p) <= r2 ? 1 : 0;
        }
      }
    }
  });
  return n - 1;  // id itself, at distance 0
}

std::int32_t NeighborIndex::local_density(NodeId id) {
  const std::size_t i = id.index();
  HLSRG_DCHECK(i < cached_pos_.size());
  if (density_stamp_[i] != stamp_) {
    density_[i] = compute_density(id);
    density_stamp_[i] = stamp_;
  }
  return density_[i];
}

}  // namespace hlsrg
