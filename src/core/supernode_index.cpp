#include "core/supernode_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/entities.hpp"
#include "util/require.hpp"

namespace cloudfog::core {

namespace {

// (distance, index) — the total order both the grid and the linear
// reference scan sort by.
bool closer(const std::pair<double, std::size_t>& a, const std::pair<double, std::size_t>& b) {
  if (a.first != b.first) return a.first < b.first;
  return a.second < b.second;
}

}  // namespace

SupernodeIndex::SupernodeIndex(double cell_km) : cell_km_(cell_km) {
  CLOUDFOG_REQUIRE(cell_km > 0.0, "grid cell size must be positive");
}

std::int64_t SupernodeIndex::cell_of(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_km_));
}

std::size_t SupernodeIndex::cell_index(const net::GeoPoint& p) const {
  return static_cast<std::size_t>((cell_of(p.y_km) - min_cy_) * width_ +
                                  (cell_of(p.x_km) - min_cx_));
}

void SupernodeIndex::rebuild(const std::vector<net::GeoPoint>& positions,
                             const std::vector<SupernodeState>& fleet) {
  CLOUDFOG_REQUIRE(fleet.size() == positions.size(), "one position per fleet node");
  positions_ = positions;
  cell_start_.clear();
  cell_nodes_.clear();
  accepting_.clear();
  node_cell_.clear();
  cell_accepting_.clear();
  accepting_set_.clear();
  set_slot_.clear();
  min_cx_ = min_cy_ = 0;
  max_cx_ = max_cy_ = -1;
  width_ = 0;
  if (positions_.empty()) return;

  min_cx_ = min_cy_ = std::numeric_limits<std::int64_t>::max();
  max_cx_ = max_cy_ = std::numeric_limits<std::int64_t>::min();
  for (const net::GeoPoint& p : positions_) {
    const std::int64_t cx = cell_of(p.x_km);
    const std::int64_t cy = cell_of(p.y_km);
    min_cx_ = std::min(min_cx_, cx);
    max_cx_ = std::max(max_cx_, cx);
    min_cy_ = std::min(min_cy_, cy);
    max_cy_ = std::max(max_cy_, cy);
  }
  width_ = max_cx_ - min_cx_ + 1;
  const std::int64_t height = max_cy_ - min_cy_ + 1;
  const std::int64_t cells = width_ * height;
  // Positions come from the bounded geo plane; a runaway extent would turn
  // the dense layout into a memory bomb — fail loudly instead.
  CLOUDFOG_REQUIRE(cells <= (std::int64_t{1} << 24), "grid extent too large for dense cells");

  // CSR build: count per cell, exclusive prefix, then fill. The accepting
  // bytes, per-cell counts and accepting set come along in the same passes.
  cell_start_.assign(static_cast<std::size_t>(cells) + 1, 0);
  cell_accepting_.assign(static_cast<std::size_t>(cells), 0);
  node_cell_.resize(positions_.size());
  accepting_.resize(positions_.size());
  set_slot_.assign(positions_.size(), 0);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const std::size_t c = cell_index(positions_[i]);
    node_cell_[i] = static_cast<std::uint32_t>(c);
    ++cell_start_[c + 1];
    accepting_[i] = fleet[i].accepting() ? 1 : 0;
    cell_accepting_[c] += accepting_[i];
    if (accepting_[i] != 0) {
      set_slot_[i] = static_cast<std::uint32_t>(accepting_set_.size());
      accepting_set_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  cell_nodes_.resize(positions_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    cell_nodes_[cursor[node_cell_[i]]++] = static_cast<std::uint32_t>(i);
  }
}

void SupernodeIndex::set_accepting(std::size_t i, bool accepting) {
  const std::uint8_t now = accepting ? 1 : 0;
  if (accepting_[i] == now) return;
  accepting_[i] = now;
  if (accepting) {
    ++cell_accepting_[node_cell_[i]];
    set_slot_[i] = static_cast<std::uint32_t>(accepting_set_.size());
    accepting_set_.push_back(static_cast<std::uint32_t>(i));
  } else {
    --cell_accepting_[node_cell_[i]];
    const std::uint32_t moved = accepting_set_.back();
    accepting_set_[set_slot_[i]] = moved;
    set_slot_[moved] = set_slot_[i];
    accepting_set_.pop_back();
  }
}

bool SupernodeIndex::accepting_matches(const std::vector<SupernodeState>& fleet) const {
  if (fleet.size() != accepting_.size()) return false;
  std::vector<std::uint32_t> per_cell(cell_accepting_.size(), 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::uint8_t now = fleet[i].accepting() ? 1 : 0;
    if (accepting_[i] != now) return false;
    if (now != 0 && (set_slot_[i] >= accepting_set_.size() ||
                     accepting_set_[set_slot_[i]] != i)) {
      return false;
    }
    per_cell[node_cell_[i]] += now;
    total += now;
  }
  return total == accepting_set_.size() && per_cell == cell_accepting_;
}

template <bool kAcceptingOnly>
void SupernodeIndex::scan_cell(std::int64_t cx, std::int64_t cy,
                               const net::GeoPoint& from) const {
  const std::size_t c =
      static_cast<std::size_t>((cy - min_cy_) * width_ + (cx - min_cx_));
  // Every node here is full, down or withdrawn.
  if (kAcceptingOnly && cell_accepting_[c] == 0) return;
  const std::uint32_t end = cell_start_[c + 1];
  for (std::uint32_t k = cell_start_[c]; k < end; ++k) {
    const std::uint32_t idx = cell_nodes_[k];
    if (kAcceptingOnly && accepting_[idx] == 0) continue;
    scratch_.emplace_back(net::distance_km(from, positions_[idx]), static_cast<std::size_t>(idx));
  }
}

template <bool kAcceptingOnly>
void SupernodeIndex::walk_rings(const net::GeoPoint& from, std::size_t count) const {
  scratch_.clear();
  const std::size_t wanted = kAcceptingOnly ? accepting_set_.size() : positions_.size();
  const std::int64_t cx = cell_of(from.x_km);
  const std::int64_t cy = cell_of(from.y_km);
  // Ring at which the entire populated bounding box has been visited.
  const std::int64_t last_ring =
      std::max(std::max(std::abs(min_cx_ - cx), std::abs(max_cx_ - cx)),
               std::max(std::abs(min_cy_ - cy), std::abs(max_cy_ - cy)));
  double kth = std::numeric_limits<double>::infinity();
  // Once every wanted node is in scratch_, farther rings hold none.
  for (std::int64_t r = 0; r <= last_ring && scratch_.size() < wanted; ++r) {
    // A node in ring r is at least (r-1)·cell away (the query point may sit
    // anywhere inside its own cell). Once that lower bound strictly exceeds
    // the current k-th best distance, no farther ring can improve or even
    // tie-break the result set.
    if (scratch_.size() >= count && static_cast<double>(r - 1) * cell_km_ > kth) break;
    const std::size_t before = scratch_.size();
    if (r == 0) {
      if (cx >= min_cx_ && cx <= max_cx_ && cy >= min_cy_ && cy <= max_cy_) {
        scan_cell<kAcceptingOnly>(cx, cy, from);
      }
    } else {
      // Ring perimeter clamped to the populated bounding box: rows outside
      // [min_cy_, max_cy_] and columns outside [min_cx_, max_cx_] hold no
      // cells, so they cost nothing.
      const std::int64_t x0 = std::max(cx - r, min_cx_);
      const std::int64_t x1 = std::min(cx + r, max_cx_);
      if (cy - r >= min_cy_ && cy - r <= max_cy_) {
        for (std::int64_t x = x0; x <= x1; ++x) scan_cell<kAcceptingOnly>(x, cy - r, from);
      }
      if (cy + r >= min_cy_ && cy + r <= max_cy_) {
        for (std::int64_t x = x0; x <= x1; ++x) scan_cell<kAcceptingOnly>(x, cy + r, from);
      }
      const std::int64_t y0 = std::max(cy - r + 1, min_cy_);
      const std::int64_t y1 = std::min(cy + r - 1, max_cy_);
      if (cx - r >= min_cx_ && cx - r <= max_cx_) {
        for (std::int64_t y = y0; y <= y1; ++y) scan_cell<kAcceptingOnly>(cx - r, y, from);
      }
      if (cx + r >= min_cx_ && cx + r <= max_cx_) {
        for (std::int64_t y = y0; y <= y1; ++y) scan_cell<kAcceptingOnly>(cx + r, y, from);
      }
    }
    // Re-derive the k-th best only when this ring contributed candidates —
    // in the saturated regime rings are many and mostly empty, and an
    // O(|scratch|) selection per ring would swamp the scan itself.
    if (scratch_.size() >= count && scratch_.size() != before) {
      const auto kth_it = scratch_.begin() + static_cast<std::ptrdiff_t>(count) - 1;
      std::nth_element(scratch_.begin(), kth_it, scratch_.end(), closer);
      kth = kth_it->first;
    }
  }
  const std::size_t take = std::min(count, scratch_.size());
  std::partial_sort(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(take),
                    scratch_.end(), closer);
  scratch_.resize(take);
}

void SupernodeIndex::scan_accepting_set(const net::GeoPoint& from, std::size_t count) const {
  scratch_.clear();
  for (const std::uint32_t idx : accepting_set_) {
    const std::pair<double, std::size_t> cand{net::distance_km(from, positions_[idx]), idx};
    if (scratch_.size() == count) {
      if (!closer(cand, scratch_.back())) continue;
      scratch_.pop_back();
    }
    scratch_.insert(std::upper_bound(scratch_.begin(), scratch_.end(), cand, closer), cand);
  }
}

void SupernodeIndex::nearest_accepting(const net::GeoPoint& from, std::size_t count,
                                       std::vector<std::size_t>& out) const {
  out.clear();
  if (count == 0 || accepting_set_.empty()) return;
  if (accepting_set_.size() <= kSaturatedScan) {
    scan_accepting_set(from, count);
  } else {
    walk_rings<true>(from, count);
  }
  out.reserve(scratch_.size());
  for (const auto& hit : scratch_) out.push_back(hit.second);
}

std::size_t SupernodeIndex::nearest_registered(const net::GeoPoint& from,
                                               std::span<std::uint16_t> out) const {
  if (out.empty() || positions_.empty()) return 0;
  walk_rings<false>(from, out.size());
  for (std::size_t k = 0; k < scratch_.size(); ++k) {
    out[k] = static_cast<std::uint16_t>(scratch_[k].second);
  }
  return scratch_.size();
}

bool SupernodeIndex::accepting_prefix(std::span<const std::uint16_t> list, std::size_t count,
                                      std::vector<std::size_t>& out) const {
  out.clear();
  // The list is the fleet's nearest nodes in (distance, index) order, so
  // any accepting node it lacks ranks after every node it holds.
  for (const std::uint16_t idx : list) {
    if (out.size() == count) break;
    if (accepting_[idx] != 0) out.push_back(idx);
  }
  return out.size() == count || list.size() == positions_.size() ||
         out.size() == accepting_set_.size();
}

}  // namespace cloudfog::core
