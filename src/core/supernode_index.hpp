// Geo-grid spatial index over registered supernode positions (perf layer
// behind Cloud::candidate_supernodes, DESIGN.md §10).
//
// The index answers exact k-nearest-accepting queries: bucket every
// supernode's *geolocated* position (the registry's noisy view, not the
// true endpoint) into fixed-size grid cells, then expand Chebyshev rings
// around the query cell until the k-th best distance provably beats
// anything a farther ring could hold. Only (un)registration — which can
// change a node's geolocated position — forces a rebuild, which Cloud
// triggers lazily via an epoch counter.
//
// The index is also the capacity side of the §3.2.1 registry table: it
// keeps one accepting byte per node, an accepting count per cell and a
// fleet-wide accepting total. rebuild() reads them from the fleet; after
// that every change to a node's accepting() must be reported through
// set_accepting (Cloud::note_seat_change is the caller-facing hook). A
// query never reads the fleet: it skips a cell whose count is 0 without
// touching its nodes, and stops expanding rings once it holds every
// accepting node, so a saturated fleet costs what its free seats cost.
//
// Cells live in a dense CSR layout over the populated bounding box and
// rings are clamped to that box.
//
// Results are ordered by (distance, fleet index): a total order, so the
// grid path and the linear reference scan agree element-for-element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/coordinates.hpp"

namespace cloudfog::core {

struct SupernodeState;

class SupernodeIndex {
 public:
  /// `cell_km` trades ring fan-out against bucket occupancy; the default
  /// suits metro-clustered fleets on the GeoPlane (≈60 km metro sigma).
  explicit SupernodeIndex(double cell_km = 150.0);

  /// Rebuilds from scratch: node `i` of the fleet sits at `positions[i]`
  /// and accepts iff `fleet[i].accepting()`.
  void rebuild(const std::vector<net::GeoPoint>& positions,
               const std::vector<SupernodeState>& fleet);

  std::size_t size() const { return positions_.size(); }

  /// Records that node `i` (< size()) now does (or does not) accept a
  /// player. Idempotent: the counts move only when the value changes.
  void set_accepting(std::size_t i, bool accepting);

  /// True iff the accepting bytes, per-cell counts and total all equal a
  /// fresh recount of `fleet[i].accepting()` — i.e. no seat change was
  /// missed since rebuild(). Reads only; rebuilds nothing.
  bool accepting_matches(const std::vector<SupernodeState>& fleet) const;

  /// Appends to `out` (cleared first) the indices of the `count` nearest
  /// accepting nodes, ordered by (distance, index). Exact — identical to a
  /// full scan of the fleet. Single-threaded (uses internal query scratch).
  void nearest_accepting(const net::GeoPoint& from, std::size_t count,
                         std::vector<std::size_t>& out) const;

 private:
  std::int64_t cell_of(double v) const;
  std::size_t cell_index(const net::GeoPoint& p) const;
  void scan_cell(std::int64_t cx, std::int64_t cy, const net::GeoPoint& from) const;

  double cell_km_ = 150.0;
  std::vector<net::GeoPoint> positions_;
  // Dense CSR over the populated bounding box: nodes of cell (cx, cy) are
  // cell_nodes_[cell_start_[c] .. cell_start_[c+1]) with
  // c = (cy - min_cy_) * width_ + (cx - min_cx_).
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_nodes_;
  std::int64_t min_cx_ = 0;
  std::int64_t max_cx_ = 0;
  std::int64_t min_cy_ = 0;
  std::int64_t max_cy_ = 0;
  std::int64_t width_ = 0;
  /// Capacity side of the table: accepting_[i] is node i's accepting()
  /// as last reported, cell_accepting_[c] counts those bytes over cell c
  /// (whose index node_cell_[i] is kept so updates are O(1)).
  std::vector<std::uint8_t> accepting_;
  std::vector<std::uint32_t> node_cell_;
  std::vector<std::uint32_t> cell_accepting_;
  std::size_t accepting_total_ = 0;
  /// Query scratch, reused across calls (single-threaded contract).
  mutable std::vector<std::pair<double, std::size_t>> scratch_;
};

}  // namespace cloudfog::core
