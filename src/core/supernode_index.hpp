// Geo-grid spatial index over registered supernode positions (perf layer
// behind Cloud::candidate_supernodes_into, DESIGN.md §10.1).
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
// compact, unordered set of the accepting nodes, all computed by
// rebuild(); after that every change to a node's accepting() must be
// reported through set_accepting (Cloud::note_seat_change is the
// caller-facing hook). A query never reads the fleet. While at most
// kSaturatedScan nodes accept, it scans that set and skips the rings;
// otherwise it skips a cell whose count is 0 without touching its nodes
// and stops expanding rings once it holds every accepting node, so a
// nearly full fleet costs what its free seats cost.
//
// Two more queries serve the per-player nearby lists of the join path
// (Cloud::candidate_supernodes_for): nearest_registered ranks every node,
// accepting or not, and accepting_prefix filters such a list by the
// accepting bytes and says whether the filtered list is the exact answer.
//
// Cells live in a dense CSR layout over the populated bounding box and
// rings are clamped to that box.
//
// Results are ordered by (distance, fleet index): a total order, so the
// grid path and the linear reference scan agree element-for-element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

  /// Accepting-node count at or below which nearest_accepting scans the
  /// accepting set instead of walking rings (a saturated fleet).
  static constexpr std::size_t kSaturatedScan = 64;

  /// Rebuilds from scratch: node `i` of the fleet sits at `positions[i]`
  /// and accepts iff `fleet[i].accepting()`.
  void rebuild(const std::vector<net::GeoPoint>& positions,
               const std::vector<SupernodeState>& fleet);

  std::size_t size() const { return positions_.size(); }

  /// Records that node `i` (< size()) now does (or does not) accept a
  /// player. Idempotent: the counts move only when the value changes.
  void set_accepting(std::size_t i, bool accepting);

  /// True iff the accepting bytes, per-cell counts and accepting set all
  /// equal a fresh recount of `fleet[i].accepting()` — i.e. no seat change
  /// was missed since rebuild(). Reads only; rebuilds nothing.
  bool accepting_matches(const std::vector<SupernodeState>& fleet) const;

  /// Appends to `out` (cleared first) the indices of the `count` nearest
  /// accepting nodes, ordered by (distance, index). Exact — identical to a
  /// full scan of the fleet. Single-threaded (uses internal query scratch).
  void nearest_accepting(const net::GeoPoint& from, std::size_t count,
                         std::vector<std::size_t>& out) const;

  /// Fills the front of `out` with the registered nodes nearest `from`,
  /// accepting or not, ordered by (distance, index); returns how many
  /// (min(out.size(), size())). Node indices must fit the element type.
  std::size_t nearest_registered(const net::GeoPoint& from,
                                 std::span<std::uint16_t> out) const;

  /// Fills `out` (cleared first) with the accepting nodes of `list`, in
  /// list order, up to `count`. `list` must be a nearest_registered answer
  /// for the query point. Returns true iff `out` is then exactly
  /// nearest_accepting's answer: it holds `count` nodes, or `list` holds
  /// the whole fleet, or `out` holds every accepting node.
  bool accepting_prefix(std::span<const std::uint16_t> list, std::size_t count,
                        std::vector<std::size_t>& out) const;

 private:
  std::int64_t cell_of(double v) const;
  std::size_t cell_index(const net::GeoPoint& p) const;
  /// Ring walk collecting into scratch_ every accepting node (or every
  /// node) of the rings needed for an exact `count`-nearest answer.
  template <bool kAcceptingOnly>
  void walk_rings(const net::GeoPoint& from, std::size_t count) const;
  template <bool kAcceptingOnly>
  void scan_cell(std::int64_t cx, std::int64_t cy, const net::GeoPoint& from) const;
  /// The saturated regime: scratch_ becomes the `count` nearest members
  /// of accepting_set_, sorted, by bounded insertion.
  void scan_accepting_set(const net::GeoPoint& from, std::size_t count) const;

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
  /// (whose index node_cell_[i] is kept so updates are O(1)), and
  /// accepting_set_ lists the accepting nodes in no order, node i at
  /// accepting_set_[set_slot_[i]] (swap-remove keeps updates O(1)).
  std::vector<std::uint8_t> accepting_;
  std::vector<std::uint32_t> node_cell_;
  std::vector<std::uint32_t> cell_accepting_;
  std::vector<std::uint32_t> accepting_set_;
  std::vector<std::uint32_t> set_slot_;
  /// Query scratch, reused across calls (single-threaded contract).
  mutable std::vector<std::pair<double, std::size_t>> scratch_;
};

}  // namespace cloudfog::core
