// Bounded structured event trace.
//
// Components push typed events stamped with the simulation clock; the
// buffer is a fixed-capacity ring so tracing never grows memory unbounded.
// Two retention behaviours with respect to the ring:
//   * no sink attached — the ring keeps the most recent `capacity` events
//     (oldest overwritten, counted as dropped);
//   * sink attached — the ring is a write buffer: it flushes to the sink
//     when full and on flush(), so the sink sees every retained event
//     while memory stays bounded.
//
// Orthogonally, a retention mode decides which pushed events are retained
// at all (DESIGN.md §11):
//   * kFull       — every event (the default);
//   * kSampled    — every Nth non-structural event, decided by a counter
//                   over the deterministic arrival sequence (never wall
//                   clock or RNG), so the sampled trace is identical on
//                   every run; kRunStart/kSubcycle always pass;
//   * kAggregated — non-structural events fold into per-window, per-kind
//                   {count, value-sum} accumulators; each kSubcycle /
//                   kRunStart boundary emits one summary event per kind
//                   seen in the closed window (note "agg", subject=count,
//                   value=sum, stamped at the boundary time).
//
// The sink is obs::BinaryTraceSink (binary_trace.hpp): it writes the
// fixed-width binary format, and tools/trace/tracecat turns that back into
// JSONL offline with write_jsonl.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/note_table.hpp"

namespace cloudfog::obs {

enum class EventKind : std::uint8_t {
  kRunStart,        ///< a System run began (note = arm label)
  kSubcycle,        ///< subcycle boundary (subject=cycle, object=subcycle, value=online)
  kPlayerJoin,      ///< subject=player, object=serving entity, value=join latency ms
  kPlayerLeave,     ///< subject=player
  kSupernodeChurn,  ///< subject=supernode (failure/withdrawal detected)
  kProbeSent,       ///< subject=player, object=supernode
  kProbeAnswered,   ///< subject=player, object=supernode, value=RTT ms
  kCapacityClaim,   ///< subject=player, object=supernode, value=1 granted / 0 refused
  kMigration,       ///< subject=player, object=new entity, value=migration latency ms
  kRateSwitch,      ///< subject=game, object=new level, value=+1 up / -1 down
  kProvisioning,    ///< value=deployed count, note=decision detail
  kRating,          ///< subject=supernode, value=rating in [0,1]
  kFaultInjected,   ///< subject=target, object=partition peer, value=magnitude, note=kind
  kFaultCleared,    ///< subject=target, object=partition peer, note=kind
  kRetryAttempt,    ///< subject=attempt number, value=backoff ms, note=call site
  kRetryExhausted,  ///< subject=attempts started, value=elapsed ms, note=call site
  kCloudFallback,   ///< subject=player, value=restore latency ms
  kFogReturn,       ///< subject=player, object=supernode
};

/// Number of EventKind values (aggregation buckets, binary-format checks).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kFogReturn) + 1;

const char* event_kind_name(EventKind kind);

struct TraceEvent {
  double t = 0.0;  ///< monotone observability clock (seconds)
  EventKind kind = EventKind::kRunStart;
  std::int64_t subject = -1;
  std::int64_t object = -1;
  double value = 0.0;
  Note note{};  ///< interned note text + optional integer argument
};

class BinaryTraceSink;

enum class TraceRetention : std::uint8_t { kFull, kSampled, kAggregated };

class TraceBuffer {
 public:
  /// `capacity` 0 makes a count-only buffer: every push is counted in
  /// total_pushed() and dropped(), and nothing is stored.
  explicit TraceBuffer(std::size_t capacity = 1 << 16);

  void push(TraceEvent event);

  /// Attaches a sink (not owned; nullptr detaches). The buffer flushes
  /// current contents immediately when a sink is attached.
  void set_event_sink(BinaryTraceSink* sink);

  bool has_sink() const { return sink_ != nullptr; }

  /// Writes everything buffered to the sink (if any) and clears the ring.
  void flush();

  /// Selects the retention mode. `sample_every` is only meaningful for
  /// kSampled (keep every Nth non-structural event; 1 keeps everything).
  /// Must be set before events are pushed — switching modes mid-stream
  /// would make the retained trace meaningless.
  void set_retention(TraceRetention mode, std::uint64_t sample_every = 1);
  TraceRetention retention() const { return retention_; }
  std::uint64_t sample_every() const { return sample_every_; }

  /// Aggregated mode: emits the pending window's summary events (stamped
  /// at the last seen event time) without waiting for a boundary. Call
  /// before the final flush so trailing events are not lost. No-op in
  /// other modes.
  void close_aggregation_window();

  /// Buffered events, oldest first (post-wrap: the surviving window).
  std::vector<TraceEvent> events() const;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Events ever pushed / overwritten before being read or sunk.
  std::uint64_t total_pushed() const { return total_pushed_; }
  std::uint64_t total_sunk() const { return total_sunk_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Events discarded by kSampled retention (not counted as dropped).
  std::uint64_t sampled_out() const { return sampled_out_; }
  /// Events folded into aggregate windows by kAggregated retention.
  std::uint64_t aggregated() const { return aggregated_; }

  /// Counts `pushed` events pushed elsewhere (a merged child's count-only
  /// buffer), `dropped` of them discarded there, without storing anything.
  void add_pushed(std::uint64_t pushed, std::uint64_t dropped) {
    total_pushed_ += pushed;
    dropped_ += dropped;
  }

  void clear();

  /// One JSON object per line, fields omitted when unset: the text form
  /// tracecat prints for each decoded event.
  static void write_jsonl(std::ostream& os, const TraceEvent& event);

 private:
  void retain(TraceEvent event);

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< index of the oldest buffered event
  std::size_t size_ = 0;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t total_sunk_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t aggregated_ = 0;
  TraceRetention retention_ = TraceRetention::kFull;
  std::uint64_t sample_every_ = 1;
  std::uint64_t sample_seq_ = 0;

  struct KindWindow {
    std::uint64_t count = 0;
    double value_sum = 0.0;
  };
  std::array<KindWindow, kEventKindCount> window_{};
  bool window_open_ = false;
  double window_last_t_ = 0.0;

  BinaryTraceSink* sink_ = nullptr;
};

}  // namespace cloudfog::obs
