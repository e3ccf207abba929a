#include "obs/trace.hpp"

#include "obs/binary_trace.hpp"
#include "obs/json.hpp"
#include "util/require.hpp"

namespace cloudfog::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kRunStart: return "run_start";
    case EventKind::kSubcycle: return "subcycle";
    case EventKind::kPlayerJoin: return "player_join";
    case EventKind::kPlayerLeave: return "player_leave";
    case EventKind::kSupernodeChurn: return "supernode_churn";
    case EventKind::kProbeSent: return "probe_sent";
    case EventKind::kProbeAnswered: return "probe_answered";
    case EventKind::kCapacityClaim: return "capacity_claim";
    case EventKind::kMigration: return "migration";
    case EventKind::kRateSwitch: return "rate_switch";
    case EventKind::kProvisioning: return "provisioning";
    case EventKind::kRating: return "rating";
    case EventKind::kFaultInjected: return "fault_injected";
    case EventKind::kFaultCleared: return "fault_cleared";
    case EventKind::kRetryAttempt: return "retry_attempt";
    case EventKind::kRetryExhausted: return "retry_exhausted";
    case EventKind::kCloudFallback: return "cloud_fallback";
    case EventKind::kFogReturn: return "fog_return";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : ring_(capacity) {}

namespace {

/// Structural events always survive sampling and close aggregation
/// windows: they are the timeline the other events hang off.
bool structural(EventKind kind) {
  return kind == EventKind::kRunStart || kind == EventKind::kSubcycle;
}

}  // namespace

void TraceBuffer::push(TraceEvent event) {
  ++total_pushed_;
  if (ring_.empty()) {  // count-only: nothing is kept
    ++dropped_;
    return;
  }
  switch (retention_) {
    case TraceRetention::kFull:
      break;
    case TraceRetention::kSampled:
      if (!structural(event.kind)) {
        const std::uint64_t seq = sample_seq_++;
        if (sample_every_ > 1 && seq % sample_every_ != 0) {
          ++sampled_out_;
          return;
        }
      }
      break;
    case TraceRetention::kAggregated:
      if (!structural(event.kind)) {
        KindWindow& w = window_[static_cast<std::size_t>(event.kind)];
        ++w.count;
        w.value_sum += event.value;
        window_open_ = true;
        window_last_t_ = event.t;
        ++aggregated_;
        return;
      }
      // A boundary: summarize the window it closes, then pass through.
      if (window_open_) {
        const double t = event.t;
        window_last_t_ = t;
        close_aggregation_window();
      }
      break;
  }
  retain(std::move(event));
}

void TraceBuffer::close_aggregation_window() {
  if (retention_ != TraceRetention::kAggregated || !window_open_) return;
  static const NoteId kAggNote = intern_note("agg");
  window_open_ = false;  // cleared first: retain() below must not recurse
  for (std::size_t k = 0; k < window_.size(); ++k) {
    KindWindow& w = window_[k];
    if (w.count == 0) continue;
    TraceEvent agg;
    agg.t = window_last_t_;
    agg.kind = static_cast<EventKind>(k);
    agg.subject = static_cast<std::int64_t>(w.count);
    agg.object = -1;
    agg.value = w.value_sum;
    agg.note = Note{kAggNote};
    retain(agg);
    w = KindWindow{};
  }
}

void TraceBuffer::retain(TraceEvent event) {
  if (size_ == ring_.size()) {
    if (sink_ != nullptr) {
      flush();
    } else {
      // Overwrite the oldest event.
      ring_[head_] = event;
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
      return;
    }
  }
  ring_[(head_ + size_) % ring_.size()] = event;
  ++size_;
}

void TraceBuffer::set_event_sink(BinaryTraceSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr) flush();
}

void TraceBuffer::flush() {
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < size_; ++i) {
      sink_->write(ring_[(head_ + i) % ring_.size()]);
      ++total_sunk_;
    }
    sink_->flush();
  }
  head_ = 0;
  size_ = 0;
}

void TraceBuffer::set_retention(TraceRetention mode, std::uint64_t sample_every) {
  CLOUDFOG_REQUIRE(total_pushed_ == 0,
                   "trace retention must be chosen before events are pushed");
  CLOUDFOG_REQUIRE(sample_every >= 1, "sample_every must be >= 1");
  retention_ = mode;
  sample_every_ = sample_every;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

void TraceBuffer::clear() {
  head_ = 0;
  size_ = 0;
  total_pushed_ = 0;
  total_sunk_ = 0;
  dropped_ = 0;
  sampled_out_ = 0;
  aggregated_ = 0;
  sample_seq_ = 0;
  window_.fill(KindWindow{});
  window_open_ = false;
  window_last_t_ = 0.0;
}

void TraceBuffer::write_jsonl(std::ostream& os, const TraceEvent& event) {
  os << "{\"t\":" << json_number(event.t) << ",\"kind\":\"" << event_kind_name(event.kind)
     << '"';
  if (event.subject >= 0) os << ",\"subject\":" << event.subject;
  if (event.object >= 0) os << ",\"object\":" << event.object;
  if (event.value != 0.0) os << ",\"value\":" << json_number(event.value);
  const std::string_view note = note_text(event.note.id);
  if (!note.empty() || event.note.has_arg) {
    os << ",\"note\":\"" << json_escape(note);
    if (event.note.has_arg) os << event.note.arg;
    os << '"';
  }
  os << "}\n";
}

}  // namespace cloudfog::obs
