// Low-overhead tracing for the Figure-2 pipeline and the serve path.
// TAGLETS_TRACE_SCOPE("stage", {{"k", v}}) opens an RAII span; spans
// nest naturally per thread and are buffered in per-thread vectors so
// recording never contends on a global lock (each thread locks only its
// own uncontended buffer mutex — a couple of atomic ops). The whole
// layer is a runtime no-op when disabled: the macro's attribute
// expressions sit behind a single relaxed atomic load, so hot paths pay
// one branch when tracing is off (TAGLETS_TRACE unset).
//
// Export is Chrome trace-event JSON ("X" complete events), loadable in
// chrome://tracing and Perfetto. Spans that logically start on one
// thread and finish on another (a serve request's enqueue -> resolve
// life) are recorded retroactively with record_complete().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace taglets::obs {

using TraceClock = std::chrono::steady_clock;
using TraceAttrs = std::vector<std::pair<std::string, std::string>>;

/// One finished span. `ts_us`/`dur_us` are microseconds relative to the
/// tracer's process-wide epoch; `depth` is the span's nesting level on
/// its recording thread (0 = outermost), kept for tests and tooling —
/// Chrome/Perfetto re-derive nesting from ts/dur.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t depth = 0;
  TraceAttrs attrs;
};

/// True when spans are being recorded. Initialized from TAGLETS_TRACE
/// (truthy enables); flip at runtime with set_trace_enabled.
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// Human-readable name for this process's lane in merged multi-process
/// traces ("frontend", "shard:g0", ...). Exported as a Chrome-trace
/// `process_name` metadata event alongside the real pid. Defaults to
/// "taglets".
void set_process_name(std::string name);
std::string process_name();

/// Stable small integer id of the calling thread, assigned on first
/// use. Shared with the structured log sink so logs join traces.
std::uint32_t current_thread_id();

class Tracer {
 public:
  /// The process-wide tracer all spans record into.
  static Tracer& global();

  /// Record a finished span on the calling thread's buffer.
  void record(TraceEvent event);
  /// Record a span from explicit start/end time points (cross-thread
  /// lifetimes, e.g. a serve request). Attributed to the calling
  /// thread at depth 0.
  void record_complete(std::string name, TraceClock::time_point start,
                       TraceClock::time_point end, TraceAttrs attrs = {});

  /// Microseconds since the tracer's epoch for `tp` (the epoch is
  /// captured when the tracer is first touched).
  double to_epoch_us(TraceClock::time_point tp) const;
  /// Microseconds since the epoch for "now" — the timestamp a span
  /// recorded this instant would carry. Clock-alignment handshakes in
  /// the fleet tier exchange this value.
  double now_us() const { return to_epoch_us(TraceClock::now()); }

  /// All events recorded so far, across every thread, in no particular
  /// order. For tests and in-process consumers.
  std::vector<TraceEvent> snapshot() const;
  /// Drop all buffered events (thread registrations survive).
  void clear();
  /// Events dropped because a thread buffer hit its cap.
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}).
  std::string export_json() const;
  /// Write export_json() to `path` (throws std::runtime_error).
  void export_json(const std::string& path) const;

 private:
  Tracer();
  struct ThreadBuffer;
  ThreadBuffer& local_buffer();

  TraceClock::time_point epoch_;
  mutable util::Mutex registry_mu_{"obs.trace.registry",
                                   util::lockrank::kObsTraceRegistry};
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      TAGLETS_GUARDED_BY(registry_mu_);
  std::atomic<std::uint64_t> dropped_{0};
};

/// Convenience: Tracer::global().export_json(). The exported file loads
/// in chrome://tracing and https://ui.perfetto.dev.
std::string trace_export_json();
void trace_export_json(const std::string& path);

/// RAII span. Default-constructed spans are inert; begin() arms them.
/// Use through TAGLETS_TRACE_SCOPE so attribute construction is skipped
/// entirely when tracing is disabled.
class TraceSpan {
 public:
  TraceSpan() = default;
  ~TraceSpan() { if (active_) finish(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void begin(std::string name, TraceAttrs attrs = {});
  /// Adds an attribute known only once the span's work is done (whether
  /// a cache lookup hit, say). No-op on an inert span.
  void add_attr(std::string key, std::string value) {
    if (active_) attrs_.emplace_back(std::move(key), std::move(value));
  }

 private:
  void finish();

  bool active_ = false;
  std::string name_;
  TraceAttrs attrs_;
  TraceClock::time_point start_{};
  std::uint32_t depth_ = 0;
};

}  // namespace taglets::obs

#define TAGLETS_OBS_CONCAT_INNER(a, b) a##b
#define TAGLETS_OBS_CONCAT(a, b) TAGLETS_OBS_CONCAT_INNER(a, b)

/// Open a span covering the rest of the enclosing block:
///   TAGLETS_TRACE_SCOPE("module.train", {{"module", name}});
/// Attribute expressions are evaluated only when tracing is enabled.
#define TAGLETS_TRACE_SCOPE(...)                                            \
  ::taglets::obs::TraceSpan TAGLETS_OBS_CONCAT(taglets_trace_scope_,        \
                                               __LINE__);                   \
  if (::taglets::obs::trace_enabled())                                      \
  TAGLETS_OBS_CONCAT(taglets_trace_scope_, __LINE__).begin(__VA_ARGS__)
