// Thread-safe serving telemetry: outcome counters, queue-depth and
// batch-size distributions, and end-to-end latency percentiles. All
// recording methods may be called concurrently from client threads,
// batching workers, and the shutdown path; readers get a consistent
// snapshot. Exported both as a human-readable text report and as a
// single-line JSON blob so benches and CI can track the serving
// trajectory across PRs.
//
// Every recording method also updates the process-wide
// obs::MetricsRegistry (serve.* counters and histograms), so the serve
// path shares one metrics surface with the pipeline — a --metrics-out
// snapshot covers both without a second export path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace taglets::serve {

class ServerStats {
 public:
  ServerStats();
  /// Number of worker replicas serving this stats surface; set once by
  /// the owning Server so exports carry the capacity context (fleet
  /// aggregation joins on it instead of re-deriving from config).
  void set_workers(std::size_t workers);
  /// One request admitted; `queue_depth` is the submission-queue depth
  /// observed right after the push.
  void record_submitted(std::size_t queue_depth);
  /// One request turned away at admission (kRejected / kShutdown).
  void record_rejected(Status reason);
  /// One micro-batch of `batch_size` live rows dispatched to the model.
  void record_batch(std::size_t batch_size);
  /// Terminal outcome of one admitted request (kOk / kDeadlineExceeded /
  /// kShutdown / kError) with its latency breakdown.
  void record_response(const Response& response);

  /// Point-in-time copy of every counter and distribution.
  struct Snapshot {
    std::size_t workers = 0;             // replica/worker count
    std::uint64_t submitted = 0;         // admitted into the queue
    std::uint64_t completed = 0;         // resolved kOk
    std::uint64_t rejected_full = 0;     // load shed: queue full
    std::uint64_t rejected_shutdown = 0; // turned away after stop
    std::uint64_t deadline_missed = 0;   // resolved kDeadlineExceeded
    std::uint64_t failed_shutdown = 0;   // pending, failed by stop
    std::uint64_t failed_error = 0;      // resolved kError
    std::uint64_t batches = 0;           // micro-batches dispatched
    std::size_t peak_queue_depth = 0;
    /// batch_size_counts[s] = number of batches with exactly s rows
    /// (index 0 unused).
    std::vector<std::uint64_t> batch_size_counts;
    double mean_batch_size = 0.0;
    double queue_p50_ms = 0.0, queue_p95_ms = 0.0, queue_p99_ms = 0.0;
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0, latency_p95_ms = 0.0, latency_p99_ms = 0.0;

    /// Every admitted request that has been resolved, by any status.
    std::uint64_t resolved() const {
      return completed + deadline_missed + failed_shutdown + failed_error;
    }
    /// Turned away at admission (load shed + post-stop), the "reject"
    /// side of the reject-vs-deadline breakdown fleet aggregation uses.
    std::uint64_t rejected_total() const {
      return rejected_full + rejected_shutdown;
    }
    /// Admitted but not served (deadline misses + shutdown fails +
    /// model errors).
    std::uint64_t failed_total() const {
      return deadline_missed + failed_shutdown + failed_error;
    }
  };
  Snapshot snapshot() const;
  /// The atomic counters alone (workers through batches); every other
  /// field stays at its default. Lock-free, so hot paths such as the
  /// fleet heartbeat can read it without contending with recording.
  Snapshot counters() const;

  /// Multi-line human-readable report.
  std::string report() const;
  /// Single-line JSON object with the same fields.
  std::string json() const;

 private:
  std::atomic<std::size_t> workers_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> deadline_missed_{0};
  std::atomic<std::uint64_t> failed_shutdown_{0};
  std::atomic<std::uint64_t> failed_error_{0};
  std::atomic<std::uint64_t> batches_{0};

  mutable util::Mutex mu_{"serve.stats", util::lockrank::kServeStats};
  std::size_t peak_queue_depth_ TAGLETS_GUARDED_BY(mu_) = 0;
  std::vector<std::uint64_t> batch_size_counts_ TAGLETS_GUARDED_BY(mu_);

  util::LatencyRecorder queue_wait_;    // admission -> dispatch (resolved only)
  util::LatencyRecorder total_latency_; // admission -> response, kOk only

  // Cached registry handles (registry references are stable for the
  // process lifetime, so recording is a single atomic op per metric).
  obs::Counter* reg_submitted_ = nullptr;
  obs::Counter* reg_completed_ = nullptr;
  obs::Counter* reg_rejected_full_ = nullptr;
  obs::Counter* reg_rejected_shutdown_ = nullptr;
  obs::Counter* reg_deadline_missed_ = nullptr;
  obs::Counter* reg_failed_shutdown_ = nullptr;
  obs::Counter* reg_failed_error_ = nullptr;
  obs::Counter* reg_batches_ = nullptr;
  obs::Histogram* reg_batch_size_ = nullptr;
  obs::Histogram* reg_latency_ms_ = nullptr;
  obs::Histogram* reg_queue_wait_ms_ = nullptr;
};

}  // namespace taglets::serve
