#include "serve/server_stats.hpp"

#include <sstream>

namespace taglets::serve {

namespace {

/// Batch-size buckets up to the largest plausible micro-batch.
std::vector<double> batch_size_buckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

}  // namespace

ServerStats::ServerStats() {
  // One metrics surface: every ServerStats (there is normally one per
  // server, all servers in a process share the registry) mirrors its
  // counters into the process-wide registry at record time, so
  // pipeline and serve metrics export together.
  auto& registry = obs::MetricsRegistry::global();
  reg_submitted_ = &registry.counter("serve.requests_submitted_total");
  reg_completed_ = &registry.counter("serve.requests_ok_total");
  reg_rejected_full_ = &registry.counter("serve.requests_rejected_full_total");
  reg_rejected_shutdown_ =
      &registry.counter("serve.requests_rejected_shutdown_total");
  reg_deadline_missed_ =
      &registry.counter("serve.requests_deadline_missed_total");
  reg_failed_shutdown_ =
      &registry.counter("serve.requests_failed_shutdown_total");
  reg_failed_error_ = &registry.counter("serve.requests_failed_error_total");
  reg_batches_ = &registry.counter("serve.batches_total");
  reg_batch_size_ = &registry.histogram("serve.batch_size",
                                        batch_size_buckets());
  reg_latency_ms_ = &registry.histogram("serve.latency_ms",
                                        obs::default_latency_buckets_ms());
  reg_queue_wait_ms_ = &registry.histogram("serve.queue_wait_ms",
                                           obs::default_latency_buckets_ms());
}

void ServerStats::set_workers(std::size_t workers) {
  workers_.store(workers, std::memory_order_relaxed);
}

void ServerStats::record_submitted(std::size_t queue_depth) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  reg_submitted_->add();
  util::MutexLock lock(mu_);
  if (queue_depth > peak_queue_depth_) peak_queue_depth_ = queue_depth;
}

void ServerStats::record_rejected(Status reason) {
  if (reason == Status::kShutdown) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    reg_rejected_shutdown_->add();
  } else {
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    reg_rejected_full_->add();
  }
}

void ServerStats::record_batch(std::size_t batch_size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  reg_batches_->add();
  reg_batch_size_->observe(static_cast<double>(batch_size));
  util::MutexLock lock(mu_);
  if (batch_size >= batch_size_counts_.size()) {
    batch_size_counts_.resize(batch_size + 1, 0);
  }
  ++batch_size_counts_[batch_size];
}

void ServerStats::record_response(const Response& response) {
  switch (response.status) {
    case Status::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      reg_completed_->add();
      total_latency_.record_ms(response.total_ms);
      reg_latency_ms_->observe(response.total_ms);
      break;
    case Status::kDeadlineExceeded:
      deadline_missed_.fetch_add(1, std::memory_order_relaxed);
      reg_deadline_missed_->add();
      break;
    case Status::kShutdown:
      failed_shutdown_.fetch_add(1, std::memory_order_relaxed);
      reg_failed_shutdown_->add();
      break;
    default:
      failed_error_.fetch_add(1, std::memory_order_relaxed);
      reg_failed_error_->add();
      break;
  }
  queue_wait_.record_ms(response.queue_ms);
  reg_queue_wait_ms_->observe(response.queue_ms);
}

ServerStats::Snapshot ServerStats::counters() const {
  Snapshot s;
  s.workers = workers_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.deadline_missed = deadline_missed_.load(std::memory_order_relaxed);
  s.failed_shutdown = failed_shutdown_.load(std::memory_order_relaxed);
  s.failed_error = failed_error_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

ServerStats::Snapshot ServerStats::snapshot() const {
  Snapshot s = counters();
  {
    util::MutexLock lock(mu_);
    s.peak_queue_depth = peak_queue_depth_;
    s.batch_size_counts = batch_size_counts_;
  }
  std::uint64_t rows = 0;
  for (std::size_t size = 0; size < s.batch_size_counts.size(); ++size) {
    rows += s.batch_size_counts[size] * size;
  }
  s.mean_batch_size =
      s.batches == 0 ? 0.0
                     : static_cast<double>(rows) / static_cast<double>(s.batches);
  // Batch percentile reads: one sort per recorder per snapshot instead
  // of one per percentile.
  const double ps[] = {50, 95, 99};
  const std::vector<double> queue_ps = queue_wait_.percentiles_ms(ps);
  s.queue_p50_ms = queue_ps[0];
  s.queue_p95_ms = queue_ps[1];
  s.queue_p99_ms = queue_ps[2];
  const std::vector<double> latency_ps = total_latency_.percentiles_ms(ps);
  s.latency_mean_ms = total_latency_.mean_ms();
  s.latency_p50_ms = latency_ps[0];
  s.latency_p95_ms = latency_ps[1];
  s.latency_p99_ms = latency_ps[2];
  return s;
}

std::string ServerStats::report() const {
  const Snapshot s = snapshot();
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "serve stats:\n"
     << "  workers: " << s.workers << "\n"
     << "  requests: submitted=" << s.submitted << " ok=" << s.completed
     << " rejected_full=" << s.rejected_full
     << " rejected_shutdown=" << s.rejected_shutdown
     << " deadline_missed=" << s.deadline_missed
     << " failed_shutdown=" << s.failed_shutdown
     << " failed_error=" << s.failed_error << "\n"
     << "  batches: n=" << s.batches << " mean_size=" << s.mean_batch_size
     << " sizes=[";
  bool first = true;
  for (std::size_t size = 1; size < s.batch_size_counts.size(); ++size) {
    if (s.batch_size_counts[size] == 0) continue;
    if (!first) os << " ";
    os << size << "x" << s.batch_size_counts[size];
    first = false;
  }
  os << "]\n"
     << "  queue: peak_depth=" << s.peak_queue_depth
     << " wait p50=" << s.queue_p50_ms << "ms p95=" << s.queue_p95_ms
     << "ms p99=" << s.queue_p99_ms << "ms\n"
     << "  latency (ok): mean=" << s.latency_mean_ms
     << "ms p50=" << s.latency_p50_ms << "ms p95=" << s.latency_p95_ms
     << "ms p99=" << s.latency_p99_ms << "ms\n";
  return os.str();
}

std::string ServerStats::json() const {
  const Snapshot s = snapshot();
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << "{\"workers\":" << s.workers << ",\"submitted\":" << s.submitted
     << ",\"ok\":" << s.completed
     << ",\"rejected_full\":" << s.rejected_full
     << ",\"rejected_shutdown\":" << s.rejected_shutdown
     << ",\"rejected_total\":" << s.rejected_total()
     << ",\"deadline_missed\":" << s.deadline_missed
     << ",\"failed_shutdown\":" << s.failed_shutdown
     << ",\"failed_error\":" << s.failed_error
     << ",\"failed_total\":" << s.failed_total()
     << ",\"batches\":" << s.batches
     << ",\"mean_batch_size\":" << s.mean_batch_size
     << ",\"peak_queue_depth\":" << s.peak_queue_depth
     << ",\"queue_p50_ms\":" << s.queue_p50_ms
     << ",\"queue_p95_ms\":" << s.queue_p95_ms
     << ",\"queue_p99_ms\":" << s.queue_p99_ms
     << ",\"latency_mean_ms\":" << s.latency_mean_ms
     << ",\"latency_p50_ms\":" << s.latency_p50_ms
     << ",\"latency_p95_ms\":" << s.latency_p95_ms
     << ",\"latency_p99_ms\":" << s.latency_p99_ms << "}";
  return os.str();
}

}  // namespace taglets::serve
