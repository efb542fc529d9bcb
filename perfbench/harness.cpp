// perfbench_harness — the measuring half of the benchmark (run.py is the
// orchestrating half and owns every statistic). It calls the system's
// public entry points from outside and times them; it adds no tracing
// inside the program and only reads the spans and metrics the program
// already emits.
//
//   perfbench_harness provenance
//       one JSON line: build type, tensor backend, pool threads, and the
//       steal limit the orchestrator applies to load phases.
//   perfbench_harness pipeline --cache DIR [--warm N] [--traced]
//                              [--save-model PATH --save-inputs PATH]
//       repetitions of the fmd 1-shot run, each rebuilding world, SCADS,
//       backbone (through the cache in DIR), ZSL-KG engine and
//       Controller::run from scratch: one cold, N or N+1 warm (see
//       cmd_pipeline), and with --traced one traced. One JSON line per
//       repetition.
//   perfbench_harness serve --model PATH --inputs PATH
//   perfbench_harness fleet --model PATH --inputs PATH --connect EP
//       load generators; they read commands from stdin, one per line,
//       and answer each with one JSON line:
//         phase RATE SECONDS SEED [RELOAD_AT_S ...]   open-loop phase
//         saturate SECONDS WINDOW SEED                closed-loop step with
//                                                     WINDOW requests out
//         layers                                      last phase's layer stats
//         reload                                      fleet only: hot reload,
//                                                     which gives every shard
//                                                     a fresh serve::Server
//         micro                                       direct-call timings
//         quit
//   perfbench_harness selftest
//       checks that load phases time replies that arrive out of order.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backbone/zoo.hpp"
#include "eval/lab.hpp"
#include "fleet/client.hpp"
#include "fleet/protocol.hpp"
#include "modules/zsl_kg.hpp"
#include "nn/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scads/scads.hpp"
#include "serve/server.hpp"
#include "synth/split.hpp"
#include "synth/tasks.hpp"
#include "synth/world.hpp"
#include "taglets/controller.hpp"
#include "tensor/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/serialize.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace taglets;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Shortest round-trip text for a double (all its digits).
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

/// Cumulative CPU time of the whole machine, from /proc/stat: all of it,
/// and the part the hypervisor ran other guests on this VM's CPUs.
struct CpuTimes {
  unsigned long long total = 0, steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  for (int field = 0; field < 10; ++field) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    if (field < 8) t.total += v;  // guest time is already in user/nice
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of the machine's CPU time stolen between two readings.
double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::string require(const util::ArgParser& args, const std::string& name) {
  const std::string v = args.get(name, "");
  if (v.empty()) throw std::invalid_argument("missing --" + name);
  return v;
}

/// The request pool pipeline --save-inputs wrote: one row per request.
tensor::Tensor load_inputs(const std::string& path) {
  tensor::Tensor inputs = tensor::load_tensor(path);
  if (inputs.rank() != 2 || inputs.rows() == 0) {
    throw std::runtime_error("no request inputs in " + path);
  }
  return inputs;
}

/// FNV-1a over the bit patterns of every logit: equal fingerprints mean
/// bitwise-equal end-model outputs.
std::string fingerprint(const tensor::Tensor& logits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (float v : logits.data()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h;
  return out.str();
}

// -------------------------------------------------------------- pipeline

/// Layer metrics derived from the spans of one traced repetition.
struct SpanSummary {
  std::map<std::string, double> node_s;  // pipeline.node by node name
  double critical_path_s = 0.0;
  double node_total_s = 0.0;
  double nn_fit_s = 0.0;
  std::uint64_t nn_steps = 0;
  std::uint64_t parallel_tasks = 0;
  std::uint64_t spans = 0;
};

/// Longest chain of pipeline.node spans in which each span starts after
/// the previous one ended. With one lane every node is on it; with more
/// lanes it is the dependency chain the schedule actually waited on.
double longest_chain_s(std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<double> best(spans.size(), 0.0);
  double longest = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    best[i] = spans[i].second;
    for (std::size_t j = 0; j < i; ++j) {
      if (spans[j].first + spans[j].second <= spans[i].first) {
        best[i] = std::max(best[i], best[j] + spans[i].second);
      }
    }
    longest = std::max(longest, best[i]);
  }
  return longest * 1e-6;
}

SpanSummary summarize_spans(const std::vector<obs::TraceEvent>& events) {
  SpanSummary s;
  s.spans = events.size() + obs::Tracer::global().dropped();
  std::vector<std::pair<double, double>> nodes;
  for (const auto& e : events) {
    if (e.name == "pipeline.node") {
      for (const auto& [k, v] : e.attrs) {
        if (k == "node") s.node_s[v] += e.dur_us * 1e-6;
      }
      s.node_total_s += e.dur_us * 1e-6;
      nodes.emplace_back(e.ts_us, e.dur_us);
    } else if (e.name == "nn.fit") {
      s.nn_fit_s += e.dur_us * 1e-6;
      for (const auto& [k, v] : e.attrs) {
        if (k == "steps") s.nn_steps += std::stoull(v);
      }
    } else if (e.name == "parallel.for_ranges") {
      ++s.parallel_tasks;
    }
  }
  s.critical_path_s = longest_chain_s(std::move(nodes));
  return s;
}

struct Repetition {
  double total_s = 0, world_s = 0, scads_s = 0, backbone_s = 0, zsl_s = 0,
         task_s = 0, run_s = 0;
  double accuracy_pct = 0;
  std::string fingerprint;
  std::optional<SpanSummary> spans;
};

/// One run of what `taglets_run --dataset fmd --shots 1` does, from an
/// empty process state to a servable end model, with each layer's public
/// entry point timed on its own. The steps mirror eval::Lab's constructor
/// and taglets_run's main(); LabConfig supplies the same defaults.
Repetition run_pipeline(const std::string& cache_dir,
                        const std::string& save_model,
                        const std::string& save_inputs) {
  eval::LabConfig lab;
  lab.cache_dir = cache_dir;
  Repetition rep;
  const auto t0 = Clock::now();

  auto t = Clock::now();
  synth::World world(synth::default_world_config(lab.world_seed));
  rep.world_s = seconds_since(t);

  t = Clock::now();
  backbone::Zoo zoo(&world, lab.pretrain, lab.cache_dir);
  scads::Scads scads(world.graph(), world.taxonomy(), world.scads_embeddings());
  {
    util::Rng rng(util::combine_seeds({lab.world_seed, 0x21AAULL}));
    const auto concepts = world.auxiliary_concepts();
    synth::Dataset aux =
        world.make_auxiliary_corpus(concepts, lab.aux_images_per_concept, rng);
    aux.name = "imagenet-21k-s";
    scads.install_dataset(std::move(aux));
    using graph::Relation;
    scads.add_novel_concept("oatghurt", {{"yoghurt", Relation::kRelatedTo},
                                         {"oat_milk", Relation::kRelatedTo},
                                         {"milk", Relation::kIsA}});
    scads.add_novel_concept("soyghurt", {{"yoghurt", Relation::kRelatedTo},
                                         {"soy_milk", Relation::kRelatedTo},
                                         {"milk", Relation::kIsA}});
  }
  rep.scads_s = seconds_since(t);

  SystemConfig config;  // taglets_run defaults: rn50, all modules, seed 0
  config.train_seed = 1;
  t = Clock::now();
  zoo.get(config.backbone);
  rep.backbone_s = seconds_since(t);

  t = Clock::now();
  modules::ZslKgEngine zsl(zoo, lab.zsl);
  rep.zsl_s = seconds_since(t);

  t = Clock::now();
  const synth::TaskSpec& spec = synth::fmd_spec();
  const synth::Dataset pool =
      synth::build_task_pool(world, spec, /*sample_seed=*/11);
  const synth::FewShotTask task = synth::make_few_shot_task(
      pool, /*shots=*/1, spec.test_per_class, /*split_seed=*/101);
  rep.task_s = seconds_since(t);

  t = Clock::now();
  Controller controller(&scads, &zoo, &zsl);
  SystemResult result = controller.run(task, config);
  rep.run_s = seconds_since(t);
  rep.total_s = seconds_since(t0);

  const tensor::Tensor logits =
      result.end_model.model().logits(task.test_inputs, false);
  rep.accuracy_pct =
      100.0 * nn::evaluate_confusion(logits, task.test_labels).accuracy();
  rep.fingerprint = fingerprint(logits);
  if (!save_model.empty()) result.end_model.save(save_model);
  if (!save_inputs.empty()) {
    // Request pool for the load generators: test rows, then unlabeled.
    const std::size_t dim = task.test_inputs.cols();
    std::vector<float> rows(task.test_inputs.data().begin(),
                            task.test_inputs.data().end());
    rows.insert(rows.end(), task.unlabeled_inputs.data().begin(),
                task.unlabeled_inputs.data().end());
    const std::size_t n = rows.size() / dim;
    tensor::save_tensor(save_inputs,
                        tensor::Tensor::from_matrix(n, dim, std::move(rows)));
  }
  return rep;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// When the hypervisor gave more than this share of the machine's CPU
/// time to other guests during a warm repetition, one more is run, and
/// the orchestrator counts the least disturbed ones; it reruns a
/// disturbed load phase the same way (README.md, "Steal").
constexpr double kStealLimit = 0.03;

int cmd_pipeline(const util::ArgParser& args) {
  const std::string cache = require(args, "cache");
  const long warm = args.get_long("warm", 1);
  const bool traced = args.get_flag("traced");
  const std::string save_model = args.get("save-model", "");
  const std::string save_inputs = args.get("save-inputs", "");
  // Repetition 0 is cold (the cache directory starts empty), then `warm`
  // warm ones, plus one more if more than kStealLimit of the machine was
  // stolen during any of them; with --traced a warm one with the tracer
  // on ends the list.
  long reps = 1 + warm + (traced ? 1 : 0);
  bool retried = false;
  for (long i = 0; i < reps; ++i) {
    const bool trace_this = traced && i == reps - 1;
    if (trace_this) {
      obs::Tracer::global().clear();
      obs::set_trace_enabled(true);
    }
    const CpuTimes before = cpu_times();
    Repetition rep = run_pipeline(cache, i == 0 ? save_model : "",
                                  i == 0 ? save_inputs : "");
    const double steal = steal_share(before, cpu_times());
    if (i > 0 && !trace_this && steal > kStealLimit && !retried) {
      retried = true;
      ++reps;
    }
    if (trace_this) {
      obs::set_trace_enabled(false);
      rep.spans = summarize_spans(obs::Tracer::global().snapshot());
      obs::Tracer::global().clear();
    }
    std::ostringstream out;
    out << "{\"rep\":" << i << ",\"traced\":" << (trace_this ? "true" : "false")
        << ",\"total_s\":" << num(rep.total_s)
        << ",\"world_s\":" << num(rep.world_s)
        << ",\"scads_s\":" << num(rep.scads_s)
        << ",\"backbone_s\":" << num(rep.backbone_s)
        << ",\"zsl_s\":" << num(rep.zsl_s) << ",\"task_s\":" << num(rep.task_s)
        << ",\"run_s\":" << num(rep.run_s)
        << ",\"accuracy_pct\":" << num(rep.accuracy_pct)
        << ",\"fingerprint\":\"" << rep.fingerprint << "\""
        << ",\"cache_bytes\":" << directory_bytes(cache)
        << ",\"lanes\":" << util::Parallel::global().threads()
        << ",\"steal\":" << num(steal)
        << ",\"peak_rss_kb\":" << peak_rss_kb();
    if (rep.spans) {
      const SpanSummary& s = *rep.spans;
      out << ",\"spans\":{\"count\":" << s.spans
          << ",\"critical_path_s\":" << num(s.critical_path_s)
          << ",\"node_total_s\":" << num(s.node_total_s)
          << ",\"nn_fit_s\":" << num(s.nn_fit_s)
          << ",\"nn_steps\":" << s.nn_steps
          << ",\"parallel_tasks\":" << s.parallel_tasks << ",\"nodes\":{";
      bool first = true;
      for (const auto& [name, secs] : s.node_s) {
        out << (first ? "" : ",") << "\"" << name << "\":" << num(secs);
        first = false;
      }
      out << "}}";
    }
    out << "}";
    std::cout << out.str() << std::endl;
  }
  return 0;
}

// ----------------------------------------------------------- load phases

/// Seeded Poisson arrivals: due offsets (s) and request-pool indices.
struct Schedule {
  std::vector<double> due_s;
  std::vector<std::uint32_t> input;
};

Schedule make_schedule(double rate, double seconds, std::uint64_t seed,
                       std::size_t pool_size) {
  Schedule s;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(pool_size - 1));
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    s.due_s.push_back(t);
    s.input.push_back(pick(rng));
  }
  return s;
}

/// Outcome classes a load phase counts.
enum Outcome { kOk = 0, kRejected = 1, kFailed = 2, kMismatch = 3 };

struct PhaseResult {
  std::vector<double> latency_ms;  // from due time; < 0 = not ok
  std::vector<double> lag_ms;      // send time minus due time
  std::uint64_t outcome[4] = {0, 0, 0, 0};
  /// Start and end offsets (s) of each reload, and the index range
  /// [first, last) of the requests due from its start until 20 ms after
  /// its end (the new model's first batches).
  struct Reload {
    double start_s = 0, end_s = 0;
    std::size_t first = 0, last = 0;
  };
  std::vector<Reload> reloads;
  std::uint64_t reloads_failed = 0;
  double steal = 0;      // share of the machine stolen during the phase
  double elapsed_s = 0;  // from the phase's start to its last reply
  std::uint64_t lost = 0;  // no reply kDrainLimit after the last request
};

/// How long a phase waits for replies after its last request; a request
/// still unanswered then is lost, and counted as failed.
constexpr auto kDrainLimit = std::chrono::seconds(5);

/// Runs one open-loop phase. `submit(i, input)` returns a future for
/// request i; `classify(response, input)` maps its result to an
/// Outcome; `reload()` performs a hot reload. The generator sleeps to
/// each due time (spinning the last stretch), never waits for replies;
/// a collector thread timestamps each reply when its future becomes
/// ready, in whatever order replies arrive.
template <typename Future, typename Submit, typename Classify, typename Reload>
PhaseResult run_phase(const Schedule& schedule, const std::vector<double>& reload_at,
                      Submit submit, Classify classify, Reload reload) {
  const std::size_t n = schedule.due_s.size();
  PhaseResult r;
  r.latency_ms.assign(n, -1.0);
  r.lag_ms.assign(n, 0.0);
  std::vector<Future> futures(n);
  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> total{n};  // lowered if submitting throws
  const CpuTimes cpu_before = cpu_times();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto due_point = [&](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };

  std::thread collector([&] {
    // It blocks on the oldest outstanding reply for at most kSweep, then
    // sweeps all outstanding ones, so a reply that overtook an older one
    // is stamped at most kSweep late, and one in order exactly.
    constexpr auto kSweep = std::chrono::microseconds(50);
    std::vector<std::size_t> pending;
    std::size_t next = 0;
    std::optional<Clock::time_point> drain_deadline;
    auto resolve_if_ready = [&](std::size_t j) {
      if (futures[j].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        return false;
      }
      const auto done = Clock::now();
      auto response = futures[j].get();
      const int outcome = classify(response, schedule.input[j]);
      ++r.outcome[outcome];
      if (outcome == kOk) {
        r.latency_ms[j] =
            1e3 * seconds_between(due_point(schedule.due_s[j]), done);
      }
      return true;
    };
    for (;;) {
      for (const std::size_t avail = published.load(std::memory_order_acquire);
           next < avail; ++next) {
        pending.push_back(next);
      }
      const bool all_sent = next >= total.load(std::memory_order_acquire);
      if (pending.empty()) {
        if (all_sent) return;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      if (all_sent && !drain_deadline) drain_deadline = Clock::now() + kDrainLimit;
      if (drain_deadline && Clock::now() > *drain_deadline) {
        r.lost = pending.size();
        r.outcome[kFailed] += pending.size();
        return;
      }
      futures[pending.front()].wait_for(kSweep);
      std::erase_if(pending, resolve_if_ready);
    }
  });
  std::thread reloader([&] {
    for (double at : reload_at) {
      std::this_thread::sleep_until(due_point(at));
      const auto t1 = Clock::now();
      bool ok = false;
      try {
        ok = reload();
      } catch (const std::exception&) {
        // counted in reloads_failed
      }
      const auto t2 = Clock::now();
      r.reloads.push_back({seconds_between(start, t1),
                           seconds_between(start, t2)});
      if (!ok) ++r.reloads_failed;
    }
  });

  std::exception_ptr error;
  for (std::size_t i = 0; i < n; ++i) {
    const auto due = due_point(schedule.due_s[i]);
    auto now = Clock::now();
    if (due - now > std::chrono::microseconds(60)) {
      std::this_thread::sleep_until(due - std::chrono::microseconds(30));
    }
    while ((now = Clock::now()) < due) {
    }
    r.lag_ms[i] = 1e3 * seconds_between(due, now);
    try {
      futures[i] = submit(i, schedule.input[i]);
    } catch (...) {
      error = std::current_exception();
      total.store(i, std::memory_order_release);
      break;
    }
    published.store(i + 1, std::memory_order_release);
  }
  collector.join();
  r.elapsed_s = seconds_since(start);
  reloader.join();
  if (error) std::rethrow_exception(error);
  r.steal = steal_share(cpu_before, cpu_times());
  for (auto& reload : r.reloads) {
    const auto& due = schedule.due_s;
    reload.first = static_cast<std::size_t>(
        std::lower_bound(due.begin(), due.end(), reload.start_s) - due.begin());
    reload.last = static_cast<std::size_t>(
        std::upper_bound(due.begin(), due.end(), reload.end_s + 0.02) -
        due.begin());
  }
  return r;
}

/// Runs one closed-loop saturation step: keeps `window` requests
/// outstanding for `seconds`, submitting the next as soon as the oldest is
/// answered, then waits for the rest. Latency (logged, not reported) runs
/// from submission to when the loop collects the reply, in submission
/// order; a request unanswered kDrainLimit after it became the oldest is
/// lost.
/// `elapsed_s` runs to the last reply, so ok / elapsed_s is what the
/// server answered per second while it was never short of work.
template <typename Future, typename Submit, typename Classify>
PhaseResult run_saturated(double seconds, std::size_t window, std::uint64_t seed,
                          std::size_t pool_size, Submit submit, Classify classify) {
  struct Outstanding {
    Future reply;
    Clock::time_point sent;
    std::uint32_t input;
  };
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> pick(
      0, static_cast<std::uint32_t>(pool_size - 1));
  PhaseResult r;
  const CpuTimes cpu_before = cpu_times();
  const auto start = Clock::now();
  const auto stop_sending = start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  std::deque<Outstanding> outstanding;
  std::size_t sent = 0;
  for (;;) {
    while (outstanding.size() < window && Clock::now() < stop_sending) {
      const std::uint32_t input = pick(rng);
      outstanding.push_back({submit(sent++, input), Clock::now(), input});
    }
    if (outstanding.empty()) break;
    Outstanding& oldest = outstanding.front();
    if (oldest.reply.wait_for(kDrainLimit) != std::future_status::ready) {
      ++r.lost;
      ++r.outcome[kFailed];
      r.latency_ms.push_back(-1.0);
    } else {
      const int outcome = classify(oldest.reply.get(), oldest.input);
      ++r.outcome[outcome];
      r.latency_ms.push_back(
          outcome == kOk ? 1e3 * seconds_between(oldest.sent, Clock::now()) : -1.0);
    }
    outstanding.pop_front();
  }
  r.elapsed_s = seconds_since(start);
  r.lag_ms.assign(r.latency_ms.size(), 0.0);
  r.steal = steal_share(cpu_before, cpu_times());
  return r;
}

void append_list(std::ostringstream& out, const std::vector<double>& values) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ",";
    if (values[i] < 0) {
      out << "null";
    } else {
      out << std::fixed << std::setprecision(4) << values[i];
    }
  }
  out << "]";
}

std::string phase_json(const PhaseResult& r) {
  std::ostringstream out;
  out << "{\"latency_ms\":";
  append_list(out, r.latency_ms);
  out << ",\"lag_ms\":";
  append_list(out, r.lag_ms);
  out << ",\"ok\":" << r.outcome[kOk] << ",\"rejected\":" << r.outcome[kRejected]
      << ",\"failed\":" << r.outcome[kFailed]
      << ",\"mismatch\":" << r.outcome[kMismatch] << ",\"reloads\":[";
  for (std::size_t i = 0; i < r.reloads.size(); ++i) {
    const auto& rl = r.reloads[i];
    out << (i ? "," : "") << "{\"start_s\":" << num(rl.start_s)
        << ",\"end_s\":" << num(rl.end_s) << ",\"first\":" << rl.first
        << ",\"last\":" << rl.last << "}";
  }
  out << "],\"reloads_failed\":" << r.reloads_failed
      << ",\"steal\":" << num(r.steal)
      << ",\"elapsed_s\":" << num(r.elapsed_s) << ",\"lost\":" << r.lost
      << ",\"peak_rss_kb\":" << peak_rss_kb() << "}";
  return out.str();
}

// ------------------------------------------------- direct-call timings

/// Median over `rounds` of the mean time of `calls` back-to-back calls.
template <typename F>
double median_call_us(F&& f, int rounds, int calls) {
  std::vector<double> samples;
  for (int r = 0; r < rounds; ++r) {
    const auto t = Clock::now();
    for (int c = 0; c < calls; ++c) f();
    samples.push_back(1e6 * seconds_since(t) / calls);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double gemm_gflops(std::size_t m, std::size_t k, std::size_t n) {
  util::Rng rng(5);
  tensor::Tensor a = tensor::Tensor::zeros(m, k);
  tensor::Tensor b = tensor::Tensor::zeros(k, n);
  for (float& v : a.data()) v = static_cast<float>(rng.normal());
  for (float& v : b.data()) v = static_cast<float>(rng.normal());
  volatile float sink = 0;
  const double us = median_call_us(
      [&] { sink = sink + tensor::matmul(a, b).data()[0]; }, 15, 200);
  return 2.0 * static_cast<double>(m * k * n) / (us * 1e3);
}

std::string micro_json(ensemble::ServableModel& model,
                       const tensor::Tensor& inputs) {
  std::vector<std::size_t> one{0};
  std::vector<std::size_t> sixteen(16);
  for (std::size_t i = 0; i < sixteen.size(); ++i) sixteen[i] = i;
  const tensor::Tensor b1 = inputs.gather_rows(one);
  const tensor::Tensor b16 = inputs.gather_rows(sixteen);
  volatile std::size_t sink = 0;
  const double us1 = median_call_us(
      [&] { sink = sink + model.predict_batch(b1)[0]; }, 15, 200);
  const double us16 = median_call_us(
      [&] { sink = sink + model.predict_batch(b16)[0]; }, 15, 200);
  std::ostringstream out;
  out << "{\"predict_us_b1\":" << num(us1) << ",\"predict_us_b16\":" << num(us16)
      << ",\"gemm_gflops_train\":" << num(gemm_gflops(128, 64, 160))
      << ",\"gemm_gflops_serve\":" << num(gemm_gflops(8, 64, 160)) << "}";
  return out.str();
}

// ------------------------------------------------------ histogram diffs

/// Sum of every histogram named `name` across `snapshots` whose source
/// passes `want` (bucket layouts are identical per name).
obs::Histogram::Snapshot merged_histogram(
    const fleet::MetricsResponse& resp, const std::string& prefix,
    bool shards) {
  obs::Histogram::Snapshot total;
  for (const auto& snap : resp.snapshots) {
    bool is_shard = false;
    for (const auto& kv : snap.meta) {
      if (kv.first == "replica_endpoint") is_shard = true;
    }
    if (is_shard != shards) continue;
    for (const auto& h : snap.histograms) {
      if (h.name.rfind(prefix, 0) != 0) continue;
      if (total.counts.empty()) {
        total.bounds = h.snap.bounds;
        total.counts.assign(h.snap.counts.size(), 0);
      }
      if (h.snap.counts.size() != total.counts.size()) continue;
      for (std::size_t i = 0; i < total.counts.size(); ++i) {
        total.counts[i] += h.snap.counts[i];
      }
      total.count += h.snap.count;
      total.sum += h.snap.sum;
    }
  }
  return total;
}

obs::Histogram::Snapshot diff(const obs::Histogram::Snapshot& after,
                              const obs::Histogram::Snapshot& before) {
  obs::Histogram::Snapshot d = after;
  if (before.counts.size() != after.counts.size()) return d;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] -= before.counts[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

std::uint64_t counter_sum(const fleet::MetricsResponse& resp,
                          const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& snap : resp.snapshots) {
    for (const auto& c : snap.counters) {
      if (c.name == name) total += c.value;
    }
  }
  return total;
}

// ------------------------------------------------------- command loops

struct PhaseCommand {
  double rate = 0, seconds = 0;
  std::uint64_t seed = 0;
  std::vector<double> reload_at;
};

PhaseCommand parse_phase(std::istringstream& in) {
  PhaseCommand c;
  in >> c.rate >> c.seconds >> c.seed;
  if (!in || c.rate <= 0 || c.seconds <= 0 || c.seconds > 60 ||
      c.rate * c.seconds > 2e6) {
    throw std::invalid_argument("bad phase command");
  }
  double at = 0;
  while (in >> at) c.reload_at.push_back(at);
  return c;
}

struct SaturateCommand {
  double seconds = 0;
  std::size_t window = 0;
  std::uint64_t seed = 0;
};

SaturateCommand parse_saturate(std::istringstream& in) {
  SaturateCommand c;
  in >> c.seconds >> c.window >> c.seed;
  if (!in || c.seconds <= 0 || c.seconds > 60 || c.window == 0 ||
      c.window > 4096) {
    throw std::invalid_argument("bad saturate command");
  }
  return c;
}

serve::ServerConfig serving_defaults() {
  // taglets_run's --serve defaults.
  serve::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.batching.max_batch_size = 16;
  config.batching.max_delay_ms = 1.0;
  return config;
}

/// Load generators sleep to each due time; the default 50 us timer
/// slack would make every wake-up that late.
void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

int cmd_serve(const util::ArgParser& args) {
  tighten_timer_slack();
  const auto t0 = Clock::now();
  ensemble::ServableModel model =
      ensemble::ServableModel::load(require(args, "model"));
  const tensor::Tensor inputs =
      load_inputs(require(args, "inputs"));
  const std::vector<std::size_t> expected = model.predict_batch(inputs);
  std::vector<tensor::Tensor> rows;
  for (std::size_t i = 0; i < inputs.rows(); ++i) rows.push_back(inputs.row_copy(i));
  {
    serve::Server warm(model, serving_defaults());
    warm.start();
    if (!warm.predict(rows[0]).ok()) throw std::runtime_error("serve: not ready");
  }
  std::cout << "{\"ready_s\":" << num(seconds_since(t0)) << "}" << std::endl;

  auto classify = [&](const serve::Response& resp, std::uint32_t input) {
    if (resp.status == serve::Status::kRejected) return int(kRejected);
    if (!resp.ok()) return int(kFailed);
    return resp.label == expected[input] ? int(kOk) : int(kMismatch);
  };
  serve::ServerStats::Snapshot last;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit") break;
    if (cmd == "phase") {
      const PhaseCommand c = parse_phase(in);
      const Schedule schedule =
          make_schedule(c.rate, c.seconds, c.seed, rows.size());
      serve::Server server(model, serving_defaults());
      server.start();
      const PhaseResult r = run_phase<std::future<serve::Response>>(
          schedule, c.reload_at,
          [&](std::size_t, std::uint32_t input) {
            return server.submit(rows[input]);
          },
          classify, [] { return true; });
      server.stop();
      last = server.stats().snapshot();
      std::cout << phase_json(r) << std::endl;
    } else if (cmd == "saturate") {
      const SaturateCommand c = parse_saturate(in);
      serve::Server server(model, serving_defaults());
      server.start();
      const PhaseResult r = run_saturated<std::future<serve::Response>>(
          c.seconds, c.window, c.seed, rows.size(),
          [&](std::size_t, std::uint32_t input) {
            return server.submit(rows[input]);
          },
          classify);
      server.stop();
      std::cout << phase_json(r) << std::endl;
    } else if (cmd == "layers") {
      std::cout << "{\"queue_wait_p50_ms\":" << num(last.queue_p50_ms)
                << ",\"queue_wait_p99_ms\":" << num(last.queue_p99_ms)
                << ",\"batch_mean\":" << num(last.mean_batch_size)
                << ",\"rejected\":" << last.rejected_full << "}" << std::endl;
    } else if (cmd == "micro") {
      std::cout << micro_json(model, inputs) << std::endl;
    } else {
      throw std::invalid_argument("unknown command: " + line);
    }
  }
  return 0;
}

int cmd_fleet(const util::ArgParser& args) {
  tighten_timer_slack();
  const std::string model_path = require(args, "model");
  const std::string endpoint = require(args, "connect");
  ensemble::ServableModel model = ensemble::ServableModel::load(model_path);
  const tensor::Tensor inputs =
      load_inputs(require(args, "inputs"));
  const std::vector<std::size_t> expected = model.predict_batch(inputs);
  std::vector<std::vector<float>> rows;
  const std::size_t dim = inputs.cols();
  for (std::size_t i = 0; i < inputs.rows(); ++i) {
    rows.emplace_back(inputs.data().begin() + i * dim,
                      inputs.data().begin() + (i + 1) * dim);
  }

  // Two connections; the frontend may still be binding its socket.
  std::vector<std::unique_ptr<fleet::FleetClient>> clients;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (clients.size() < 2) {
    try {
      clients.push_back(std::make_unique<fleet::FleetClient>(
          fleet::FleetClientConfig{endpoint, 2000.0, 10000.0}));
    } catch (const std::exception&) {
      if (Clock::now() > deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  // Ready once every group answers (routing keys 0..15 cover both).
  for (bool ready = false; !ready;) {
    ready = true;
    for (std::uint64_t key = 0; key < 16; ++key) {
      if (clients[0]->predict(rows[0], key).status != fleet::Status::kOk) {
        ready = false;
      }
    }
    if (!ready) {
      if (Clock::now() > deadline) throw std::runtime_error("fleet not ready");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::cout << "{\"ready\":true}" << std::endl;

  fleet::PredictRequest probe_req;
  probe_req.features = rows[0];
  fleet::PredictResponse probe_resp;
  probe_resp.class_name = model.class_names().front();
  const std::size_t req_bytes = fleet::encode(probe_req).size();
  const std::size_t resp_bytes = fleet::encode(probe_resp).size();

  auto classify = [&](const fleet::PredictResponse& resp, std::uint32_t input) {
    if (resp.status == fleet::Status::kOverloaded) return int(kRejected);
    if (resp.status != fleet::Status::kOk) return int(kFailed);
    return resp.label == expected[input] ? int(kOk) : int(kMismatch);
  };
  fleet::MetricsResponse before, after;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit") break;
    if (cmd == "phase") {
      const PhaseCommand c = parse_phase(in);
      const Schedule schedule =
          make_schedule(c.rate, c.seconds, c.seed, rows.size());
      before = clients[0]->fleet_metrics();
      const PhaseResult r = run_phase<std::future<fleet::PredictResponse>>(
          schedule, c.reload_at,
          [&](std::size_t i, std::uint32_t input) {
            return clients[i % clients.size()]->submit(rows[input], i);
          },
          classify, [&] { return clients[0]->reload(model_path).ok; });
      after = clients[0]->fleet_metrics();
      std::cout << phase_json(r) << std::endl;
    } else if (cmd == "saturate") {
      const SaturateCommand c = parse_saturate(in);
      const PhaseResult r = run_saturated<std::future<fleet::PredictResponse>>(
          c.seconds, c.window, c.seed, rows.size(),
          [&](std::size_t i, std::uint32_t input) {
            return clients[i % clients.size()]->submit(rows[input], i);
          },
          classify);
      std::cout << phase_json(r) << std::endl;
    } else if (cmd == "layers") {
      const std::string fe = "fleet.frontend.";
      auto quantile = [&](const std::string& prefix, bool shards, double q) {
        return obs::histogram_quantile(
            diff(merged_histogram(after, prefix, shards),
                 merged_histogram(before, prefix, shards)),
            q);
      };
      const auto batch = diff(merged_histogram(after, "serve.batch_size", true),
                              merged_histogram(before, "serve.batch_size", true));
      std::cout << "{\"network_p50_ms\":" << num(quantile(fe + "network_ms", false, 0.5))
                << ",\"fleet_queue_wait_p50_ms\":"
                << num(quantile(fe + "queue_wait_ms", false, 0.5))
                << ",\"compute_p50_ms\":" << num(quantile(fe + "compute_ms", false, 0.5))
                << ",\"queue_wait_p50_ms\":"
                << num(quantile("serve.queue_wait_ms", true, 0.5))
                << ",\"queue_wait_p99_ms\":"
                << num(quantile("serve.queue_wait_ms", true, 0.99))
                << ",\"batch_mean\":" << num(batch.mean())
                << ",\"rejected\":"
                << counter_sum(after, "serve.requests_rejected_full_total") -
                       counter_sum(before, "serve.requests_rejected_full_total")
                << ",\"retries\":"
                << counter_sum(after, fe + "failovers_total") -
                       counter_sum(before, fe + "failovers_total")
                << ",\"req_bytes\":" << req_bytes
                << ",\"resp_bytes\":" << resp_bytes << "}" << std::endl;
    } else if (cmd == "reload") {
      const auto t = Clock::now();
      const bool ok = clients[0]->reload(model_path).ok;
      std::cout << "{\"ok\":" << (ok ? "true" : "false")
                << ",\"reload_s\":" << num(seconds_since(t)) << "}" << std::endl;
    } else if (cmd == "micro") {
      std::cout << micro_json(model, inputs) << std::endl;
    } else {
      throw std::invalid_argument("unknown command: " + line);
    }
  }
  for (auto& c : clients) c->close();
  return 0;
}

/// Times a fake server that answers out of order: each odd request, due
/// 1 ms after the even one before it, is answered 2 ms after it is due,
/// before the even one (10 ms). Each must be timed from its own answer,
/// not from the answer to an older request.
int cmd_selftest() {
  constexpr std::size_t kPairs = 25;
  constexpr double kEvenMs = 10.0, kOddMs = 2.0;
  Schedule schedule;
  for (std::size_t p = 0; p < kPairs; ++p) {
    schedule.due_s.push_back(0.02 * static_cast<double>(p));
    schedule.due_s.push_back(0.02 * static_cast<double>(p) + 0.001);
  }
  const std::size_t n = schedule.due_s.size();
  schedule.input.assign(n, 0);
  std::vector<std::promise<int>> replies(n);
  std::vector<Clock::time_point> sent(n);
  std::atomic<std::size_t> submitted{0};
  std::thread server([&] {
    // Answers in time order: odd request of a pair first, then the even.
    for (std::size_t p = 0; p < kPairs; ++p) {
      for (const std::size_t i : {2 * p + 1, 2 * p}) {
        while (submitted.load(std::memory_order_acquire) <= i) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        const double ms = i % 2 ? kOddMs : kEvenMs;
        std::this_thread::sleep_until(
            sent[i] + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(ms)));
        replies[i].set_value(0);
      }
    }
  });
  const PhaseResult r = run_phase<std::future<int>>(
      schedule, {},
      [&](std::size_t i, std::uint32_t) {
        sent[i] = Clock::now();
        auto reply = replies[i].get_future();
        submitted.store(i + 1, std::memory_order_release);
        return reply;
      },
      [](int, std::uint32_t) { return int(kOk); }, [] { return true; });
  server.join();
  std::vector<double> odd, even;
  for (std::size_t i = 0; i < n; ++i) {
    (i % 2 ? odd : even).push_back(r.latency_ms[i]);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double odd_ms = median(odd), even_ms = median(even);
  const bool ok = r.outcome[kOk] == n && odd_ms >= kOddMs &&
                  odd_ms < kEvenMs / 2 && even_ms >= kEvenMs &&
                  even_ms < 1.5 * kEvenMs;
  std::cout << "{\"ok\":" << (ok ? "true" : "false")
            << ",\"odd_p50_ms\":" << num(odd_ms)
            << ",\"even_p50_ms\":" << num(even_ms) << "}" << std::endl;
  return ok ? 0 : 1;
}

int cmd_provenance() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\",\"ndebug\":" << (ndebug ? "true" : "false")
            << ",\"tensor_backend\":\"" << tensor::backend::active_name()
            << "\",\"pool_threads\":" << util::Parallel::global().threads()
            << ",\"steal_limit\":" << num(kStealLimit) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    const std::string cmd =
        args.positional().empty() ? "" : args.positional().front();
    if (cmd == "provenance") return cmd_provenance();
    if (cmd == "pipeline") return cmd_pipeline(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "fleet") return cmd_fleet(args);
    if (cmd == "selftest") return cmd_selftest();
    std::cerr << "usage: perfbench_harness "
                 "provenance|pipeline|serve|fleet|selftest ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
