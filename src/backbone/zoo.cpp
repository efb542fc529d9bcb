#include "backbone/zoo.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "obs/metrics.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace taglets::backbone {

std::uint64_t quantize_knob(double value, double scale) {
  const double scaled = value * scale;
  if (std::isnan(scaled)) return 0x7FF8000000000000ULL;
  // Largest double exactly representable below 2^63; beyond it,
  // llround's behavior is undefined, so saturate first.
  constexpr double kLimit = 9223372036854774784.0;
  std::int64_t quantized;
  if (scaled >= kLimit) {
    quantized = std::numeric_limits<std::int64_t>::max();
  } else if (scaled <= -kLimit) {
    quantized = std::numeric_limits<std::int64_t>::min();
  } else {
    quantized = std::llround(scaled);
  }
  return static_cast<std::uint64_t>(quantized);
}

namespace {

/// Cache key mixing every input that affects pretraining output.
std::uint64_t config_fingerprint(const synth::WorldConfig& wc,
                                 const PretrainConfig& pc, Kind kind) {
  return util::combine_seeds({
      wc.seed, wc.concept_count, wc.latent_dim, wc.pixel_dim, wc.word_dim,
      wc.render_hidden_dim, wc.render_regions, wc.style_dim,
      quantize_knob(wc.style_scale, 1e6),
      quantize_knob(wc.render_gain, 1e6),
      quantize_knob(wc.intra_class_noise, 1e6),
      quantize_knob(wc.pixel_noise, 1e6),
      quantize_knob(wc.tree_step, 1e6),
      quantize_knob(wc.domain_shift, 1e6),
      pc.hidden_dim, pc.feature_dim, pc.images_per_class, pc.epochs,
      pc.batch_size, quantize_knob(pc.lr, 1e9),
      quantize_knob(pc.rn50_fraction, 1e6),
      static_cast<std::uint64_t>(kind),
  });
}

}  // namespace

Zoo::Zoo(const synth::World* world, PretrainConfig config,
         std::optional<std::string> cache_dir)
    : world_(world), config_(config) {
  TAGLETS_CHECK_NE(world_, nullptr, "Zoo: null world");
  // Unset means the default directory; set but empty disables the cache.
  const char* env = std::getenv("TAGLETS_CACHE");
  cache_dir_ = cache_dir.value_or(env != nullptr ? env : ".taglets_cache");
}

std::string Zoo::cache_path(Kind kind) const {
  if (cache_dir_.empty()) return {};
  const std::uint64_t fp = config_fingerprint(world_->config(), config_, kind);
  return cache_dir_ + "/backbone_" + std::to_string(fp) + ".bin";
}

std::optional<Pretrained> Zoo::load_cached(Kind kind) const {
  const std::string path = cache_path(kind);
  if (path.empty()) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    Pretrained p;
    p.kind = kind;
    p.feature_dim = config_.feature_dim;
    util::Rng rng(0);
    p.encoder = nn::Sequential::load(in, rng);
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    p.pretrain_concepts.resize(n);
    for (auto& c : p.pretrain_concepts) {
      std::uint64_t v = 0;
      in.read(reinterpret_cast<char*>(&v), sizeof(v));
      c = static_cast<graph::NodeId>(v);
    }
    in.read(reinterpret_cast<char*>(&p.final_train_accuracy),
            sizeof(p.final_train_accuracy));
    if (!in) return std::nullopt;
    TAGLETS_LOG(kInfo) << "loaded cached backbone " << kind_name(kind);
    return p;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void Zoo::store_cached(Kind kind, const Pretrained& backbone) const {
  const std::string path = cache_path(kind);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cache_dir_, ec);
  // The cache is a pure optimization: a failed write (full disk,
  // injected fault) is logged and swallowed — training already
  // succeeded. The write-temp-then-rename protocol guarantees the
  // previous cache file (or none) survives a crash or a concurrent
  // writer; the rename winner is whole either way.
  try {
    util::fault::retry_with_backoff(
        "backbone cache " + std::string(kind_name(kind)),
        util::fault::RetryPolicy::from_env(), [&] {
          util::atomic_write_stream(path, "zoo.cache", [&](std::ostream& out) {
            backbone.encoder.save(out);
            const std::uint64_t n = backbone.pretrain_concepts.size();
            out.write(reinterpret_cast<const char*>(&n), sizeof(n));
            for (graph::NodeId c : backbone.pretrain_concepts) {
              const std::uint64_t v = c;
              out.write(reinterpret_cast<const char*>(&v), sizeof(v));
            }
            out.write(
                reinterpret_cast<const char*>(&backbone.final_train_accuracy),
                sizeof(backbone.final_train_accuracy));
          });
        });
  } catch (const std::runtime_error& e) {
    TAGLETS_LOG(kWarn) << "backbone cache write failed for "
                       << kind_name(kind) << ": " << e.what();
  }
}

Pretrained& Zoo::get(Kind kind) {
  util::MutexLock lock(mu_);
  for (;;) {
    auto it = backbones_.find(kind);
    if (it != backbones_.end()) return it->second;
    if (building_.insert(kind).second) break;  // this thread builds
    // Another thread is pretraining this Kind: wait for it to either
    // publish the backbone or give up (exception), then re-check.
    cv_.wait(lock, [this, kind] { return backbone_settled(kind); });
  }

  // Build with the lock dropped — pretraining is minutes of compute
  // and may itself use the parallel pool; holding mu_ across it would
  // serialize unrelated Kinds and invert the lock order.
  lock.unlock();
  std::optional<Pretrained> built;
  try {
    built = load_cached(kind);
    if (!built) {
      built = pretrain_backbone(*world_, kind, config_);
      obs::MetricsRegistry::global().counter("backbone.pretrained_total").add();
      store_cached(kind, *built);
    }
  } catch (...) {
    lock.lock();
    building_.erase(kind);
    lock.unlock();
    cv_.notify_all();
    throw;
  }

  lock.lock();
  Pretrained& published =
      backbones_.emplace(kind, std::move(*built)).first->second;
  building_.erase(kind);
  lock.unlock();
  cv_.notify_all();
  // Safe after unlock: map nodes are stable and entries are never
  // erased, so the reference outlives any future get() traffic.
  return published;
}

const ReferenceHead& Zoo::zsl_reference() {
  // Resolve the backbone before taking mu_: get() acquires the same
  // mutex, and the rank checker (rightly) rejects recursion.
  Pretrained& rn50 = get(Kind::kRn50S);

  util::MutexLock lock(mu_);
  for (;;) {
    if (zsl_reference_) return *zsl_reference_;
    if (!zsl_building_) {
      zsl_building_ = true;
      break;
    }
    cv_.wait(lock, [this] { return zsl_settled(); });
  }

  lock.unlock();
  std::optional<ReferenceHead> head;
  try {
    head = train_reference_head(*world_, rn50, rn50.pretrain_concepts,
                                config_);
  } catch (...) {
    lock.lock();
    zsl_building_ = false;
    lock.unlock();
    cv_.notify_all();
    throw;
  }

  lock.lock();
  zsl_reference_ = std::move(*head);
  zsl_building_ = false;
  const ReferenceHead& published = *zsl_reference_;
  lock.unlock();
  cv_.notify_all();
  return published;
}

}  // namespace taglets::backbone
