#include "backbone/zoo.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

/// FNV-1a over raw bytes: hashes strings into cache keys and checksums
/// cache payloads.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Cache file header: magic, format, key, payload size and checksum.
/// Bump kCacheFormat whenever a cached artifact's layout or the code
/// that trains it changes, so older files read as misses (format 1 was
/// the headerless backbone file).
constexpr std::string_view kCacheMagic = "TGLTCACH";
constexpr std::uint32_t kCacheFormat = 2;

template <class T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <class T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("truncated");
  return value;
}

/// The payload of a whole cache file written under `key`. Otherwise
/// nullopt, with `why` saying what was wrong (empty when there is no
/// file at all).
std::optional<std::string> read_cache_file(const std::string& path,
                                           std::uint64_t key,
                                           std::string& why) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream bytes;
  bytes << file.rdbuf();
  std::istringstream in(bytes.str());
  try {
    std::string magic(kCacheMagic.size(), '\0');
    in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
    if (magic != kCacheMagic || read_pod<std::uint32_t>(in) != kCacheFormat) {
      why = "not a cache file of this format";
    } else if (read_pod<std::uint64_t>(in) != key) {
      why = "written under another key";
    } else {
      const auto size = read_pod<std::uint64_t>(in);
      const auto hash = read_pod<std::uint64_t>(in);
      std::string payload(std::istreambuf_iterator<char>(in), {});
      if (payload.size() != size) {
        why = "truncated payload";
      } else if (fnv1a(payload) != hash) {
        why = "corrupt payload";
      } else {
        return payload;
      }
    }
  } catch (const std::runtime_error&) {
    why = "truncated header";
  }
  return std::nullopt;
}

Pretrained read_backbone(std::istream& in, Kind kind,
                         std::size_t feature_dim) {
  Pretrained p;
  p.kind = kind;
  p.feature_dim = feature_dim;
  util::Rng rng(0);
  p.encoder = nn::Sequential::load(in, rng);
  p.pretrain_concepts.resize(read_pod<std::uint64_t>(in));
  for (auto& c : p.pretrain_concepts) {
    c = static_cast<graph::NodeId>(read_pod<std::uint64_t>(in));
  }
  p.final_train_accuracy = read_pod<double>(in);
  return p;
}

void write_backbone(std::ostream& out, const Pretrained& backbone) {
  backbone.encoder.save(out);
  write_pod<std::uint64_t>(out, backbone.pretrain_concepts.size());
  for (graph::NodeId c : backbone.pretrain_concepts) {
    write_pod<std::uint64_t>(out, c);
  }
  write_pod(out, backbone.final_train_accuracy);
}

}  // namespace

std::uint64_t pretrain_key(const synth::WorldConfig& wc,
                           const PretrainConfig& pc) {
  std::uint64_t names = wc.named_concepts.size();
  for (const std::string& name : wc.named_concepts) {
    names = util::combine_seeds({names, fnv1a(name)});
  }
  return util::combine_seeds({
      wc.seed, wc.concept_count, wc.min_children, wc.max_children,
      wc.cross_edges, quantize_knob(wc.cross_edge_locality, 1e6),
      wc.latent_dim, quantize_knob(wc.tree_step, 1e6),
      quantize_knob(wc.cross_pull, 1e6), wc.pixel_dim, wc.render_hidden_dim,
      quantize_knob(wc.render_gain, 1e6), wc.render_regions, wc.style_dim,
      quantize_knob(wc.style_scale, 1e6),
      quantize_knob(wc.intra_class_noise, 1e6),
      quantize_knob(wc.pixel_noise, 1e6), quantize_knob(wc.domain_shift, 1e6),
      quantize_knob(wc.clipart_shift_scale, 1e6), wc.word_dim,
      quantize_knob(wc.word_noise, 1e6), quantize_knob(wc.oov_fraction, 1e6),
      wc.retrofit_iterations, names,
      pc.hidden_dim, pc.feature_dim, pc.images_per_class, pc.epochs,
      pc.batch_size, quantize_knob(pc.lr, 1e9), quantize_knob(pc.momentum, 1e9),
      quantize_knob(pc.rn50_fraction, 1e6),
  });
}

Zoo::Zoo(const synth::World* world, PretrainConfig config,
         std::optional<std::string> cache_dir)
    : world_(world), config_(config) {
  TAGLETS_CHECK_NE(world_, nullptr, "Zoo: null world");
  // Unset means the default directory; set but empty disables the cache.
  const char* env = std::getenv("TAGLETS_CACHE");
  cache_dir_ = cache_dir.value_or(env != nullptr ? env : ".taglets_cache");
}

std::uint64_t Zoo::backbone_key(Kind kind) const {
  return util::combine_seeds({pretrain_key(world_->config(), config_),
                              static_cast<std::uint64_t>(kind)});
}

std::string Zoo::cache_path(const std::string& stem, std::uint64_t key) const {
  if (cache_dir_.empty()) return {};
  return cache_dir_ + "/" + stem + "_" + std::to_string(key) + ".bin";
}

bool Zoo::load_or_build(const std::string& stem, std::uint64_t key,
                        const std::function<void(std::istream&)>& load,
                        const std::function<void()>& build,
                        const std::function<void(std::ostream&)>& save) const {
  auto& registry = obs::MetricsRegistry::global();
  const std::string path = cache_path(stem, key);
  if (!path.empty()) {
    std::string why;
    if (auto payload = read_cache_file(path, key, why)) {
      try {
        std::istringstream in(std::move(*payload));
        load(in);
        registry.counter("zoo.cache_hits_total").add();
        TAGLETS_LOG(kInfo) << "loaded cached " << stem << " from " << path;
        return true;
      } catch (const std::exception& e) {
        why = std::string("unreadable payload: ") + e.what();
      }
    }
    if (!why.empty()) {
      TAGLETS_LOG(kWarn) << "ignoring cache file " << path << " (" << why
                         << "); rebuilding " << stem;
    }
  }
  registry.counter("zoo.cache_misses_total").add();
  build();
  if (path.empty()) return false;

  // The cache is a pure optimization: a failed write (full disk,
  // injected fault) is logged and swallowed, since the build already
  // succeeded. The write-temp-then-rename protocol guarantees the
  // previous cache file (or none) survives a crash or a concurrent
  // writer; the rename winner is whole either way.
  try {
    std::ostringstream body;
    save(body);
    const std::string payload = body.str();
    std::error_code ec;
    std::filesystem::create_directories(cache_dir_, ec);
    util::fault::retry_with_backoff(
        "cache write " + path, util::fault::RetryPolicy::from_env(), [&] {
          util::atomic_write_stream(path, "zoo.cache", [&](std::ostream& out) {
            out.write(kCacheMagic.data(),
                      static_cast<std::streamsize>(kCacheMagic.size()));
            write_pod(out, kCacheFormat);
            write_pod(out, key);
            write_pod<std::uint64_t>(out, payload.size());
            write_pod(out, fnv1a(payload));
            out.write(payload.data(),
                      static_cast<std::streamsize>(payload.size()));
          });
        });
  } catch (const std::runtime_error& e) {
    TAGLETS_LOG(kWarn) << "cache write failed for " << path << ": "
                       << e.what();
  }
  return false;
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
    obs::TraceSpan span;
    if (obs::trace_enabled()) {
      span.begin("backbone.get", {{"kind", kind_name(kind)}});
    }
    const bool hit = load_or_build(
        "backbone", backbone_key(kind),
        [&](std::istream& in) {
          built = read_backbone(in, kind, config_.feature_dim);
        },
        [&] {
          built = pretrain_backbone(*world_, kind, config_);
          obs::MetricsRegistry::global()
              .counter("backbone.pretrained_total")
              .add();
        },
        [&](std::ostream& out) { write_backbone(out, *built); });
    span.add_attr("cache", hit ? "hit" : "miss");
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
