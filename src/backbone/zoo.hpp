// Backbone zoo: lazily pretrains and memoizes the two simulated
// backbones for a world, with an optional on-disk cache so repeated
// runs skip pretraining. The same disk cache holds other artifacts
// trained once per world (the ZSL-KG engine) through load_or_build.
//
// Thread-safe: get() and zsl_reference() may be called from concurrent
// pool lanes (the task-graph pipeline overlaps the backbone fetch with
// SCADS selection, and modules fan out afterwards). Pretraining for a
// given Kind runs exactly once — concurrent callers for the same Kind
// wait on the builder, callers for a different Kind proceed in
// parallel — and the returned references are stable for the zoo's
// lifetime (entries are never evicted; std::map nodes do not move).
// Cache files are written through util::atomic_io, so a killed process
// leaves either the previous cache file or none, never a torn one.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>

#include "backbone/backbone.hpp"
#include "util/sync.hpp"

namespace taglets::backbone {

/// Quantizes a real-valued config knob for fingerprint mixing:
/// round(value * scale) through a checked signed intermediate.
/// Saturates at the int64 range ends, maps NaN to a fixed sentinel,
/// and is well-defined for negative values — unlike the previous
/// `static_cast<uint64_t>(value * scale)`, which was UB for any
/// negative knob (e.g. a negative domain_shift) and could silently
/// collide cache keys. Exposed for unit tests.
std::uint64_t quantize_knob(double value, double scale);

/// Cache key over every WorldConfig and PretrainConfig field: anything
/// that changes a pretrained backbone must change its key. The
/// word-vector fields are included because the world draws its word
/// vectors from the same stream as its camera, so they change the
/// rendered images too. Keys of other per-world artifacts extend this.
std::uint64_t pretrain_key(const synth::WorldConfig& world,
                           const PretrainConfig& config);

class Zoo {
 public:
  /// `cache_dir` empty disables the disk cache. The default reads the
  /// TAGLETS_CACHE environment variable: unset means `.taglets_cache`,
  /// set but empty means no disk cache.
  explicit Zoo(const synth::World* world, PretrainConfig config = {},
               std::optional<std::string> cache_dir = std::nullopt);

  const synth::World& world() const { return *world_; }
  const PretrainConfig& config() const { return config_; }

  /// Pretrained backbone for `kind` (trains on first use). Safe to
  /// call concurrently; the returned reference stays valid and is
  /// never mutated after publication.
  Pretrained& get(Kind kind);

  /// Frozen-feature reference head over the ImageNet-1k-S concepts,
  /// computed against the RN50-S backbone (ZSL-KG supervision).
  /// Safe to call concurrently; trains at most once. Not kept on disk:
  /// its only reader, ZslKgEngine, caches its own trained result.
  const ReferenceHead& zsl_reference();

  /// Cache key of the backbone of `kind`.
  std::uint64_t backbone_key(Kind kind) const;
  /// Disk-cache file of artifact `stem` under `key`
  /// ("<dir>/<stem>_<key>.bin"), or "" when the disk cache is off.
  std::string cache_path(const std::string& stem, std::uint64_t key) const;

  /// The disk cache's one entry point. When `cache_path(stem, key)` holds
  /// a whole file whose header names `key`, streams its payload to
  /// `load` and returns true (a hit). Otherwise — no cache, no file, a
  /// truncated or corrupt file, a wrong key, or `load` throwing — runs
  /// `build`, streams the result out through `save` and returns false (a
  /// miss). A failed write is logged, never thrown: the artifact is
  /// built either way. Counts zoo.cache_hits_total and
  /// zoo.cache_misses_total (with the disk cache off, every build is a
  /// miss). `load` must leave its artifact untouched when it throws.
  bool load_or_build(const std::string& stem, std::uint64_t key,
                     const std::function<void(std::istream&)>& load,
                     const std::function<void()>& build,
                     const std::function<void(std::ostream&)>& save) const;

 private:

  /// CondVar wait predicates; they run with mu_ held by the wait
  /// machinery, which the static analysis cannot see.
  bool backbone_settled(Kind kind) const TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    return backbones_.count(kind) != 0 || building_.count(kind) == 0;
  }
  bool zsl_settled() const TAGLETS_NO_THREAD_SAFETY_ANALYSIS {
    return zsl_reference_.has_value() || !zsl_building_;
  }

  const synth::World* world_;
  PretrainConfig config_;
  std::string cache_dir_;

  mutable util::Mutex mu_{"backbone.zoo", util::lockrank::kBackboneZoo};
  util::CondVar cv_;
  std::map<Kind, Pretrained> backbones_ TAGLETS_GUARDED_BY(mu_);
  /// Kinds some thread is currently pretraining (lock dropped during
  /// the build; peers for the same Kind wait on cv_).
  std::set<Kind> building_ TAGLETS_GUARDED_BY(mu_);
  std::optional<ReferenceHead> zsl_reference_ TAGLETS_GUARDED_BY(mu_);
  bool zsl_building_ TAGLETS_GUARDED_BY(mu_) = false;
};

}  // namespace taglets::backbone
