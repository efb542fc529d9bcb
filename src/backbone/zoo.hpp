// Backbone zoo: lazily pretrains and memoizes the two simulated
// backbones for a world, with an optional on-disk cache so repeated
// bench invocations skip pretraining.
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
#include <map>
#include <optional>
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
  /// Safe to call concurrently; trains at most once.
  const ReferenceHead& zsl_reference();

 private:
  std::string cache_path(Kind kind) const;
  std::optional<Pretrained> load_cached(Kind kind) const;
  void store_cached(Kind kind, const Pretrained& backbone) const;

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
