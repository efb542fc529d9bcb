#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "backbone/backbone.hpp"
#include "backbone/zoo.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace taglets::backbone {
namespace {

TEST(Backbone, KindNamesDistinct) {
  EXPECT_STRNE(kind_name(Kind::kBitS), kind_name(Kind::kRn50S));
}

TEST(Backbone, PretrainingLearnsAuxiliaryTask) {
  auto& zoo = taglets::testing::small_zoo();
  const Pretrained& rn50 = zoo.get(Kind::kRn50S);
  // Far above 1/n_classes chance (~0.013 for the small world subset).
  EXPECT_GT(rn50.final_train_accuracy, 0.10);
  EXPECT_EQ(rn50.feature_dim, taglets::testing::small_pretrain_config().feature_dim);
}

TEST(Backbone, Rn50SeesSubsetBitSeesAll) {
  auto& zoo = taglets::testing::small_zoo();
  const Pretrained& rn50 = zoo.get(Kind::kRn50S);
  const Pretrained& bit = zoo.get(Kind::kBitS);
  EXPECT_LT(rn50.pretrain_concepts.size(), bit.pretrain_concepts.size());
  EXPECT_EQ(bit.pretrain_concepts.size(),
            taglets::testing::small_world().config().concept_count - 1);
}

TEST(Backbone, EncodersProduceFiniteFeatures) {
  auto& zoo = taglets::testing::small_zoo();
  auto& world = taglets::testing::small_world();
  util::Rng rng(5);
  tensor::Tensor img = world.sample_image(10, synth::Domain::kNatural, rng);
  for (Kind kind : {Kind::kRn50S, Kind::kBitS}) {
    nn::Sequential encoder = zoo.get(kind).encoder;  // copy
    tensor::Tensor features =
        encoder.forward(img.reshape(1, img.size()), false);
    EXPECT_EQ(features.cols(), zoo.get(kind).feature_dim);
    for (float v : features.data()) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0f);  // ReLU output
    }
  }
}

TEST(Backbone, PretrainedBeatsRandomEncoderFewShot) {
  auto& zoo = taglets::testing::small_zoo();
  auto& world = taglets::testing::small_world();
  auto task = taglets::testing::small_task(/*shots=*/5);
  const auto pc = taglets::testing::small_pretrain_config();

  auto evaluate = [&](const nn::Sequential& encoder) {
    util::Rng rng(9);
    nn::Classifier model(encoder, pc.feature_dim, task.num_classes(), rng);
    nn::FitConfig fit;
    fit.epochs = 10;
    fit.batch_size = 32;
    fit.min_steps = 200;
    fit.sgd.lr = 0.003;
    nn::fit_hard(model, task.labeled_inputs, task.labeled_labels, fit, rng);
    return nn::evaluate_accuracy(model, task.test_inputs, task.test_labels);
  };

  util::Rng rng(13);
  nn::Sequential random_encoder =
      nn::make_mlp({world.pixel_dim(), pc.hidden_dim, pc.feature_dim}, rng);
  random_encoder.add(std::make_unique<nn::ReLU>());

  const double pretrained = evaluate(zoo.get(Kind::kBitS).encoder);
  const double random = evaluate(random_encoder);
  EXPECT_GT(pretrained, random);
}

TEST(Backbone, ReferenceHeadShapes) {
  auto& zoo = taglets::testing::small_zoo();
  const ReferenceHead& head = zoo.zsl_reference();
  const Pretrained& rn50 = zoo.get(Kind::kRn50S);
  EXPECT_EQ(head.concepts.size(), rn50.pretrain_concepts.size());
  EXPECT_EQ(head.weights.rows(), head.concepts.size());
  EXPECT_EQ(head.weights.cols(), rn50.feature_dim);
  EXPECT_EQ(head.biases.size(), head.concepts.size());
}

TEST(Zoo, DiskCacheRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "taglets_test_cache").string();
  std::filesystem::remove_all(dir);
  auto& world = taglets::testing::small_world();
  PretrainConfig pc = taglets::testing::small_pretrain_config();
  pc.epochs = 2;  // keep this test fast

  Zoo first(&world, pc, dir);
  const Pretrained& trained = first.get(Kind::kRn50S);

  Zoo second(&world, pc, dir);
  const Pretrained& cached = second.get(Kind::kRn50S);

  EXPECT_EQ(cached.pretrain_concepts, trained.pretrain_concepts);
  EXPECT_DOUBLE_EQ(cached.final_train_accuracy, trained.final_train_accuracy);
  // Identical encoder outputs.
  util::Rng rng(3);
  tensor::Tensor img = world.sample_image(4, synth::Domain::kNatural, rng);
  tensor::Tensor batch = img.reshape(1, img.size());
  nn::Sequential ea = trained.encoder;
  nn::Sequential eb = cached.encoder;
  tensor::Tensor fa = ea.forward(batch, false);
  tensor::Tensor fb = eb.forward(batch, false);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_FLOAT_EQ(fa.data()[i], fb.data()[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(Zoo, EmptyCacheEnvDisablesDiskCache) {
  // TAGLETS_CACHE unset means ./.taglets_cache; set but empty means no
  // disk cache. Runs in a fresh working directory so the default
  // relative cache path is observable.
  namespace fs = std::filesystem;
  const fs::path cwd = fs::temp_directory_path() / "taglets_test_cache_env";
  fs::remove_all(cwd);
  fs::create_directories(cwd);
  const fs::path previous_cwd = fs::current_path();
  const char* previous_env = std::getenv("TAGLETS_CACHE");
  const std::optional<std::string> saved_env =
      previous_env != nullptr ? std::optional<std::string>(previous_env)
                              : std::nullopt;
  fs::current_path(cwd);
  auto& world = taglets::testing::small_world();
  PretrainConfig pc = taglets::testing::small_pretrain_config();
  pc.epochs = 2;  // keep this test fast

  ASSERT_EQ(setenv("TAGLETS_CACHE", "", 1), 0);
  Zoo disabled(&world, pc);
  disabled.get(Kind::kRn50S);
  EXPECT_TRUE(fs::is_empty(cwd)) << "TAGLETS_CACHE= still wrote a cache";

  ASSERT_EQ(unsetenv("TAGLETS_CACHE"), 0);
  Zoo defaulted(&world, pc);
  defaulted.get(Kind::kRn50S);
  EXPECT_TRUE(fs::is_directory(cwd / ".taglets_cache"));

  fs::current_path(previous_cwd);
  if (saved_env.has_value()) setenv("TAGLETS_CACHE", saved_env->c_str(), 1);
  fs::remove_all(cwd);
}

TEST(Zoo, CacheKeyCoversEveryConfigField) {
  // Each world and pretraining field changes what pretraining produces,
  // so changing any one of them must change the key (a stale backbone
  // was silently reused when momentum or a graph field changed).
  const synth::WorldConfig wc = taglets::testing::small_world_config();
  const PretrainConfig pc = taglets::testing::small_pretrain_config();
  const std::uint64_t base = pretrain_key(wc, pc);
  EXPECT_EQ(pretrain_key(wc, pc), base);
  const std::vector<std::function<void(synth::WorldConfig&)>> world_edits = {
      [](auto& c) { c.seed += 1; },
      [](auto& c) { c.concept_count += 1; },
      [](auto& c) { c.min_children += 1; },
      [](auto& c) { c.max_children += 1; },
      [](auto& c) { c.cross_edges += 1; },
      [](auto& c) { c.cross_edge_locality += 0.5; },
      [](auto& c) { c.latent_dim += 1; },
      [](auto& c) { c.tree_step += 0.01; },
      [](auto& c) { c.cross_pull += 0.01; },
      [](auto& c) { c.pixel_dim += 1; },
      [](auto& c) { c.render_hidden_dim += 1; },
      [](auto& c) { c.render_gain += 0.01; },
      [](auto& c) { c.render_regions += 1; },
      [](auto& c) { c.style_dim += 1; },
      [](auto& c) { c.style_scale += 0.01; },
      [](auto& c) { c.intra_class_noise += 0.01; },
      [](auto& c) { c.pixel_noise += 0.01; },
      [](auto& c) { c.domain_shift += 0.01; },
      [](auto& c) { c.clipart_shift_scale += 0.01; },
      [](auto& c) { c.word_dim += 1; },
      [](auto& c) { c.word_noise += 0.01; },
      [](auto& c) { c.oov_fraction += 0.01; },
      [](auto& c) { c.retrofit_iterations += 1; },
      [](auto& c) { c.named_concepts.push_back("extra"); },
      [](auto& c) { c.named_concepts.back() += "x"; },
  };
  for (std::size_t i = 0; i < world_edits.size(); ++i) {
    synth::WorldConfig edited = wc;
    world_edits[i](edited);
    EXPECT_NE(pretrain_key(edited, pc), base) << "world edit " << i;
  }
  const std::vector<std::function<void(PretrainConfig&)>> pretrain_edits = {
      [](auto& c) { c.hidden_dim += 1; },
      [](auto& c) { c.feature_dim += 1; },
      [](auto& c) { c.images_per_class += 1; },
      [](auto& c) { c.epochs += 1; },
      [](auto& c) { c.batch_size += 1; },
      [](auto& c) { c.lr += 1e-4; },
      [](auto& c) { c.momentum -= 0.05; },
      [](auto& c) { c.rn50_fraction += 0.01; },
  };
  for (std::size_t i = 0; i < pretrain_edits.size(); ++i) {
    PretrainConfig edited = pc;
    pretrain_edits[i](edited);
    EXPECT_NE(pretrain_key(wc, edited), base) << "pretrain edit " << i;
  }
}

TEST(Zoo, MomentumOrCrossEdgesChangeTheBackbonePath) {
  auto& world = taglets::testing::small_world();
  const PretrainConfig pc = taglets::testing::small_pretrain_config();
  const Zoo zoo(&world, pc, "cache");
  const std::string path = zoo.cache_path("backbone", zoo.backbone_key(Kind::kRn50S));

  PretrainConfig other_momentum = pc;
  other_momentum.momentum = 0.5;
  const Zoo momentum_zoo(&world, other_momentum, "cache");
  EXPECT_NE(momentum_zoo.cache_path(
                "backbone", momentum_zoo.backbone_key(Kind::kRn50S)),
            path);

  synth::WorldConfig wc = taglets::testing::small_world_config();
  wc.cross_edges += 50;
  const synth::World other_world(wc);
  const Zoo graph_zoo(&other_world, pc, "cache");
  EXPECT_NE(graph_zoo.cache_path("backbone",
                                 graph_zoo.backbone_key(Kind::kRn50S)),
            path);
  EXPECT_NE(zoo.backbone_key(Kind::kBitS), zoo.backbone_key(Kind::kRn50S));
}

TEST(Zoo, LoadOrBuildRebuildsOnTruncatedCorruptOrWrongKeyFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "taglets_backbone_test_probe";
  fs::remove_all(dir);
  const Zoo zoo(&taglets::testing::small_world(),
                taglets::testing::small_pretrain_config(), dir.string());
  auto& registry = obs::MetricsRegistry::global();
  auto& hits = registry.counter("zoo.cache_hits_total");
  auto& misses = registry.counter("zoo.cache_misses_total");

  // A probe artifact: a string the cache round-trips.
  const std::string artifact = "probe payload 0123456789";
  std::string value;
  int builds = 0;
  auto fetch = [&](std::uint64_t key) {
    value.clear();
    return zoo.load_or_build(
        "probe", key,
        [&](std::istream& in) {
          value.assign(std::istreambuf_iterator<char>(in), {});
        },
        [&] {
          ++builds;
          value = artifact;
        },
        [&](std::ostream& out) { out << value; });
  };
  const std::string path = zoo.cache_path("probe", 42);
  auto rewrite = [&](const std::function<void(std::string&)>& edit) {
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    edit(bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  };

  const auto hits0 = hits.value();
  const auto misses0 = misses.value();
  EXPECT_FALSE(fetch(42));  // cold: builds and stores
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fetch(42));   // warm: loads
  EXPECT_EQ(value, artifact);
  EXPECT_EQ(builds, 1);

  rewrite([](std::string& b) { b.resize(b.size() - 3); });  // truncated
  EXPECT_FALSE(fetch(42));
  EXPECT_EQ(value, artifact);
  EXPECT_TRUE(fetch(42)) << "the rebuild did not rewrite the file";

  rewrite([](std::string& b) { b.back() ^= 0x01; });  // corrupt payload
  EXPECT_FALSE(fetch(42));
  rewrite([](std::string& b) { b[0] ^= 0x01; });  // corrupt magic
  EXPECT_FALSE(fetch(42));
  rewrite([](std::string& b) { b.resize(5); });  // truncated header
  EXPECT_FALSE(fetch(42));

  // A whole file under another key's name is not that key's artifact.
  fs::copy_file(path, zoo.cache_path("probe", 43));
  EXPECT_FALSE(fetch(43));
  EXPECT_EQ(value, artifact);
  EXPECT_EQ(builds, 6);
  EXPECT_EQ(hits.value() - hits0, 2u);
  EXPECT_EQ(misses.value() - misses0, 6u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_FALSE(entry.path().string().ends_with(".tmp")) << entry.path();
  }
  fs::remove_all(dir);
}

TEST(Zoo, RejectsNullWorld) {
  EXPECT_THROW(Zoo(nullptr, PretrainConfig{}, std::string{}),
               std::invalid_argument);
}

TEST(Zoo, ConcurrentColdGetPretrainsOnceAndReturnsStableReferences) {
  // TSan regression for the unsynchronized map in Zoo::get: N threads
  // hammer a cold zoo; pretraining for each Kind must run exactly once
  // and every caller must receive the same (stable) object.
  auto& world = taglets::testing::small_world();
  PretrainConfig pc = taglets::testing::small_pretrain_config();
  pc.epochs = 2;  // keep the hammer fast
  Zoo zoo(&world, pc, std::string{});  // no disk cache

  const auto pretrained_before = obs::MetricsRegistry::global()
                                     .counter("backbone.pretrained_total")
                                     .value();
  constexpr int kThreads = 8;
  std::vector<const Pretrained*> rn50(kThreads, nullptr);
  std::vector<const Pretrained*> bit(kThreads, nullptr);
  std::vector<const ReferenceHead*> heads(kThreads, nullptr);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Alternate the first touch so both Kinds race from cold.
        if (t % 2 == 0) {
          rn50[t] = &zoo.get(Kind::kRn50S);
          bit[t] = &zoo.get(Kind::kBitS);
        } else {
          bit[t] = &zoo.get(Kind::kBitS);
          rn50[t] = &zoo.get(Kind::kRn50S);
        }
        heads[t] = &zoo.zsl_reference();
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(rn50[t], rn50[0]) << "thread " << t;
    EXPECT_EQ(bit[t], bit[0]) << "thread " << t;
    EXPECT_EQ(heads[t], heads[0]) << "thread " << t;
  }
  // Exactly one pretraining per Kind despite 8 concurrent callers.
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("backbone.pretrained_total")
                .value(),
            pretrained_before + 2);
}

TEST(Zoo, QuantizeKnobHandlesNegativeHugeAndNan) {
  // Regression for the fingerprint UB: static_cast<uint64_t> of a
  // negative double is undefined; quantize_knob rounds through a
  // checked signed intermediate instead.
  EXPECT_EQ(quantize_knob(0.0, 1e6), 0u);
  EXPECT_EQ(quantize_knob(1.5, 1e6), 1500000u);
  EXPECT_EQ(quantize_knob(-1.5, 1e6),
            static_cast<std::uint64_t>(std::int64_t{-1500000}));
  // Rounding, not truncation, so nearby knobs stay distinct.
  EXPECT_NE(quantize_knob(1.0000004, 1e6), quantize_knob(1.0000016, 1e6));
  // Saturation at the int64 range ends instead of llround UB.
  EXPECT_EQ(quantize_knob(1e300, 1e6),
            static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(quantize_knob(-1e300, 1e6),
            static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::min()));
  // NaN maps to a fixed sentinel — deterministic, and distinct from 0.
  const double nan = std::nan("");
  EXPECT_EQ(quantize_knob(nan, 1e6), 0x7FF8000000000000ULL);
  EXPECT_EQ(quantize_knob(1.0, nan), 0x7FF8000000000000ULL);

  // Negative knobs produce distinct fingerprint components (the old
  // cast collapsed them unpredictably).
  EXPECT_NE(quantize_knob(-0.25, 1e6), quantize_knob(-0.5, 1e6));
  EXPECT_NE(quantize_knob(-0.25, 1e6), quantize_knob(0.25, 1e6));
}

}  // namespace
}  // namespace taglets::backbone
