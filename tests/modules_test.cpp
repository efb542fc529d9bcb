#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "backbone/zoo.hpp"
#include "modules/fixmatch.hpp"
#include "modules/module.hpp"
#include "modules/multitask.hpp"
#include "modules/prototype.hpp"
#include "modules/registry.hpp"
#include "modules/transfer.hpp"
#include "modules/trgcn.hpp"
#include "modules/zsl_kg.hpp"
#include "nn/grad_check.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scads/selection.hpp"
#include "test_support.hpp"

namespace taglets::modules {
namespace {

using tensor::Tensor;

/// Shared per-binary context pieces: a task, a selection, and the
/// pretrained RN50-S backbone from the small zoo.
struct Fixture {
  synth::FewShotTask task = taglets::testing::small_task(/*shots=*/2);
  scads::Selection selection = [this] {
    scads::SelectionConfig config;
    config.seed = 3;
    config.images_per_concept = 6;
    return scads::select_auxiliary(taglets::testing::small_scads(), task,
                                   config);
  }();
  const backbone::Pretrained* backbone =
      &taglets::testing::small_zoo().get(backbone::Kind::kRn50S);

  ModuleContext context(double epoch_scale = 0.3) {
    ModuleContext ctx;
    ctx.task = &task;
    ctx.scads = &taglets::testing::small_scads();
    ctx.selection = &selection;
    ctx.backbone = backbone;
    ctx.train_seed = 11;
    ctx.epoch_scale = epoch_scale;
    return ctx;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

ZslKgEngine& test_engine() {
  static ZslKgEngine engine = [] {
    ZslKgEngine::Config config;
    config.epochs = 20;
    config.val_classes = 10;
    return ZslKgEngine(taglets::testing::small_zoo(), config);
  }();
  return engine;
}

void expect_valid_taglet(Taglet& taglet, const synth::FewShotTask& task) {
  Tensor proba = taglet.predict_proba(task.test_inputs);
  ASSERT_EQ(proba.rows(), task.test_inputs.rows());
  ASSERT_EQ(proba.cols(), task.num_classes());
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    double sum = 0.0;
    for (float v : proba.row(i)) {
      ASSERT_GE(v, 0.0f);
      sum += v;
    }
    ASSERT_NEAR(sum, 1.0, 1e-4);
  }
}

// ------------------------------------------------------------- helpers

TEST(ModuleHelpers, ScaledEpochsFloorsAtOne) {
  ModuleContext ctx;
  ctx.epoch_scale = 0.01;
  EXPECT_EQ(scaled_epochs(10, ctx), 1u);
  ctx.epoch_scale = 1.0;
  EXPECT_EQ(scaled_epochs(10, ctx), 10u);
  ctx.epoch_scale = 2.0;
  EXPECT_EQ(scaled_epochs(10, ctx), 20u);
}

TEST(ModuleHelpers, ModuleRngDecorrelatedByName) {
  ModuleContext ctx;
  ctx.train_seed = 5;
  util::Rng a = module_rng(ctx, "transfer");
  util::Rng b = module_rng(ctx, "multitask");
  EXPECT_NE(a.next(), b.next());
  util::Rng a2 = module_rng(ctx, "transfer");
  EXPECT_EQ(util::Rng(module_rng(ctx, "transfer").next()).next(),
            util::Rng(a2.next()).next());
}

// ------------------------------------------------------------- registry

TEST(Registry, BuiltinsPresent) {
  auto registry = ModuleRegistry::with_builtins();
  for (const std::string& name : ModuleRegistry::default_lineup()) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_NE(registry.create(name), nullptr);
  }
  EXPECT_EQ(ModuleRegistry::default_lineup().size(), 4u);
}

TEST(Registry, CustomModuleRegistration) {
  class NullModule : public Module {
   public:
    std::string name() const override { return "null"; }
    Taglet train(const ModuleContext& context) const override {
      util::Rng rng(1);
      nn::Sequential encoder;
      encoder.add(std::make_unique<nn::Linear>(
          context.task->labeled_inputs.cols(), 4, rng));
      return Taglet("null", nn::Classifier(encoder, 4,
                                           context.task->num_classes(), rng));
    }
  };
  auto registry = ModuleRegistry::with_builtins();
  registry.register_module("null", [] { return std::make_unique<NullModule>(); });
  EXPECT_TRUE(registry.contains("null"));
  EXPECT_EQ(registry.create("null")->name(), "null");
  EXPECT_THROW(registry.create("missing"), std::invalid_argument);
  EXPECT_THROW(registry.register_module("x", nullptr), std::invalid_argument);
}

// --------------------------------------------------------------- trgcn

TEST(TrGcn, PredictDeterministic) {
  auto& world = taglets::testing::small_world();
  TrGcn::Config config;
  config.input_dim = world.config().word_dim;
  config.output_dim = 5;
  util::Rng rng(3);
  TrGcn gnn(config, rng);
  Tensor a = gnn.predict(world.graph(), world.scads_embeddings(), 10);
  Tensor b = gnn.predict(world.graph(), world.scads_embeddings(), 10);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(a.size(), 5u);
}

TEST(TrGcn, GradCheck) {
  auto& world = taglets::testing::small_world();
  TrGcn::Config config;
  config.input_dim = world.config().word_dim;
  config.hidden_dim = 8;
  config.output_dim = 4;
  config.max_neighbors = 6;
  util::Rng rng(5);
  TrGcn gnn(config, rng);

  // Central differences on fp32 with ReLU kinks are noisy for unlucky
  // centers; require that the *median* center checks out cleanly.
  Tensor target = Tensor::from_vector({0.5f, -0.25f, 1.0f, 0.0f});
  std::size_t clean = 0;
  const std::vector<graph::NodeId> centers{20, 50, 120};
  for (graph::NodeId center : centers) {
    auto loss_fn = [&] {
      Tensor out = gnn.predict(world.graph(), world.scads_embeddings(), center);
      return nn::mse(out, target).loss;
    };
    gnn.zero_grad();
    const auto inputs =
        gnn.inputs(world.graph(), world.scads_embeddings(), center);
    auto cache = gnn.forward(inputs);
    auto loss = nn::mse(cache.output, target);
    gnn.backward(cache, loss.grad_logits);
    if (nn::max_param_grad_error(gnn.parameters(), loss_fn, 1e-2) < 5e-2) {
      ++clean;
    }
  }
  EXPECT_GE(clean, 2u);
}

TEST(TrGcn, SnapshotRestoreRoundTrip) {
  auto& world = taglets::testing::small_world();
  TrGcn::Config config;
  config.input_dim = world.config().word_dim;
  config.output_dim = 3;
  util::Rng rng(7);
  TrGcn gnn(config, rng);
  auto snapshot = gnn.snapshot();
  Tensor before = gnn.predict(world.graph(), world.scads_embeddings(), 5);
  // Perturb.
  for (auto* p : gnn.parameters()) {
    for (float& v : p->value.data()) v += 1.0f;
  }
  Tensor perturbed = gnn.predict(world.graph(), world.scads_embeddings(), 5);
  float diff = 0.0f;
  for (std::size_t i = 0; i < before.size(); ++i) {
    diff += std::abs(before[i] - perturbed[i]);
  }
  EXPECT_GT(diff, 0.0f);
  gnn.restore(snapshot);
  Tensor after = gnn.predict(world.graph(), world.scads_embeddings(), 5);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
  EXPECT_THROW(gnn.restore({}), std::invalid_argument);
}

// --------------------------------------------------------- real modules

TEST(TransferModule, ProducesValidTaglet) {
  auto& f = fixture();
  TransferConfig config;
  config.aux_min_steps = 150;
  config.target_min_steps = 400;
  TransferModule module(config);
  Taglet taglet = module.train(f.context(/*epoch_scale=*/1.0));
  EXPECT_EQ(taglet.name(), "transfer");
  expect_valid_taglet(taglet, f.task);
  // Learns something: well above chance (10%) on the training shots.
  Tensor logits = taglet.model().logits(f.task.labeled_inputs, false);
  EXPECT_GT(nn::accuracy(logits, f.task.labeled_labels), 0.4);
}

TEST(TransferModule, RequiresContext) {
  TransferModule module;
  ModuleContext empty;
  EXPECT_THROW(module.train(empty), std::invalid_argument);
}

TEST(MultiTaskModule, ProducesValidTaglet) {
  auto& f = fixture();
  MultiTaskConfig config;
  config.min_steps = 100;
  MultiTaskModule module(config);
  Taglet taglet = module.train(f.context());
  EXPECT_EQ(taglet.name(), "multitask");
  expect_valid_taglet(taglet, f.task);
}

TEST(MultiTaskModule, LambdaZeroStillTrainsTarget) {
  auto& f = fixture();
  MultiTaskConfig config;
  config.lambda = 0.0;
  config.min_steps = 300;
  MultiTaskModule module(config);
  Taglet taglet = module.train(f.context(/*epoch_scale=*/1.0));
  Tensor logits = taglet.model().logits(f.task.labeled_inputs, false);
  EXPECT_GT(nn::accuracy(logits, f.task.labeled_labels), 0.25);
}

TEST(FixMatchModule, ProducesValidTaglet) {
  auto& f = fixture();
  FixMatchConfig config;
  config.pretrain_min_steps = 60;
  config.ssl_min_steps = 80;
  config.ssl_epochs = 2;
  FixMatchModule module(config);
  Taglet taglet = module.train(f.context());
  EXPECT_EQ(taglet.name(), "fixmatch");
  expect_valid_taglet(taglet, f.task);
}

TEST(FixMatchCore, RunsWithoutUnlabeledData) {
  auto& f = fixture();
  synth::FewShotTask task = f.task;
  task.unlabeled_inputs = Tensor::zeros(0, task.labeled_inputs.cols());
  task.unlabeled_true_labels.clear();
  FixMatchConfig config;
  config.ssl_epochs = 2;
  config.ssl_min_steps = 20;
  util::Rng rng(3);
  nn::Classifier model = fixmatch_train(task, f.backbone->encoder,
                                        f.backbone->feature_dim, config, rng);
  EXPECT_EQ(model.num_classes(), task.num_classes());
}

TEST(ZslKgEngine, PredictsHeadsForKnownClasses) {
  auto& f = fixture();
  ZslKgEngine& engine = test_engine();
  nn::Linear head = engine.predict_head(taglets::testing::small_scads(),
                                        f.task.class_names);
  EXPECT_EQ(head.out_features(), f.task.num_classes());
  EXPECT_EQ(head.in_features(), engine.feature_dim());
  EXPECT_GT(head.weight().value.squared_norm(), 0.0f);
  EXPECT_TRUE(std::isfinite(engine.best_validation_loss()));
}

TEST(ZslKgEngine, UnknownClassGetsZeroWeights) {
  ZslKgEngine& engine = test_engine();
  nn::Linear head = engine.predict_head(taglets::testing::small_scads(),
                                        {"totally_unknown_xyz"});
  EXPECT_FLOAT_EQ(head.weight().value.squared_norm(), 0.0f);
}

// ------------------------------------------------ ZSL-KG engine cache

namespace fs = std::filesystem;

/// Cheap settings for engines that train from a cold zoo.
backbone::PretrainConfig cache_pretrain_config() {
  backbone::PretrainConfig config = taglets::testing::small_pretrain_config();
  config.epochs = 2;
  return config;
}

ZslKgEngine::Config cache_engine_config() {
  ZslKgEngine::Config config;
  config.epochs = 4;
  config.val_classes = 10;
  return config;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("taglets_modules_test_" + name);
  fs::remove_all(dir);
  return dir;
}

/// The one zsl_kg_* file in `dir` ("" when there is none).
std::string engine_file(const fs::path& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().starts_with("zsl_kg_")) {
      EXPECT_TRUE(found.empty()) << "two engine files in " << dir;
      found = entry.path().string();
    }
  }
  return found;
}

/// Bitwise equality of two engines' predicted heads and validation loss.
void expect_same_engine(const ZslKgEngine& a, const ZslKgEngine& b) {
  const auto& classes = fixture().task.class_names;
  nn::Linear ha = a.predict_head(taglets::testing::small_scads(), classes);
  nn::Linear hb = b.predict_head(taglets::testing::small_scads(), classes);
  for (auto [ta, tb] : {std::pair{&ha.weight().value, &hb.weight().value},
                        std::pair{&ha.bias().value, &hb.bias().value}}) {
    ASSERT_TRUE(tensor::same_shape(*ta, *tb));
    EXPECT_EQ(std::memcmp(ta->data().data(), tb->data().data(),
                          ta->size() * sizeof(float)),
              0);
  }
  EXPECT_EQ(a.best_validation_loss(), b.best_validation_loss());
}

/// Value of attribute `key` on the one span named `name` in `events`.
std::string span_attr(const std::vector<obs::TraceEvent>& events,
                      const std::string& name, const std::string& key) {
  std::string value;
  int count = 0;
  for (const auto& e : events) {
    if (e.name != name) continue;
    ++count;
    for (const auto& [k, v] : e.attrs) {
      if (k == key) value = v;
    }
  }
  EXPECT_EQ(count, 1) << name;
  return value;
}

TEST(ZslKgEngine, WarmCacheEngineBitwiseEqualsColdAndSkipsTraining) {
  auto& world = taglets::testing::small_world();
  const fs::path dir = fresh_dir("warm");
  auto& registry = obs::MetricsRegistry::global();
  const bool was_tracing = obs::trace_enabled();
  obs::Tracer::global().clear();
  obs::set_trace_enabled(true);

  backbone::Zoo cold_zoo(&world, cache_pretrain_config(), dir.string());
  ZslKgEngine cold(cold_zoo, cache_engine_config());
  const auto cold_events = obs::Tracer::global().snapshot();
  obs::Tracer::global().clear();
  ASSERT_FALSE(engine_file(dir).empty());

  const auto hits = registry.counter("zoo.cache_hits_total").value();
  const auto pretrained = registry.counter("backbone.pretrained_total").value();
  backbone::Zoo warm_zoo(&world, cache_pretrain_config(), dir.string());
  ZslKgEngine warm(warm_zoo, cache_engine_config());
  const auto warm_events = obs::Tracer::global().snapshot();
  obs::set_trace_enabled(was_tracing);
  obs::Tracer::global().clear();

  expect_same_engine(cold, warm);
  // The backbone and the engine both came from the cache, and nothing
  // trained: no backbone pretraining, no reference head, no GNN.
  EXPECT_EQ(registry.counter("zoo.cache_hits_total").value(), hits + 2);
  EXPECT_EQ(registry.counter("backbone.pretrained_total").value(), pretrained);
  EXPECT_EQ(span_attr(cold_events, "zsl.engine", "cache"), "miss");
  EXPECT_EQ(span_attr(cold_events, "backbone.get", "cache"), "miss");
  EXPECT_EQ(span_attr(warm_events, "zsl.engine", "cache"), "hit");
  EXPECT_EQ(span_attr(warm_events, "backbone.get", "cache"), "hit");
  for (const auto& e : warm_events) EXPECT_NE(e.name, "nn.fit");
  fs::remove_all(dir);
}

TEST(ZslKgEngine, TruncatedOrCorruptCacheFileRetrains) {
  auto& world = taglets::testing::small_world();
  const fs::path dir = fresh_dir("damaged");
  backbone::Zoo zoo(&world, cache_pretrain_config(), dir.string());
  ZslKgEngine reference(zoo, cache_engine_config());
  const std::string path = engine_file(dir);
  ASSERT_FALSE(path.empty());
  const auto whole_size = fs::file_size(path);

  auto& misses = obs::MetricsRegistry::global().counter("zoo.cache_misses_total");
  const std::vector<std::pair<std::string, std::function<void(std::string&)>>>
      damage = {
          {"truncated", [](std::string& b) { b.resize(b.size() / 2); }},
          {"corrupt", [](std::string& b) { b[b.size() / 2] ^= 0x40; }},
      };
  for (const auto& [what, edit] : damage) {
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    edit(bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    const auto misses_before = misses.value();
    backbone::Zoo again(&world, cache_pretrain_config(), dir.string());
    ZslKgEngine retrained(again, cache_engine_config());
    EXPECT_EQ(misses.value(), misses_before + 1) << what;
    expect_same_engine(reference, retrained);
    EXPECT_EQ(fs::file_size(path), whole_size) << what << " file not rewritten";
  }
  fs::remove_all(dir);
}

TEST(ZslKgEngine, EmptyCacheDirWritesNothing) {
  // Run in a fresh working directory so a write to the default relative
  // cache path would be seen too.
  const fs::path cwd = fresh_dir("no_cache");
  fs::create_directories(cwd);
  const fs::path previous_cwd = fs::current_path();
  fs::current_path(cwd);
  {
    backbone::Zoo zoo(&taglets::testing::small_world(), cache_pretrain_config(),
                      std::string{});
    ZslKgEngine engine(zoo, cache_engine_config());
    EXPECT_TRUE(std::isfinite(engine.best_validation_loss()));
  }
  fs::current_path(previous_cwd);
  EXPECT_TRUE(fs::is_empty(cwd));
  fs::remove_all(cwd);
}

TEST(ZslKgModule, ZeroShotBeatsChance) {
  auto& f = fixture();
  ModuleContext ctx = f.context();
  ctx.zsl_engine = &test_engine();
  ZslKgModule module;
  Taglet taglet = module.train(ctx);
  EXPECT_EQ(taglet.name(), "zsl-kg");
  expect_valid_taglet(taglet, f.task);
  // Zero-shot: no target labels used, yet above the 10% chance level.
  Tensor logits = taglet.model().logits(f.task.test_inputs, false);
  EXPECT_GT(nn::accuracy(logits, f.task.test_labels), 0.12);
}

TEST(ZslKgModule, RequiresEngine) {
  auto& f = fixture();
  ZslKgModule module;
  ModuleContext ctx = f.context();
  ctx.zsl_engine = nullptr;
  EXPECT_THROW(module.train(ctx), std::invalid_argument);
}

TEST(Modules, AuxiliaryDataImprovesTransferOverFineTuneOnly) {
  // The paper's core mechanism (Sect. 4.4.2): the intermediate phase on
  // task-related auxiliary data improves few-shot accuracy.
  auto& f = fixture();
  TransferConfig with_aux;
  with_aux.aux_min_steps = 200;
  with_aux.target_min_steps = 150;
  TransferConfig without_aux = with_aux;
  without_aux.aux_epochs = 0;
  without_aux.aux_min_steps = 0;

  // Without auxiliary data: empty selection.
  ModuleContext ctx = f.context();
  scads::Selection empty;
  empty.data.inputs = Tensor::zeros(0, 0);
  ModuleContext ctx_no_aux = ctx;
  ctx_no_aux.selection = &empty;

  Taglet with = TransferModule(with_aux).train(ctx);
  Taglet without = TransferModule(without_aux).train(ctx_no_aux);
  const double acc_with = nn::evaluate_accuracy(
      with.model(), f.task.test_inputs, f.task.test_labels);
  const double acc_without = nn::evaluate_accuracy(
      without.model(), f.task.test_inputs, f.task.test_labels);
  EXPECT_GE(acc_with + 0.02, acc_without);  // not worse (small-world noise)
}


TEST(PrototypeModule, TrainingFreeTagletBeatsChance) {
  auto& f = fixture();
  PrototypeModule module;
  Taglet taglet = module.train(f.context());
  EXPECT_EQ(taglet.name(), "prototype");
  expect_valid_taglet(taglet, f.task);
  Tensor logits = taglet.model().logits(f.task.test_inputs, false);
  EXPECT_GT(nn::accuracy(logits, f.task.test_labels), 0.15);  // 10% chance
}

TEST(PrototypeModule, AuxWeightZeroUsesShotsOnly) {
  auto& f = fixture();
  PrototypeConfig config;
  config.aux_weight = 0.0;
  PrototypeModule module(config);
  Taglet taglet = module.train(f.context());
  expect_valid_taglet(taglet, f.task);
}

TEST(PrototypeModule, RegisteredButNotInDefaultLineup) {
  auto registry = ModuleRegistry::with_builtins();
  EXPECT_TRUE(registry.contains("prototype"));
  const auto& lineup = ModuleRegistry::default_lineup();
  EXPECT_EQ(std::count(lineup.begin(), lineup.end(), "prototype"), 0);
}

}  // namespace
}  // namespace taglets::modules
