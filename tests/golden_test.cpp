// Golden end-model fingerprint. Trains one small fixed configuration of
// the whole pipeline (backbone pretraining, the ZSL-KG engine, all four
// modules, ensembling and distillation) on the small test world and
// compares an FNV-1a hash of the end model's test logits with a value
// recorded before the training kernels last changed. Changes that are
// meant to be bitwise neutral (faster kernels, hoisted work, new
// schedules) must leave it alone; a change that means to move the
// numbers updates kGolden and says so in CHANGES.md.
//
// The values are pinned for x86-64 builds. Whether the compiler may
// contract a mul+add outside the tensor kernels into an FMA changes the
// result, so builds that target FMA (the Release default -march=native
// on an FMA host) and builds that do not (Debug, the sanitizer builds)
// each have their own value. Other architectures skip the comparison
// and print the value they got. Either value holds at every
// TAGLETS_TENSOR_BACKEND and TAGLETS_THREADS setting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "modules/zsl_kg.hpp"
#include "taglets/controller.hpp"
#include "test_support.hpp"

namespace taglets {
namespace {

#if defined(__x86_64__) && defined(__FMA__)
constexpr char kGolden[] = "665db5e6a5b4afdc";
#elif defined(__x86_64__)
constexpr char kGolden[] = "3aecda0d76a3c7e2";
#else
constexpr char kGolden[] = "";
#endif

/// FNV-1a over the bit patterns of every value, as 16 hex digits.
std::string fnv1a(const tensor::Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (float v : t.data()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

TEST(Golden, EndModelFingerprintUnchanged) {
  modules::ZslKgEngine::Config zsl;
  zsl.epochs = 20;
  zsl.val_classes = 10;
  modules::ZslKgEngine engine(taglets::testing::small_zoo(), zsl);

  const auto task = taglets::testing::small_task(/*shots=*/1);
  SystemConfig config;
  config.train_seed = 3;
  config.epoch_scale = 0.25;
  Controller controller(&taglets::testing::small_scads(),
                        &taglets::testing::small_zoo(), &engine);
  SystemResult result = controller.run(task, config);

  const std::string got =
      fnv1a(result.end_model.model().logits(task.test_inputs, false));
  if (kGolden[0] == '\0') {
    GTEST_SKIP() << "fingerprint " << got
                 << " (golden values are pinned for x86-64 only)";
  }
  EXPECT_EQ(got, kGolden)
      << "end-model fingerprint changed: golden " << kGolden << ", got "
      << got;
}

}  // namespace
}  // namespace taglets
