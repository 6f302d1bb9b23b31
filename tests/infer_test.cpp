// Gates on the batched inference engine:
//   * fused GEMM epilogues (bias + activation in the final-K writeback) are
//     bit-exact against the separate-sweep reference;
//   * prepacked-A GEMM is bit-exact against the on-the-fly packing path;
//   * InferencePlan::infer is bit-identical to eval-mode module forward for
//     all three paper networks, across batch sizes and thread counts;
//   * steady-state infer() calls perform zero arena allocations;
//   * a layer's module forward, its backward and its compiled plan step
//     share one conv-engine plan;
//   * a leftover LITHOGAN_INFER_DTYPE other than f32 fails the plan build;
//   * the GEMM step spans carry their step index, batch and MFLOP;
//   * LithoGan::predict_batch reproduces the per-sample module path byte
//     for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/center.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "core/networks.hpp"
#include "data/batch.hpp"
#include "image/ops.hpp"
#include "math/gemm.hpp"
#include "nn/conv.hpp"
#include "nn/infer.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "obs/json_verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace lc = lithogan::core;
namespace ld = lithogan::data;
namespace li = lithogan::image;
namespace lm = lithogan::math;
namespace ln = lithogan::nn;
namespace lo = lithogan::obs;
namespace lu = lithogan::util;

namespace {

struct QuietLogs {
  QuietLogs() { lu::set_log_level(lu::LogLevel::kWarn); }
} const quiet_logs;

lc::LithoGanConfig test_config() {
  lc::LithoGanConfig cfg = lc::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 6;
  cfg.max_channels = 24;
  cfg.epochs = 1;
  cfg.center_epochs = 2;
  return cfg;
}

ln::Tensor random_tensor(const std::vector<std::size_t>& shape, lu::Rng& rng) {
  ln::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

std::vector<float> random_vec(std::size_t n, lu::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void expect_bitwise_equal(const ln::Tensor& a, const ln::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0)
      << "tensors differ bitwise";
}

float apply_act_ref(lm::Activation act, float v, float slope) {
  switch (act) {
    case lm::Activation::kRelu:
      return v < 0.0f ? 0.0f : v;
    case lm::Activation::kLeakyRelu:
      return v < 0.0f ? v * slope : v;
    case lm::Activation::kTanh:
      return std::tanh(v);
    case lm::Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case lm::Activation::kIdentity:
      break;
  }
  return v;
}

/// Warms a module's BatchNorm running statistics with training-mode
/// forwards so eval-mode behavior is nontrivial, then switches to eval.
void warm_and_eval(ln::Module& net, const std::vector<std::size_t>& sample_shape,
                   lu::Rng& rng) {
  std::vector<std::size_t> shape{4};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  net.set_training(true);
  (void)net.forward(random_tensor(shape, rng));
  (void)net.forward(random_tensor(shape, rng));
  net.set_training(false);
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused epilogue GEMM
// ---------------------------------------------------------------------------

TEST(FusedEpilogue, MatchesSeparateBiasAndActivationSweeps) {
  lu::Rng rng(7);
  const std::size_t m = 13, n = 37, k = 19;
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto bias_r = random_vec(m, rng);
  const auto bias_c = random_vec(n, rng);
  std::vector<float> packed(lm::packed_b_size(n, k));
  lm::pack_b(k, n, b.data(), packed.data());

  for (const lm::Activation act :
       {lm::Activation::kIdentity, lm::Activation::kRelu, lm::Activation::kLeakyRelu,
        lm::Activation::kTanh, lm::Activation::kSigmoid}) {
    for (const bool per_row : {true, false}) {
      // Reference: plain GEMM, then bias sweep, then activation sweep.
      std::vector<float> ref(m * n, 0.0f);
      lm::gemm_packed(m, n, k, 1.0f, a.data(), packed.data(), 0.0f, ref.data());
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float v = ref[i * n + j] + (per_row ? bias_r[i] : bias_c[j]);
          ref[i * n + j] = apply_act_ref(act, v, 0.2f);
        }
      }

      lm::Epilogue epi;
      epi.bias = per_row ? bias_r.data() : bias_c.data();
      epi.bias_per_row = per_row;
      epi.act = act;
      epi.slope = 0.2f;
      std::vector<float> fused(m * n, 0.0f);
      lm::gemm_packed(m, n, k, 1.0f, a.data(), packed.data(), 0.0f, fused.data(), epi);
      EXPECT_EQ(std::memcmp(ref.data(), fused.data(), ref.size() * sizeof(float)), 0)
          << "act=" << static_cast<int>(act) << " per_row=" << per_row;
    }
  }
}

TEST(FusedEpilogue, PrepackedMatchesOnTheFlyPacking) {
  lu::Rng rng(11);
  const std::size_t m = 29, n = 33, k = 301;  // spans multiple K blocks
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);

  std::vector<float> ref(m * n, 0.0f);
  lm::gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());

  std::vector<float> packed_a(lm::packed_a_size(m, k));
  lm::pack_a(m, k, a.data(), packed_a.data());
  std::vector<float> out(m * n, 0.0f);
  lm::gemm_prepacked(m, n, k, 1.0f, packed_a.data(), b.data(), 0.0f, out.data());
  EXPECT_EQ(std::memcmp(ref.data(), out.data(), ref.size() * sizeof(float)), 0);

  // Implicit B over the same matrix: rows padded to whole column tiles,
  // row p found through its offset p * ld.
  const std::size_t ld = lm::implicit_b_extent(n, n, 1);
  std::vector<float> b_rows(k * ld, 0.0f);
  std::vector<std::uint32_t> off(k);
  for (std::size_t p = 0; p < k; ++p) {
    std::copy_n(b.data() + p * n, n, b_rows.data() + p * ld);
    off[p] = static_cast<std::uint32_t>(p * ld);
  }
  std::vector<float> out2(m * n, std::nanf(""));
  lm::gemm_implicit(m, k, packed_a.data(), {b_rows.data(), off.data(), n, n, 1},
                    out2.data(), {});
  EXPECT_EQ(std::memcmp(ref.data(), out2.data(), ref.size() * sizeof(float)), 0);

  // pack_a_t: packing the transpose of A stored as (k, m).
  std::vector<float> a_t(k * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) a_t[p * m + i] = a[i * k + p];
  }
  std::vector<float> packed_at(lm::packed_a_size(m, k));
  lm::pack_a_t(m, k, a_t.data(), packed_at.data());
  EXPECT_EQ(std::memcmp(packed_a.data(), packed_at.data(),
                        packed_a.size() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// InferencePlan vs eval-mode module forward
// ---------------------------------------------------------------------------

TEST(InferencePlan, EncoderDecoderBitIdenticalToEvalForward) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed);
  auto gen = lc::build_generator(cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};
  warm_and_eval(*gen, sample_shape, rng);

  ln::InferencePlan plan;
  plan.compile(*gen, sample_shape);
  ASSERT_TRUE(plan.finalized());

  lu::ExecContext exec(8);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    std::vector<std::size_t> shape{batch};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    const ln::Tensor x = random_tensor(shape, rng);
    const ln::Tensor ref = gen->forward(x);

    plan.set_exec_context(nullptr);
    expect_bitwise_equal(ref, plan.infer(x));
    plan.set_exec_context(&exec);
    expect_bitwise_equal(ref, plan.infer(x));
  }
}

TEST(InferencePlan, UNetBitIdenticalToEvalForward) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed + 1);
  lc::UNetGenerator unet(cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};
  warm_and_eval(unet, sample_shape, rng);

  ln::InferencePlan plan;
  unet.build_plan(plan, sample_shape);
  ASSERT_TRUE(plan.finalized());

  lu::ExecContext exec(8);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    std::vector<std::size_t> shape{batch};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    const ln::Tensor x = random_tensor(shape, rng);
    const ln::Tensor ref = unet.forward(x);

    plan.set_exec_context(nullptr);
    expect_bitwise_equal(ref, plan.infer(x));
    plan.set_exec_context(&exec);
    expect_bitwise_equal(ref, plan.infer(x));
  }
}

TEST(InferencePlan, CenterCnnBitIdenticalToEvalForward) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(cfg.seed + 2);
  auto cnn = lc::build_center_cnn(cfg, rng);
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};
  warm_and_eval(*cnn, sample_shape, rng);

  ln::InferencePlan plan;
  plan.compile(*cnn, sample_shape);
  ASSERT_EQ(plan.output_sample_shape(), std::vector<std::size_t>{2});

  lu::ExecContext exec(8);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    std::vector<std::size_t> shape{batch};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    const ln::Tensor x = random_tensor(shape, rng);
    const ln::Tensor ref = cnn->forward(x);

    plan.set_exec_context(nullptr);
    expect_bitwise_equal(ref, plan.infer(x));
    plan.set_exec_context(&exec);
    expect_bitwise_equal(ref, plan.infer(x));
  }
}

TEST(InferencePlan, FusionShrinksStepProgram) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(3);
  auto gen = lc::build_generator(cfg, rng);
  ln::InferencePlan plan;
  plan.compile(*gen, {cfg.mask_channels, cfg.image_size, cfg.image_size});
  // Every Conv/Deconv directly followed by an activation fuses; the plan
  // must have strictly fewer steps than the network has layers.
  EXPECT_LT(plan.step_count(), gen->layer_count());
}

// infer.weight_bytes is the sum over live finalized plans: a second compile
// adds to it instead of overwriting it, destroying a plan withdraws that
// plan's bytes, and a move hands the bytes over without counting them twice.
TEST(InferencePlan, WeightBytesGaugeSumsLivePlans) {
  const lc::LithoGanConfig cfg = test_config();
  const std::vector<std::size_t> shape{cfg.mask_channels, cfg.image_size,
                                       cfg.image_size};
  lu::Rng rng(17);
  auto gen = lc::build_generator(cfg, rng);
  auto cnn = lc::build_center_cnn(cfg, rng);
  const auto gauge = [] {
    return lo::Registry::global().gauge("infer.weight_bytes").value();
  };
  const double base = gauge();

  auto gen_plan = std::make_unique<ln::InferencePlan>();
  gen_plan->compile(*gen, shape);
  const double gen_bytes = static_cast<double>(gen_plan->weight_bytes());
  ASSERT_GT(gen_bytes, 0.0);
  EXPECT_EQ(gauge(), base + gen_bytes);
  {
    ln::InferencePlan cnn_plan;
    cnn_plan.compile(*cnn, shape);
    const double cnn_bytes = static_cast<double>(cnn_plan.weight_bytes());
    ASSERT_GT(cnn_bytes, 0.0);
    EXPECT_EQ(gauge(), base + gen_bytes + cnn_bytes);
  }
  EXPECT_EQ(gauge(), base + gen_bytes) << "destroyed plan still counted";

  ln::InferencePlan moved(std::move(*gen_plan));
  gen_plan.reset();
  EXPECT_EQ(gauge(), base + gen_bytes) << "move must carry the bytes once";
  moved = ln::InferencePlan();
  EXPECT_EQ(gauge(), base);
}

TEST(InferencePlan, ZeroSteadyStateAllocations) {
  const lc::LithoGanConfig cfg = test_config();
  lu::Rng rng(5);
  auto gen = lc::build_generator(cfg, rng);
  gen->set_training(false);
  ln::InferencePlan plan;
  plan.compile(*gen, {cfg.mask_channels, cfg.image_size, cfg.image_size});

  const ln::Tensor x =
      random_tensor({4, cfg.mask_channels, cfg.image_size, cfg.image_size}, rng);
  (void)plan.infer(x);  // warm-up sizes the arena
  const auto warm = plan.arena_stats();
  EXPECT_GT(warm.allocations, 0u);
  EXPECT_GT(warm.arena_floats, 0u);
  EXPECT_GT(warm.slots, 0u);
  EXPECT_LT(warm.slots, warm.buffers);  // liveness reuse collapsed buffers

  for (int i = 0; i < 8; ++i) (void)plan.infer(x);
  const auto steady = plan.arena_stats();
  EXPECT_EQ(warm.allocations, steady.allocations)
      << "steady-state infer() must not allocate";
}

// Conv plans are keyed on layer geometry alone: training forward, backward
// (on a thread pool) and the compiled plan step of one layer resolve the
// same cache entry, so two layers build exactly two plans. The geometries
// are unique to this test, so every other lookup in the process is a hit.
TEST(InferencePlan, OneConvPlanPerLayerGeometry) {
  const std::uint64_t misses0 =
      lithogan::obs::Registry::global().counter_value("conv.plan_cache.miss");
  lu::Rng rng(17);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(3, 5, 3, 2, 1, rng);
  net.emplace<ln::ConvTranspose2d>(5, 2, 3, 2, 1, 0, rng);
  lu::ExecContext exec(2);
  net.set_exec_context(&exec);
  const ln::Tensor x = random_tensor({2, 3, 19, 19}, rng);
  const ln::Tensor y = net.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 2, 19, 19}));
  (void)net.backward(random_tensor(y.shape(), rng));

  ln::InferencePlan plan;
  plan.compile(net, {3, 19, 19});
  plan.set_exec_context(&exec);
  (void)plan.infer(x);
  EXPECT_EQ(lithogan::obs::Registry::global().counter_value("conv.plan_cache.miss"),
            misses0 + 2);
}

namespace {

/// Scoped LITHOGAN_INFER_DTYPE: restores the caller's value (or its
/// absence) on exit, so a failing assertion cannot leak the variable into
/// later tests.
class ScopedInferDtype {
 public:
  ScopedInferDtype() {
    if (const char* v = std::getenv(kVar)) saved_ = v;
  }
  ~ScopedInferDtype() {
    if (saved_) {
      setenv(kVar, saved_->c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }
  void set(const char* value) { ASSERT_EQ(setenv(kVar, value, 1), 0); }
  void unset() { ASSERT_EQ(unsetenv(kVar), 0); }

 private:
  static constexpr const char* kVar = "LITHOGAN_INFER_DTYPE";
  std::optional<std::string> saved_;
};

}  // namespace

// A trace names each GEMM step by its plan_dump() index, with the batch
// and the call's GEMM work (2*m*n*k per sample, summed) in MFLOP.
TEST(InferencePlan, GemmStepSpansCarryStepBatchAndMflop) {
  lu::Rng rng(29);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(3, 4, 3, 1, 1, rng);              // step 0: 4x8x8
  net.emplace<ln::ConvTranspose2d>(4, 2, 3, 2, 1, 1, rng);  // step 1: 2x16x16
  net.emplace<ln::Flatten>();
  net.emplace<ln::Linear>(2 * 16 * 16, 3, rng);  // step 2
  net.set_training(false);
  ln::InferencePlan plan;
  plan.compile(net, {3, 8, 8});
  const ln::Tensor x = random_tensor({2, 3, 8, 8}, rng);

  lithogan::obs::TraceRecorder& rec = lithogan::obs::TraceRecorder::instance();
  rec.clear();
  lithogan::obs::set_trace_enabled(true);
  (void)plan.infer(x);
  lithogan::obs::set_trace_enabled(false);
  const std::string path = testing::TempDir() + "infer_step_args_trace.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  rec.clear();
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();

  struct Want {
    const char* name;
    double step, mflop;
  };
  const Want wants[] = {
      {"infer.step.conv", 0, 2.0 * 2 * 4 * (8 * 8) * (3 * 9) * 1e-6},
      {"infer.step.deconv", 1, 2.0 * 2 * (2 * 9) * (8 * 8) * 4 * 1e-6},
      {"infer.step.linear", 2, 2.0 * 2 * 3 * (2 * 16 * 16) * 1e-6},
  };
  const lithogan::obs::json::Value root = lithogan::obs::json::parse(text.str());
  for (const Want& want : wants) {
    bool seen = false;
    for (const auto& ep : root.get("traceEvents")->array) {
      const lithogan::obs::json::Value& e = *ep;
      if (e.get("ph")->string != "X" || e.get("name")->string != want.name) continue;
      const lithogan::obs::json::Value* args = e.get("args");
      ASSERT_NE(args, nullptr) << want.name;
      EXPECT_EQ(args->get("step")->number, want.step) << want.name;
      EXPECT_EQ(args->get("batch")->number, 2.0) << want.name;
      EXPECT_NEAR(args->get("mflop")->number, want.mflop, want.mflop * 1e-5) << want.name;
      seen = true;
    }
    EXPECT_TRUE(seen) << want.name;
  }
}

TEST(InferencePlan, RejectsLeftoverReducedPrecisionEnv) {
  // Inference is f32 only. A leftover LITHOGAN_INFER_DTYPE naming any other
  // precision must fail the plan build, not silently serve f32.
  const lc::LithoGanConfig cfg = test_config();
  const std::vector<std::size_t> shape{cfg.mask_channels, cfg.image_size,
                                       cfg.image_size};
  lu::Rng rng(11);
  auto gen = lc::build_generator(cfg, rng);
  ScopedInferDtype env;

  for (const char* value : {"f16", "bf16", "i8", "fp32"}) {
    env.set(value);
    ln::InferencePlan plan;
    try {
      plan.compile(*gen, shape);
      ADD_FAILURE() << "plan compiled with LITHOGAN_INFER_DTYPE=" << value;
    } catch (const lu::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("LITHOGAN_INFER_DTYPE"), std::string::npos) << what;
      EXPECT_NE(what.find("f32 only"), std::string::npos) << what;
    }
    lc::LithoGan model(cfg, lc::Mode::kDualLearning);
    EXPECT_THROW(model.serving_precision(), lu::Error) << value;
  }

  for (const char* value : {"", "f32"}) {
    env.set(value);
    ln::InferencePlan plan;
    EXPECT_NO_THROW(plan.compile(*gen, shape)) << '"' << value << '"';
  }
  env.unset();
  ln::InferencePlan plan;
  EXPECT_NO_THROW(plan.compile(*gen, shape));
  lc::LithoGan model(cfg, lc::Mode::kDualLearning);
  EXPECT_STREQ(model.serving_precision(), "f32");
}

// ---------------------------------------------------------------------------
// LithoGan::predict_batch vs the per-sample module path
// ---------------------------------------------------------------------------

namespace {

ld::Dataset synthetic_dataset(std::size_t count, std::size_t size, unsigned seed) {
  lu::Rng rng(seed);
  ld::Dataset ds;
  ds.process_name = "synthetic";
  ds.render.mask_size_px = size;
  ds.render.resist_size_px = size;
  ds.render.crop_window_nm = 128.0;
  const auto s2 = static_cast<double>(size) / 2.0;
  for (std::size_t i = 0; i < count; ++i) {
    ld::Sample s;
    s.clip_id = "syn-" + std::to_string(i);
    s.resist_pixel_nm = 128.0 / static_cast<double>(size);
    const double half = static_cast<double>(size) / 8.0 + rng.uniform(-1.0, 1.0);
    const double dx = rng.uniform(-2.0, 2.0);
    const double dy = rng.uniform(-2.0, 2.0);
    s.mask_rgb = li::Image(3, size, size);
    li::fill_rect(s.mask_rgb, 1, {{s2 - half, s2 - half}, {s2 + half, s2 + half}}, 1.0f);
    li::fill_rect(s.mask_rgb, 0,
                  {{s2 + 4 * dx - 2, s2 + 4 * dy - 2}, {s2 + 4 * dx + 2, s2 + 4 * dy + 2}},
                  1.0f);
    s.resist = li::Image(1, size, size);
    li::fill_rect(s.resist, 0,
                  {{s2 - half + dx, s2 - half + dy}, {s2 + half + dx, s2 + half + dy}},
                  1.0f);
    s.center_px = ld::pattern_center(s.resist);
    s.resist_centered = ld::recenter_to(s.resist, {s2, s2});
    s.aerial = s.resist;
    s.cd_width_nm = 2 * half * s.resist_pixel_nm;
    s.cd_height_nm = s.cd_width_nm;
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

void expect_images_equal(const li::Image& a, const li::Image& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0)
      << "images differ bitwise";
}

}  // namespace

TEST(PredictBatch, ByteIdenticalToPerSampleModulePath) {
  const lc::LithoGanConfig cfg = test_config();
  const ld::Dataset ds = synthetic_dataset(8, cfg.image_size, 99);
  std::vector<std::size_t> train_idx;
  for (std::size_t i = 0; i < ds.samples.size(); ++i) train_idx.push_back(i);

  lc::LithoGan model(cfg, lc::Mode::kDualLearning);
  (void)model.train(ds, train_idx);  // nontrivial weights + BN running stats

  const auto batched = model.predict_batch(ds.samples);
  ASSERT_EQ(batched.size(), ds.samples.size());

  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    // The pre-plan per-sample path: eval-mode module forwards + recenter.
    const ln::Tensor mask = ld::image_to_tensor(ds.samples[i].mask_rgb);
    li::Image shape = ld::tensor_to_resist_image(model.cgan().predict(mask));
    const auto center = model.center().predict(mask, cfg.image_size);
    shape = ld::recenter_to(shape, center);
    expect_images_equal(shape, batched[i]);

    // And the public single-sample API delegates to the same plan path.
    expect_images_equal(model.predict(ds.samples[i]), batched[i]);
  }
}

TEST(PredictBatch, PlainCganModeMatchesModulePath) {
  const lc::LithoGanConfig cfg = test_config();
  const ld::Dataset ds = synthetic_dataset(4, cfg.image_size, 17);

  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto batched = model.predict_batch(ds.samples);
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    const ln::Tensor mask = ld::image_to_tensor(ds.samples[i].mask_rgb);
    const li::Image shape = ld::tensor_to_resist_image(model.cgan().predict(mask));
    expect_images_equal(shape, batched[i]);
  }
}
