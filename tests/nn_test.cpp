#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <tuple>

#include "math/conv.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"

namespace lm = lithogan::math;
namespace ln = lithogan::nn;
namespace lu = lithogan::util;

// ---------------------------------------------------------------------------
// Tensor
// ---------------------------------------------------------------------------

TEST(Tensor, ConstructionAndIndexing) {
  ln::Tensor t({2, 3, 4}, 1.5f);
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_FLOAT_EQ(t.at({1, 2, 3}), 1.5f);
  t.at({1, 0, 0}) = 9.0f;
  EXPECT_FLOAT_EQ(t[12], 9.0f);  // row-major: (1,0,0) is offset 12
}

TEST(Tensor, AtBoundsChecks) {
  ln::Tensor t({2, 2});
  EXPECT_THROW(t.at({2, 0}), lu::InvalidArgument);
  EXPECT_THROW(t.at({0}), lu::InvalidArgument);
  EXPECT_THROW(t.dim(2), lu::InvalidArgument);
}

TEST(Tensor, ZeroDimensionRejected) {
  EXPECT_THROW(ln::Tensor({2, 0, 3}), lu::InvalidArgument);
}

TEST(Tensor, ReshapePreservesData) {
  ln::Tensor t({2, 6});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  const auto r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_FLOAT_EQ(r.at({2, 3}), 11.0f);
  EXPECT_THROW(t.reshaped({5, 2}), lu::InvalidArgument);
}

TEST(Tensor, RandnMoments) {
  lu::Rng rng(1);
  const auto t = ln::Tensor::randn({64, 64}, rng, 2.0f, 1.0f);
  double sum = 0.0;
  double ss = 0.0;
  for (const float v : t.data()) {
    sum += v;
    ss += static_cast<double>(v) * v;
  }
  const double mean = sum / static_cast<double>(t.size());
  const double var = ss / static_cast<double>(t.size()) - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Tensor, AddScaledAndScale) {
  ln::Tensor a({4}, 1.0f);
  ln::Tensor b({4}, 2.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  ln::Tensor c({5});
  EXPECT_THROW(a.add_scaled(c, 1.0f), lu::InvalidArgument);
}

// ---------------------------------------------------------------------------
// im2col geometry
// ---------------------------------------------------------------------------

TEST(Im2col, OutSizeFormulas) {
  EXPECT_EQ(lm::conv_out_size(256, 5, 2, 2), 128u);
  EXPECT_EQ(lm::conv_out_size(128, 5, 2, 2), 64u);
  EXPECT_EQ(lm::conv_out_size(2, 5, 2, 2), 1u);
  EXPECT_EQ(lm::deconv_out_size(1, 5, 2, 2, 1), 2u);
  EXPECT_EQ(lm::deconv_out_size(128, 5, 2, 2, 1), 256u);
  EXPECT_THROW(lm::conv_out_size(2, 5, 2, 0), lu::InvalidArgument);
  EXPECT_THROW(lm::deconv_out_size(4, 3, 2, 1, 2), lu::InvalidArgument);
}

TEST(Im2col, IdentityKernelLayout) {
  // 1x1 kernel, stride 1, no pad: im2col is the identity.
  const float src[6] = {1, 2, 3, 4, 5, 6};  // (1, 2, 3)
  float col[6] = {};
  lm::im2col(src, 1, 2, 3, 1, 1, 0, col);
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(col[i], src[i]);
}

TEST(Im2col, PaddingReadsZero) {
  // 3x3 kernel centered on a 1x1 image with pad 1: only the middle tap hits.
  const float src[1] = {7.0f};
  float col[9] = {};
  lm::im2col(src, 1, 1, 1, 3, 1, 1, col);
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(col[i], i == 4 ? 7.0f : 0.0f) << "tap " << i;
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property.
  lu::Rng rng(3);
  const std::size_t C = 2;
  const std::size_t H = 5;
  const std::size_t W = 6;
  const std::size_t k = 3;
  const std::size_t s = 2;
  const std::size_t p = 1;
  const std::size_t oh = lm::conv_out_size(H, k, s, p);
  const std::size_t ow = lm::conv_out_size(W, k, s, p);
  std::vector<float> x(C * H * W);
  std::vector<float> y(C * k * k * oh * ow);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> col(y.size());
  lm::im2col(x.data(), C, H, W, k, s, p, col.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(col[i]) * y[i];

  std::vector<float> back(x.size(), 0.0f);
  lm::col2im(y.data(), C, H, W, k, s, p, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-4);
}

// ---------------------------------------------------------------------------
// Layer gradient checks (the core correctness property of the nn library)
// ---------------------------------------------------------------------------

namespace {
ln::GradCheckResult run_gradcheck(ln::Module& module, const std::vector<std::size_t>& in_shape,
                                  unsigned seed, double tolerance = 2e-2) {
  lu::Rng rng(seed);
  const auto input = ln::Tensor::randn(in_shape, rng, 1.0f);
  ln::Tensor out_weights;
  {
    // One forward to learn the output shape.
    ln::Tensor probe = module.forward(input);
    out_weights = ln::Tensor::randn(probe.shape(), rng, 1.0f);
  }
  return ln::check_gradients(module, input, out_weights, 1e-3, tolerance);
}
}  // namespace

TEST(GradCheck, Conv2dStride1) {
  lu::Rng rng(10);
  ln::Conv2d conv(2, 3, 3, 1, 1, rng);
  const auto r = run_gradcheck(conv, {2, 2, 5, 5}, 11);
  EXPECT_TRUE(r.passed) << r.detail << " in=" << r.max_input_error
                        << " param=" << r.max_param_error;
}

TEST(GradCheck, Conv2dStride2PaperGeometry) {
  lu::Rng rng(12);
  ln::Conv2d conv(3, 4, 5, 2, 2, rng);  // the paper's 5x5/s2 shape
  const auto r = run_gradcheck(conv, {1, 3, 8, 8}, 13);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, ConvTranspose2dPaperGeometry) {
  lu::Rng rng(14);
  ln::ConvTranspose2d deconv(4, 3, 5, 2, 2, 1, rng);  // doubles resolution
  const auto r = run_gradcheck(deconv, {1, 4, 4, 4}, 15);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, ConvTranspose2dStride1) {
  lu::Rng rng(16);
  ln::ConvTranspose2d deconv(2, 2, 3, 1, 1, 0, rng);
  const auto r = run_gradcheck(deconv, {2, 2, 4, 4}, 17);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, BatchNormTraining) {
  ln::BatchNorm2d bn(3);
  bn.set_training(true);
  const auto r = run_gradcheck(bn, {4, 3, 3, 3}, 19);
  EXPECT_TRUE(r.passed) << r.detail << " in=" << r.max_input_error
                        << " param=" << r.max_param_error;
}

TEST(GradCheck, BatchNormEval) {
  ln::BatchNorm2d bn(2);
  // Populate running stats with a training pass, then check eval-mode grads.
  lu::Rng rng(20);
  bn.set_training(true);
  bn.forward(ln::Tensor::randn({4, 2, 3, 3}, rng));
  bn.set_training(false);
  const auto r = run_gradcheck(bn, {2, 2, 3, 3}, 21);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, Linear) {
  lu::Rng rng(22);
  ln::Linear fc(7, 4, rng);
  const auto r = run_gradcheck(fc, {3, 7}, 23);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, Activations) {
  // Shift inputs away from the ReLU kink so finite differences are clean.
  lu::Rng rng(24);
  ln::Tensor input = ln::Tensor::randn({2, 3, 4, 4}, rng, 1.0f);
  for (float& v : input.data()) {
    if (std::abs(v) < 0.05f) v = 0.1f;
  }
  for (auto* act : std::initializer_list<ln::Module*>{new ln::ReLU(), new ln::LeakyReLU(0.2f),
                                                      new ln::Tanh(), new ln::Sigmoid()}) {
    std::unique_ptr<ln::Module> owner(act);
    ln::Tensor probe = owner->forward(input);
    const auto weights = ln::Tensor::randn(probe.shape(), rng, 1.0f);
    const auto r = ln::check_gradients(*owner, input, weights);
    EXPECT_TRUE(r.passed) << owner->kind() << ": " << r.detail;
  }
}

TEST(GradCheck, MaxPool) {
  ln::MaxPool2d pool(2, 2);
  const auto r = run_gradcheck(pool, {2, 2, 6, 6}, 25);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, Flatten) {
  ln::Flatten flat;
  const auto r = run_gradcheck(flat, {2, 3, 2, 2}, 26);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(GradCheck, SequentialStack) {
  // A miniature encoder: conv-bn-tanh-conv, checked end to end. Tanh rather
  // than LeakyReLU because BatchNorm centers pre-activations exactly at the
  // LReLU kink, where finite differences are unreliable; the composition
  // (chain rule through conv/BN) is what this test pins down, and the kink
  // subgradients are covered by the single-layer activation checks.
  lu::Rng rng(27);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(1, 2, 3, 2, 1, rng);
  net.emplace<ln::BatchNorm2d>(2);
  net.emplace<ln::Tanh>();
  net.emplace<ln::Conv2d>(2, 2, 3, 1, 1, rng);
  net.set_training(true);
  const auto r = run_gradcheck(net, {2, 1, 6, 6}, 28);
  EXPECT_TRUE(r.passed) << r.detail << " in=" << r.max_input_error
                        << " param=" << r.max_param_error;
}

TEST(GradCheck, DropoutEvalIsIdentity) {
  ln::Dropout drop(0.5f, lu::Rng(30));
  drop.set_training(false);
  lu::Rng rng(31);
  const auto input = ln::Tensor::randn({2, 8}, rng);
  const auto out = drop.forward(input);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_FLOAT_EQ(out[i], input[i]);
  const auto grad = drop.backward(out);
  for (std::size_t i = 0; i < grad.size(); ++i) EXPECT_FLOAT_EQ(grad[i], out[i]);
}

TEST(Dropout, TrainingMasksAndScales) {
  ln::Dropout drop(0.5f, lu::Rng(32));
  drop.set_training(true);
  ln::Tensor input({1, 1000}, 1.0f);
  const auto out = drop.forward(input);
  std::size_t zeros = 0;
  for (const float v : out.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scaling 1/(1-p)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
  // Backward applies the same mask.
  ln::Tensor grad({1, 1000}, 1.0f);
  const auto gin = drop.backward(grad);
  for (std::size_t i = 0; i < gin.size(); ++i) {
    EXPECT_FLOAT_EQ(gin[i], out[i]);  // same pattern of 0 / 2
  }
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(ln::Dropout(1.0f, lu::Rng(1)), lu::InvalidArgument);
  EXPECT_THROW(ln::Dropout(-0.1f, lu::Rng(1)), lu::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Shape plumbing of the paper's geometry
// ---------------------------------------------------------------------------

TEST(Shapes, EncoderDecoderRoundTrip) {
  // 5x5 stride-2 conv halves, matching deconv doubles (paper Table 1).
  lu::Rng rng(33);
  ln::Conv2d enc(3, 4, 5, 2, 2, rng);
  ln::ConvTranspose2d dec(4, 3, 5, 2, 2, 1, rng);
  const auto x = ln::Tensor::randn({1, 3, 32, 32}, rng);
  const auto hidden = enc.forward(x);
  EXPECT_EQ(hidden.shape(), (std::vector<std::size_t>{1, 4, 16, 16}));
  const auto back = dec.forward(hidden);
  EXPECT_EQ(back.shape(), (std::vector<std::size_t>{1, 3, 32, 32}));
}

TEST(Shapes, MaxPoolHalves) {
  ln::MaxPool2d pool(2, 2);
  lu::Rng rng(34);
  const auto y = pool.forward(ln::Tensor::randn({2, 3, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
}

TEST(Shapes, WrongInputChannelCountThrows) {
  lu::Rng rng(35);
  ln::Conv2d conv(3, 4, 3, 1, 1, rng);
  EXPECT_THROW(conv.forward(ln::Tensor::randn({1, 2, 8, 8}, rng)), lu::InvalidArgument);
}

TEST(MaxPool, ForwardPicksMaxima) {
  ln::MaxPool2d pool(2, 2);
  ln::Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = -2.0f;
  x[3] = 0.0f;
  const auto y = pool.forward(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  ln::Tensor g({1, 1, 1, 1}, 1.0f);
  const auto gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(Loss, L1ValueAndGrad) {
  ln::Tensor pred({4});
  ln::Tensor target({4});
  pred[0] = 1.0f; target[0] = 0.0f;   // +1
  pred[1] = -2.0f; target[1] = 0.0f;  // -2
  pred[2] = 0.5f; target[2] = 0.5f;   // 0
  pred[3] = 0.0f; target[3] = 3.0f;   // -3
  const auto r = ln::l1_loss(pred, target);
  EXPECT_NEAR(r.value, (1.0 + 2.0 + 0.0 + 3.0) / 4.0, 1e-6);
  EXPECT_FLOAT_EQ(r.grad[0], 0.25f);
  EXPECT_FLOAT_EQ(r.grad[1], -0.25f);
  EXPECT_FLOAT_EQ(r.grad[2], 0.0f);
  EXPECT_FLOAT_EQ(r.grad[3], -0.25f);
}

TEST(Loss, MseValueAndGrad) {
  ln::Tensor pred({2});
  ln::Tensor target({2});
  pred[0] = 2.0f; target[0] = 0.0f;
  pred[1] = -1.0f; target[1] = 1.0f;
  const auto r = ln::mse_loss(pred, target);
  EXPECT_NEAR(r.value, (4.0 + 4.0) / 2.0, 1e-6);
  EXPECT_FLOAT_EQ(r.grad[0], 2.0f);   // 2*(2-0)/2
  EXPECT_FLOAT_EQ(r.grad[1], -2.0f);
}

TEST(Loss, BceMatchesClosedForm) {
  ln::Tensor logits({1});
  logits[0] = 0.0f;
  const auto r1 = ln::bce_with_logits_loss(logits, 1.0f);
  EXPECT_NEAR(r1.value, std::log(2.0), 1e-6);  // -log(sigmoid(0))
  EXPECT_NEAR(r1.grad[0], -0.5f, 1e-6f);       // sigmoid(0) - 1

  logits[0] = 3.0f;
  const auto r0 = ln::bce_with_logits_loss(logits, 0.0f);
  EXPECT_NEAR(r0.value, std::log1p(std::exp(3.0)), 1e-6);
  EXPECT_NEAR(r0.grad[0], 1.0 / (1.0 + std::exp(-3.0)), 1e-6);
}

TEST(Loss, BceIsStableForExtremeLogits) {
  ln::Tensor logits({2});
  logits[0] = 100.0f;
  logits[1] = -100.0f;
  const auto r = ln::bce_with_logits_loss(logits, 1.0f);
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_TRUE(std::isfinite(r.grad[0]));
  EXPECT_NEAR(r.grad[0], 0.0f, 1e-6f);   // already confident and correct
  EXPECT_NEAR(r.grad[1], -0.5f, 1e-6f);  // confidently wrong: max-magnitude grad
}

TEST(Loss, GradientsAgreeWithFiniteDifference) {
  lu::Rng rng(40);
  auto pred = ln::Tensor::randn({6}, rng);
  const auto target = ln::Tensor::randn({6}, rng);
  const double eps = 1e-4;
  for (const auto& fn : {+[](const ln::Tensor& p, const ln::Tensor& t) {
                           return ln::mse_loss(p, t);
                         },
                         +[](const ln::Tensor& p, const ln::Tensor& t) {
                           return ln::bce_with_logits_loss(p, t);
                         }}) {
    const auto base = fn(pred, target);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      const float saved = pred[i];
      pred[i] = saved + static_cast<float>(eps);
      const double plus = fn(pred, target).value;
      pred[i] = saved - static_cast<float>(eps);
      const double minus = fn(pred, target).value;
      pred[i] = saved;
      EXPECT_NEAR((plus - minus) / (2 * eps), base.grad[i], 1e-3);
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

namespace {
// One-parameter quadratic: loss = (w - 3)^2, so grad = 2(w - 3).
struct Quadratic {
  ln::Parameter w{"w", ln::Tensor({1}, 0.0f)};
  double loss() const { return std::pow(w.value[0] - 3.0, 2); }
  void compute_grad() { w.grad[0] = 2.0f * (w.value[0] - 3.0f); }
};
}  // namespace

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Quadratic q;
  ln::Adam opt({&q.w}, 0.1f, 0.9f, 0.999f);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    q.compute_grad();
    opt.step();
  }
  EXPECT_NEAR(q.w.value[0], 3.0f, 1e-2f);
}

TEST(Optimizer, AdamFirstStepHasLearningRateMagnitude) {
  // Bias correction makes the very first Adam step ~= lr * sign(grad).
  Quadratic q;
  q.w.value[0] = 10.0f;
  ln::Adam opt({&q.w}, 0.5f);
  q.compute_grad();
  opt.step();
  EXPECT_NEAR(q.w.value[0], 10.0f - 0.5f, 1e-4f);
}

TEST(Optimizer, ZeroGradClears) {
  Quadratic q;
  q.compute_grad();
  EXPECT_NE(q.w.grad[0], 0.0f);
  ln::Adam opt({&q.w});
  opt.zero_grad();
  EXPECT_FLOAT_EQ(q.w.grad[0], 0.0f);
}

// ---------------------------------------------------------------------------
// End-to-end training sanity: a small conv net learns a separable function
// ---------------------------------------------------------------------------

TEST(Training, TinyConvNetFitsRegressionTarget) {
  lu::Rng rng(50);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(1, 4, 3, 1, 1, rng);
  net.emplace<ln::ReLU>();
  net.emplace<ln::Conv2d>(4, 1, 3, 1, 1, rng);
  net.set_training(true);

  // Target: a fixed blur-like transform of the input (learnable by a conv).
  const auto make_target = [](const ln::Tensor& x) {
    ln::Tensor y(x.shape());
    for (std::size_t n = 0; n < x.dim(0); ++n) {
      for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
          float acc = 0.0f;
          int cnt = 0;
          for (int di = -1; di <= 1; ++di) {
            for (int dj = -1; dj <= 1; ++dj) {
              const int ii = static_cast<int>(i) + di;
              const int jj = static_cast<int>(j) + dj;
              if (ii < 0 || jj < 0 || ii >= 8 || jj >= 8) continue;
              acc += x[((n * 1 + 0) * 8 + static_cast<std::size_t>(ii)) * 8 +
                       static_cast<std::size_t>(jj)];
              ++cnt;
            }
          }
          y[((n * 1 + 0) * 8 + i) * 8 + j] = acc / static_cast<float>(cnt);
        }
      }
    }
    return y;
  };

  ln::Adam opt(net.parameters(), 0.01f, 0.9f, 0.999f);
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    const auto x = ln::Tensor::randn({4, 1, 8, 8}, rng);
    const auto y = make_target(x);
    const auto pred = net.forward(x);
    const auto loss = ln::mse_loss(pred, y);
    if (epoch == 0) first_loss = loss.value;
    last_loss = loss.value;
    opt.zero_grad();
    net.backward(loss.grad);
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.2) << "first=" << first_loss << " last=" << last_loss;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "lithogan_nn_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SerializeTest, SequentialRoundTripBitExact) {
  lu::Rng rng(70);
  const auto build = [](lu::Rng& r) {
    auto net = std::make_unique<ln::Sequential>();
    net->emplace<ln::Conv2d>(1, 2, 3, 2, 1, r);
    net->emplace<ln::BatchNorm2d>(2);
    net->emplace<ln::ReLU>();
    net->emplace<ln::Flatten>();
    net->emplace<ln::Linear>(2 * 4 * 4, 3, r);
    return net;
  };
  auto original = build(rng);
  // Run a training forward so BN has nontrivial running stats.
  original->set_training(true);
  original->forward(ln::Tensor::randn({4, 1, 8, 8}, rng));

  const std::string path = (dir_ / "model.bin").string();
  ln::save_module(*original, "test-arch", path);

  lu::Rng rng2(999);  // deliberately different weights before loading
  auto restored = build(rng2);
  ln::load_module(*restored, "test-arch", path);

  original->set_training(false);
  restored->set_training(false);
  lu::Rng rng3(71);
  const auto x = ln::Tensor::randn({2, 1, 8, 8}, rng3);
  const auto y1 = original->forward(x);
  const auto y2 = restored->forward(x);
  ASSERT_TRUE(y1.same_shape(y2));
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST_F(SerializeTest, ArchTagMismatchThrows) {
  lu::Rng rng(72);
  ln::Linear fc(4, 4, rng);
  const std::string path = (dir_ / "fc.bin").string();
  ln::save_module(fc, "arch-a", path);
  EXPECT_THROW(ln::load_module(fc, "arch-b", path), lu::FormatError);
}

TEST_F(SerializeTest, GarbageFileThrows) {
  const std::string path = (dir_ / "junk.bin").string();
  lu::write_file(path, "this is not a checkpoint");
  lu::Rng rng(73);
  ln::Linear fc(4, 4, rng);
  EXPECT_THROW(ln::load_module(fc, "x", path), lu::FormatError);
}

TEST_F(SerializeTest, SizeMismatchThrows) {
  lu::Rng rng(74);
  ln::Linear small(4, 4, rng);
  ln::Linear big(8, 8, rng);
  const std::string path = (dir_ / "small.bin").string();
  ln::save_module(small, "fc", path);
  EXPECT_THROW(ln::load_module(big, "fc", path), lu::Error);
}

// ---------------------------------------------------------------------------
// Parameter utilities
// ---------------------------------------------------------------------------

TEST(Parameters, CountsAndCollects) {
  lu::Rng rng(80);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(3, 8, 5, 2, 2, rng);  // w: 8*75, b: 8
  net.emplace<ln::BatchNorm2d>(8);              // gamma+beta: 16
  net.emplace<ln::Linear>(10, 2, rng);          // w: 20, b: 2
  const auto params = net.parameters();
  EXPECT_EQ(params.size(), 6u);
  EXPECT_EQ(ln::parameter_count(params), 8u * 75u + 8u + 16u + 22u);
}
