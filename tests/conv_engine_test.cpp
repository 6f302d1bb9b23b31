// Convolution-engine gates (math/conv.hpp):
//
//   * the im2col-GEMM forward and the deconv writeback agree with naive
//     double-accumulated references within tolerance on prime/odd shapes;
//   * the deconv writeback is byte-identical to GEMM + col2im scatter into
//     zeros + bias/activation sweep;
//   * the forward is bit-identical across thread counts (serial, 1, 2 and
//     8) and between raw and prepacked weights;
//   * the plan cache actually reuses plans (conv.plan_cache.{hit,miss}
//     counter deltas plus shared_ptr identity).
//
// Tier2-labelled: `ctest -L tier2` under -DLITHOGAN_SANITIZE=address|thread
// sweeps the engine's packing paths with sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "math/conv.hpp"
#include "math/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/exec_context.hpp"
#include "util/workspace.hpp"

namespace lm = lithogan::math;
namespace lu = lithogan::util;
namespace lo = lithogan::obs;

namespace {

// Deterministic pseudo-data (the determinism_test hash-to-float).
float synth(std::size_t i) {
  const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u + 12345u;
  return static_cast<float>(static_cast<std::int32_t>(h % 2000) - 1000) / 250.0f;
}

std::vector<float> synth_vec(std::size_t n, std::size_t salt) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = synth(i + salt);
  return v;
}

double eval_act_d(lm::Activation act, double v, double slope) {
  switch (act) {
    case lm::Activation::kIdentity: return v;
    case lm::Activation::kRelu: return v < 0.0 ? 0.0 : v;
    case lm::Activation::kLeakyRelu: return v < 0.0 ? v * slope : v;
    case lm::Activation::kTanh: return std::tanh(v);
    case lm::Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

// Straightforward cross-correlation with zero padding, accumulated in
// double; bias + activation applied in double. The float engines must land
// within `tol` (relative to the per-tensor max magnitude) of this.
std::vector<double> naive_conv(const std::vector<float>& src, std::size_t in_c,
                               std::size_t h, std::size_t w,
                               const std::vector<float>& weights, std::size_t out_c,
                               std::size_t k, std::size_t stride, std::size_t pad,
                               const std::vector<float>& bias, lm::Activation act,
                               float slope) {
  const std::size_t oh = lm::conv_out_size(h, k, stride, pad);
  const std::size_t ow = lm::conv_out_size(w, k, stride, pad);
  std::vector<double> out(out_c * oh * ow);
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (std::size_t ic = 0; ic < in_c; ++ic) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += static_cast<double>(
                         src[(ic * h + static_cast<std::size_t>(iy)) * w +
                             static_cast<std::size_t>(ix)]) *
                     static_cast<double>(
                         weights[oc * (in_c * k * k) + (ic * k + ky) * k + kx]);
            }
          }
        }
        out[(oc * oh + oy) * ow + ox] =
            eval_act_d(act, acc + static_cast<double>(bias[oc]),
                       static_cast<double>(slope));
      }
    }
  }
  return out;
}

// Scatter-form transposed convolution (the textbook definition), double
// accumulated, weights (in_c, out_c*k*k) row-major as nn::ConvTranspose2d.
std::vector<double> naive_deconv(const std::vector<float>& src, std::size_t in_c,
                                 std::size_t h, std::size_t w,
                                 const std::vector<float>& weights, std::size_t out_c,
                                 std::size_t k, std::size_t stride, std::size_t pad,
                                 std::size_t output_pad, const std::vector<float>& bias,
                                 lm::Activation act, float slope) {
  const std::size_t oh = lm::deconv_out_size(h, k, stride, pad, output_pad);
  const std::size_t ow = lm::deconv_out_size(w, k, stride, pad, output_pad);
  std::vector<double> out(out_c * oh * ow, 0.0);
  for (std::size_t ic = 0; ic < in_c; ++ic) {
    for (std::size_t iy = 0; iy < h; ++iy) {
      for (std::size_t ix = 0; ix < w; ++ix) {
        const double v = src[(ic * h + iy) * w + ix];
        for (std::size_t oc = 0; oc < out_c; ++oc) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t oy = static_cast<std::ptrdiff_t>(iy * stride + ky) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(oh)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ox = static_cast<std::ptrdiff_t>(ix * stride + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(ow)) continue;
              out[(oc * oh + static_cast<std::size_t>(oy)) * ow +
                  static_cast<std::size_t>(ox)] +=
                  v * static_cast<double>(
                          weights[ic * (out_c * k * k) + (oc * k + ky) * k + kx]);
            }
          }
        }
      }
    }
  }
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    for (std::size_t i = 0; i < oh * ow; ++i) {
      double& o = out[oc * oh * ow + i];
      o = eval_act_d(act, o + static_cast<double>(bias[oc]),
                     static_cast<double>(slope));
    }
  }
  return out;
}

void expect_close(const std::vector<float>& got, const std::vector<double>& want,
                  double tol, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double scale = 1.0;
  for (const double v : want) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(got[i]), want[i], tol * scale)
        << what << " at index " << i;
  }
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The engine's scalar activation formulas (math/conv.cpp eval_act).
float act_f(lm::Activation act, float v, float slope) {
  switch (act) {
    case lm::Activation::kIdentity: return v;
    case lm::Activation::kRelu: return v < 0.0f ? 0.0f : v;
    case lm::Activation::kLeakyRelu: return v < 0.0f ? v * slope : v;
    case lm::Activation::kTanh: return std::tanh(v);
    case lm::Activation::kSigmoid: return 1.0f / (1.0f + std::exp(-v));
  }
  return v;
}

// Deconv forward spelled out in the engine's primitives: one GEMM into
// column form, col2im's scatter into a zeroed output, then a bias and
// activation sweep.
std::vector<float> scatter_deconv(const lm::ConvPlan& plan, const float* x,
                                  const std::vector<float>& weights,
                                  const lm::Epilogue& epi) {
  const lm::ConvKey& k = plan.key;
  std::vector<float> col(plan.rows * plan.cols);
  lm::gemm_at(plan.rows, plan.cols, k.in_c, 1.0f, weights.data(), x, 0.0f, col.data());
  const std::size_t plane = plan.out_h * plan.out_w;
  std::vector<float> y(k.out_c * plane, 0.0f);
  lm::col2im(col.data(), k.out_c, plan.out_h, plan.out_w, k.kernel, k.stride, k.pad,
             y.data());
  for (std::size_t oc = 0; oc < k.out_c; ++oc) {
    for (std::size_t i = 0; i < plane; ++i) {
      float& v = y[oc * plane + i];
      if (epi.bias != nullptr) v = v + epi.bias[oc];
      v = act_f(epi.act, v, epi.slope);
    }
  }
  return y;
}

std::uint64_t counter(const char* name) {
  return lo::Registry::global().counter_value(name);
}

struct Geometry {
  std::size_t in_c, h, w, out_c, k, stride, pad;
};

// Runs the forward plan for `g` over `batch` samples.
std::vector<float> run_forward(const Geometry& g, std::size_t batch,
                               const std::vector<float>& src,
                               const std::vector<float>& weights,
                               const std::vector<float>& bias, lm::Activation act,
                               float slope, lu::ExecContext* exec,
                               bool use_prepacked = false) {
  const auto plan = lm::conv_plan(
      {lm::ConvDir::kConv, g.in_c, g.h, g.w, g.out_c, g.k, g.stride, g.pad, 0});

  lm::Epilogue epi;
  epi.bias = bias.data();
  epi.bias_per_row = true;
  epi.act = act;
  epi.slope = slope;

  std::vector<float> dst(batch * g.out_c * plan->out_h * plan->out_w);
  lu::Workspace ws;
  if (use_prepacked) {
    const std::vector<float> packed = lm::pack_conv_weights(*plan, weights.data());
    lm::conv2d_forward(*plan, batch, src.data(), nullptr, packed.data(), epi,
                       dst.data(), exec, ws);
  } else {
    lm::conv2d_forward(*plan, batch, src.data(), weights.data(), nullptr, epi,
                       dst.data(), exec, ws);
  }
  return dst;
}

}  // namespace

// The forward must agree with the naive reference. Shapes use prime/odd
// extents so no tile or power-of-two boundary lines up by accident; the
// fused bias + leaky-ReLU epilogue rides along everywhere.
TEST(ConvEngine, ForwardMatchesNaiveReferenceOnPrimeShapes) {
  const Geometry geoms[] = {
      {3, 17, 13, 5, 5, 1, 2},   // few output channels
      {2, 11, 11, 7, 3, 1, 1},   // small channels, odd grid
      {4, 13, 17, 6, 5, 2, 2},   // strided
      {5, 7, 7, 3, 1, 1, 0},     // 1x1
      {1, 29, 29, 1, 11, 1, 5},  // large kernel
      {48, 8, 8, 1, 5, 1, 2},    // PatchGAN discriminator head
  };
  for (const Geometry& g : geoms) {
    const std::vector<float> src = synth_vec(g.in_c * g.h * g.w, 11);
    const std::vector<float> weights = synth_vec(g.out_c * g.in_c * g.k * g.k, 977);
    const std::vector<float> bias = synth_vec(g.out_c, 5077);
    const std::vector<double> want =
        naive_conv(src, g.in_c, g.h, g.w, weights, g.out_c, g.k, g.stride, g.pad,
                   bias, lm::Activation::kLeakyRelu, 0.2f);
    const std::vector<float> got = run_forward(
        g, 1, src, weights, bias, lm::Activation::kLeakyRelu, 0.2f, nullptr);
    // Float accumulation lands comfortably inside 1e-4 of the double
    // reference at these magnitudes.
    expect_close(got, want, 1e-4, "conv");
  }
}

TEST(ConvEngine, DeconvMatchesNaiveScatterReference) {
  const std::size_t in_c = 3, h = 7, w = 9, out_c = 4, k = 5, stride = 2, pad = 2,
                    output_pad = 1;
  const std::vector<float> src = synth_vec(in_c * h * w, 31);
  const std::vector<float> weights = synth_vec(in_c * out_c * k * k, 1031);
  const std::vector<float> bias = synth_vec(out_c, 7057);
  const std::vector<double> want =
      naive_deconv(src, in_c, h, w, weights, out_c, k, stride, pad, output_pad, bias,
                   lm::Activation::kRelu, 0.2f);

  const auto plan = lm::conv_plan(
      {lm::ConvDir::kDeconv, in_c, h, w, out_c, k, stride, pad, output_pad});

  lm::Epilogue epi;
  epi.bias = bias.data();
  epi.bias_per_row = true;
  epi.act = lm::Activation::kRelu;

  std::vector<float> dst(out_c * plan->out_h * plan->out_w);
  lu::Workspace ws;
  lm::deconv2d_forward(*plan, 1, src.data(), weights.data(), nullptr, epi, dst.data(),
                       nullptr, ws);
  expect_close(dst, want, 1e-4, "deconv");
}

// The writeback replays col2im's scatter order, so it must match the
// scatter form byte for byte: over the six lite decoder layers, stride 1
// and stride 3 (kernel < stride leaves outputs no tap reaches), output_pad
// 0 and 2, every activation, with and without bias, raw and prepacked
// weights, and -0.0 in the input.
TEST(ConvEngine, DeconvWritebackBitIdenticalToScatter) {
  struct DeconvGeometry {
    std::size_t in_c, h, w, out_c, k, stride, pad, output_pad;
  };
  const DeconvGeometry geoms[] = {
      {128, 1, 1, 128, 5, 2, 2, 1}, {128, 2, 2, 128, 5, 2, 2, 1},
      {128, 4, 4, 64, 5, 2, 2, 1},  {64, 8, 8, 32, 5, 2, 2, 1},
      {32, 16, 16, 16, 5, 2, 2, 1}, {16, 32, 32, 1, 5, 2, 2, 1},
      {3, 7, 9, 4, 3, 1, 1, 0},     {2, 5, 6, 3, 3, 1, 0, 0},
      {3, 5, 4, 2, 2, 3, 0, 0},     {3, 5, 4, 2, 2, 3, 0, 2},
      {2, 4, 5, 3, 5, 3, 1, 2},
  };
  const lm::Activation acts[] = {lm::Activation::kIdentity, lm::Activation::kRelu,
                                 lm::Activation::kLeakyRelu, lm::Activation::kTanh,
                                 lm::Activation::kSigmoid};
  for (const DeconvGeometry& g : geoms) {
    const auto plan = lm::conv_plan({lm::ConvDir::kDeconv, g.in_c, g.h, g.w, g.out_c,
                                     g.k, g.stride, g.pad, g.output_pad});
    std::vector<float> src = synth_vec(g.in_c * g.h * g.w, 47);
    for (std::size_t i = 0; i < src.size(); i += 7) src[i] = -0.0f;
    const std::vector<float> weights = synth_vec(g.in_c * g.out_c * g.k * g.k, 4099);
    const std::vector<float> bias = synth_vec(g.out_c, 8191);
    const std::vector<float> packed = lm::pack_conv_weights(*plan, weights.data());
    for (const lm::Activation act : acts) {
      for (const bool with_bias : {true, false}) {
        lm::Epilogue epi;
        epi.bias = with_bias ? bias.data() : nullptr;
        epi.act = act;
        epi.slope = 0.2f;
        const std::vector<float> want = scatter_deconv(*plan, src.data(), weights, epi);
        for (const bool prepacked : {false, true}) {
          std::vector<float> got(want.size(), std::nanf(""));
          lu::Workspace ws;
          lm::deconv2d_forward(*plan, 1, src.data(), prepacked ? nullptr : weights.data(),
                               prepacked ? packed.data() : nullptr, epi, got.data(),
                               nullptr, ws);
          EXPECT_TRUE(bit_equal(got, want))
              << g.in_c << "x" << g.h << "x" << g.w << " -> " << g.out_c << " k" << g.k
              << " s" << g.stride << " p" << g.pad << " op" << g.output_pad
              << " act=" << static_cast<int>(act) << " bias=" << with_bias
              << " prepacked=" << prepacked;
        }
      }
    }
  }
}

// Bit-identity across thread counts: the chunked dispatch may change which
// thread computes a sample, never what it computes. Batch 5 so the
// batch-parallel outer level engages; serial (no context) is the reference.
TEST(ConvEngine, ForwardBitIdenticalAcrossThreadCounts) {
  const Geometry g{3, 17, 13, 5, 5, 1, 2};
  const std::size_t batch = 5;
  const std::vector<float> src = synth_vec(batch * g.in_c * g.h * g.w, 211);
  const std::vector<float> weights = synth_vec(g.out_c * g.in_c * g.k * g.k, 2111);
  const std::vector<float> bias = synth_vec(g.out_c, 9643);
  const std::vector<float> ref =
      run_forward(g, batch, src, weights, bias, lm::Activation::kTanh, 0.2f, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    lu::ExecContext exec(threads);
    const std::vector<float> got =
        run_forward(g, batch, src, weights, bias, lm::Activation::kTanh, 0.2f, &exec);
    EXPECT_TRUE(bit_equal(got, ref)) << "threads=" << threads;
  }
}

// Prepacked constants are a layout change, not a numeric one.
TEST(ConvEngine, PrepackedWeightsBitIdenticalToRaw) {
  const Geometry g{4, 11, 13, 6, 3, 1, 1};
  const std::vector<float> src = synth_vec(g.in_c * g.h * g.w, 401);
  const std::vector<float> weights = synth_vec(g.out_c * g.in_c * g.k * g.k, 3301);
  const std::vector<float> bias = synth_vec(g.out_c, 11003);
  const std::vector<float> raw =
      run_forward(g, 1, src, weights, bias, lm::Activation::kSigmoid, 0.2f, nullptr,
                  /*use_prepacked=*/false);
  const std::vector<float> packed =
      run_forward(g, 1, src, weights, bias, lm::Activation::kSigmoid, 0.2f, nullptr,
                  /*use_prepacked=*/true);
  EXPECT_TRUE(bit_equal(raw, packed));
}

// The cache must hand back the same plan object on a repeated key (hit
// counter moves, miss counter does not) and build at most once per key.
TEST(ConvEngine, PlanCacheReusesPlans) {
  lm::ConvKey key;  // geometry unique to this test: nothing else uses 23x19
  key.in_c = 2;
  key.in_h = 23;
  key.in_w = 19;
  key.out_c = 3;
  key.kernel = 3;
  key.stride = 1;
  key.pad = 1;

  const std::uint64_t miss0 = counter("conv.plan_cache.miss");
  const auto first = lm::conv_plan(key);
  const std::uint64_t miss1 = counter("conv.plan_cache.miss");
  EXPECT_EQ(miss1, miss0 + 1) << "first lookup must be a miss";

  const std::uint64_t hit0 = counter("conv.plan_cache.hit");
  const auto second = lm::conv_plan(key);
  EXPECT_EQ(counter("conv.plan_cache.hit"), hit0 + 1) << "second lookup must hit";
  EXPECT_EQ(counter("conv.plan_cache.miss"), miss1) << "no rebuild on a hit";
  EXPECT_EQ(first.get(), second.get()) << "cache must return the same plan object";
}
