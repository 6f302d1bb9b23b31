// Convolution-engine gates (math/conv.hpp):
//
//   * the implicit-GEMM forward and the deconv writeback agree with naive
//     double-accumulated references within tolerance on prime/odd shapes;
//   * the forward is byte-identical to row-major im2col -> gemm ->
//     bias/activation sweep (the keystone: every lite conv, strides 1-3,
//     kernels 1-7, every pad up to the kernel, raw and prepacked weights,
//     batch 1 and 5, serial and 1/2/8 threads);
//   * the deconv writeback is byte-identical to GEMM + col2im scatter into
//     zeros + bias/activation sweep;
//   * gemm.flops counts only the live output columns;
//   * the entry points reject calls that pass both or neither weight form;
//   * the plan cache actually reuses plans (conv.plan_cache.{hit,miss}
//     counter deltas plus shared_ptr identity).
//
// Tier2-labelled: `ctest -L tier2` under -DLITHOGAN_SANITIZE=address|thread
// sweeps the engine's phase-plane reads and packing paths with sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "math/conv.hpp"
#include "math/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
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

// Conv forward spelled out in the engine's primitives: row-major im2col,
// one GEMM per sample on raw weights, then a bias and activation sweep.
std::vector<float> im2col_gemm_conv(const lm::ConvPlan& plan, std::size_t batch,
                                    const std::vector<float>& src,
                                    const std::vector<float>& weights,
                                    const lm::Epilogue& epi) {
  const lm::ConvKey& k = plan.key;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * plan.cols;
  std::vector<float> col(plan.rows * plan.cols);
  std::vector<float> y(batch * out_elems, std::nanf(""));
  for (std::size_t n = 0; n < batch; ++n) {
    lm::im2col(src.data() + n * in_elems, k.in_c, k.in_h, k.in_w, k.kernel, k.stride,
               k.pad, col.data());
    float* yn = y.data() + n * out_elems;
    lm::gemm(k.out_c, plan.cols, plan.rows, 1.0f, weights.data(), col.data(), 0.0f, yn);
    for (std::size_t oc = 0; oc < k.out_c; ++oc) {
      for (std::size_t i = 0; i < plan.cols; ++i) {
        float& v = yn[oc * plan.cols + i];
        if (epi.bias != nullptr) v = v + epi.bias[oc];
        v = act_f(epi.act, v, epi.slope);
      }
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

// Runs the forward plan for `g` over one sample, serially, on raw weights.
std::vector<float> run_forward(const Geometry& g, const std::vector<float>& src,
                               const std::vector<float>& weights,
                               const std::vector<float>& bias, lm::Activation act,
                               float slope) {
  const auto plan = lm::conv_plan(
      {lm::ConvDir::kConv, g.in_c, g.h, g.w, g.out_c, g.k, g.stride, g.pad, 0});

  lm::Epilogue epi;
  epi.bias = bias.data();
  epi.bias_per_row = true;
  epi.act = act;
  epi.slope = slope;

  std::vector<float> dst(g.out_c * plan->out_h * plan->out_w);
  lu::Workspace ws;
  lm::conv2d_forward(*plan, 1, src.data(), weights.data(), nullptr, epi, dst.data(),
                     nullptr, ws);
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
    const std::vector<float> got =
        run_forward(g, src, weights, bias, lm::Activation::kLeakyRelu, 0.2f);
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

// The keystone: the implicit GEMM reads each tap row in place from the
// padded phase planes, runs the same kernels in the same K order as a GEMM
// on the materialized column matrix and stores only live columns — so it
// must match im2col -> gemm -> bias/activation sweep byte for byte,
// written into NaN-poisoned outputs, on every geometry the models use and
// on the edges of the phase layout.
TEST(ConvEngine, ForwardBitIdenticalToIm2colGemm) {
  std::vector<Geometry> geoms = {
      // The nine lite convs: center CNN, then generator L0-L5.
      {3, 64, 64, 8, 7, 1, 3},    {8, 32, 32, 16, 3, 1, 1},   {16, 16, 16, 16, 3, 1, 1},
      {3, 64, 64, 16, 5, 2, 2},   {16, 32, 32, 32, 5, 2, 2},  {32, 16, 16, 64, 5, 2, 2},
      {64, 8, 8, 128, 5, 2, 2},   {128, 4, 4, 128, 5, 2, 2},  {128, 2, 2, 128, 5, 2, 2},
      // 1x1 outputs, and Ho*Wo past one column tile over several K blocks.
      {3, 5, 5, 4, 5, 1, 0},      {2, 3, 3, 3, 3, 2, 0},      {1, 1, 1, 2, 3, 3, 1},
      {12, 13, 11, 10, 5, 1, 2},
  };
  // Strides 1-3 against kernels 1-7 with every pad up to the kernel, on a
  // non-square input: stride > kernel leaves phases no tap reads, pad =
  // kernel leaves taps that read padding only.
  for (const std::size_t stride : {1, 2, 3}) {
    for (const std::size_t k : {1, 3, 5, 7}) {
      for (std::size_t pad = 0; pad <= k; ++pad) {
        geoms.push_back({2, 9, 7 + stride, 3, k, stride, pad});
      }
    }
  }
  const lm::Activation acts[] = {lm::Activation::kIdentity, lm::Activation::kRelu,
                                 lm::Activation::kLeakyRelu, lm::Activation::kTanh,
                                 lm::Activation::kSigmoid};
  lu::ExecContext exec1(1);
  lu::ExecContext exec2(2);
  lu::ExecContext exec8(8);
  lu::ExecContext* const execs[] = {nullptr, &exec1, &exec2, &exec8};
  std::size_t case_index = 0;
  for (const Geometry& g : geoms) {
    if (g.h + 2 * g.pad < g.k || g.w + 2 * g.pad < g.k) continue;
    const auto plan = lm::conv_plan(
        {lm::ConvDir::kConv, g.in_c, g.h, g.w, g.out_c, g.k, g.stride, g.pad, 0});
    const std::vector<float> weights = synth_vec(g.out_c * plan->rows, 613);
    const std::vector<float> packed = lm::pack_conv_weights(*plan, weights.data());
    const std::vector<float> bias = synth_vec(g.out_c, 7919);
    lm::Epilogue epi;
    epi.bias = case_index % 3 == 2 ? nullptr : bias.data();
    epi.act = acts[case_index % 5];
    epi.slope = 0.2f;
    ++case_index;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{5}}) {
      std::vector<float> src = synth_vec(batch * g.in_c * g.h * g.w, 89);
      for (std::size_t i = 0; i < src.size(); i += 11) src[i] = -0.0f;
      const std::vector<float> want = im2col_gemm_conv(*plan, batch, src, weights, epi);
      for (lu::ExecContext* exec : execs) {
        for (const bool prepacked : {false, true}) {
          std::vector<float> got(want.size(), std::nanf(""));
          lu::Workspace ws;
          lm::conv2d_forward(*plan, batch, src.data(), prepacked ? nullptr : weights.data(),
                             prepacked ? packed.data() : nullptr, epi, got.data(), exec, ws);
          EXPECT_TRUE(bit_equal(got, want))
              << g.in_c << "x" << g.h << "x" << g.w << " -> " << g.out_c << " k" << g.k
              << " s" << g.stride << " p" << g.pad << " batch=" << batch
              << " threads=" << (exec == nullptr ? 0 : exec->threads())
              << " prepacked=" << prepacked;
        }
      }
    }
  }
}

// gemm.flops keeps meaning live math: the virtual columns between output
// rows are computed in the register tile but never counted.
TEST(ConvEngine, ForwardCountsOnlyLiveFlops) {
  const Geometry geoms[] = {{3, 17, 13, 5, 5, 2, 2}, {4, 11, 13, 6, 3, 1, 1}};
  for (const Geometry& g : geoms) {
    const std::size_t batch = 3;
    const auto plan = lm::conv_plan(
        {lm::ConvDir::kConv, g.in_c, g.h, g.w, g.out_c, g.k, g.stride, g.pad, 0});
    const std::vector<float> src = synth_vec(batch * g.in_c * g.h * g.w, 5);
    const std::vector<float> weights = synth_vec(g.out_c * plan->rows, 6);
    std::vector<float> dst(batch * g.out_c * plan->cols);
    lu::Workspace ws;
    const std::uint64_t before = counter("gemm.flops");
    lm::conv2d_forward(*plan, batch, src.data(), weights.data(), nullptr, {}, dst.data(),
                       nullptr, ws);
    EXPECT_EQ(counter("gemm.flops") - before,
              2 * g.out_c * plan->out_h * plan->out_w * g.in_c * g.k * g.k * batch)
        << "k" << g.k << " s" << g.stride;
  }
}

// Exactly one weight form: both or neither is a caller bug, not a choice.
TEST(ConvEngine, ForwardRejectsAmbiguousWeights) {
  const auto conv = lm::conv_plan({lm::ConvDir::kConv, 2, 5, 5, 3, 3, 1, 1, 0});
  const auto deconv = lm::conv_plan({lm::ConvDir::kDeconv, 2, 3, 3, 3, 3, 2, 1, 1});
  const std::vector<float> src(2 * 5 * 5, 1.0f);
  const std::vector<float> w(64 * 64, 0.5f);
  std::vector<float> dst(3 * 25 * 4);
  lu::Workspace ws;
  EXPECT_THROW(lm::conv2d_forward(*conv, 1, src.data(), nullptr, nullptr, {}, dst.data(),
                                  nullptr, ws),
               lu::Error);
  EXPECT_THROW(lm::conv2d_forward(*conv, 1, src.data(), w.data(), w.data(), {},
                                  dst.data(), nullptr, ws),
               lu::Error);
  EXPECT_THROW(lm::deconv2d_forward(*deconv, 1, src.data(), nullptr, nullptr, {},
                                    dst.data(), nullptr, ws),
               lu::Error);
  EXPECT_THROW(lm::deconv2d_forward(*deconv, 1, src.data(), w.data(), w.data(), {},
                                    dst.data(), nullptr, ws),
               lu::Error);
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
