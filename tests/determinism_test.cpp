// Bit-identity of parallelized compute across thread counts.
//
// The execution-context refactor promises that every routine produces
// bitwise-identical results whether run serially (exec == nullptr), on a
// single-thread pool, or on any wider pool. These tests pin that contract
// for the representative routines of each layer: gemm (math), fft2d
// (math), Conv2d / ConvTranspose2d forward+backward (nn), the loss
// functions (nn), and Simulator::run (litho). A failure here means a
// reduction order leaked through the thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "litho/process.hpp"
#include "litho/simulator.hpp"
#include "math/fft.hpp"
#include "math/gemm.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/infer.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"

namespace lu = lithogan::util;
namespace lm = lithogan::math;
namespace ln = lithogan::nn;
namespace ll = lithogan::litho;
namespace ld = lithogan::data;

namespace {

// Thread counts exercised by every test: serial reference plus pools of
// 1, 2 and 8 threads (8 oversubscribes small machines on purpose — the
// schedule must not matter).
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Deterministic pseudo-data without touching the Rng stream: a cheap
// hash-to-float covering positives, negatives, and magnitudes around 1.
float synth(std::size_t i) {
  const std::uint32_t h = static_cast<std::uint32_t>(i) * 2654435761u + 12345u;
  return static_cast<float>(static_cast<std::int32_t>(h % 2000) - 1000) / 250.0f;
}

template <typename T>
bool bit_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool bit_equal(const ln::Tensor& a, const ln::Tensor& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0);
}

}  // namespace

TEST(Determinism, GemmFamilyMatchesSerialAtAnyThreadCount) {
  const std::size_t m = 37, n = 53, k = 41;
  std::vector<float> a(m * k), b(k * n), bt(n * k);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = synth(i);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = synth(i + 7777);
  for (std::size_t i = 0; i < bt.size(); ++i) bt[i] = synth(i + 31337);

  std::vector<float> c_ref(m * n), cat_ref(m * n), cbt_ref(m * n);
  for (std::size_t i = 0; i < m * n; ++i) c_ref[i] = cat_ref[i] = cbt_ref[i] = synth(i + 5);
  lm::gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, c_ref.data(), nullptr);
  // gemm_at treats its first operand as k x m row-major.
  lm::gemm_at(m, n, k, 1.25f, a.data(), b.data(), 0.5f, cat_ref.data(), nullptr);
  lm::gemm_bt(m, n, k, 1.25f, a.data(), bt.data(), 0.5f, cbt_ref.data(), nullptr);

  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    std::vector<float> c(m * n), cat(m * n), cbt(m * n);
    for (std::size_t i = 0; i < m * n; ++i) c[i] = cat[i] = cbt[i] = synth(i + 5);
    lm::gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, c.data(), &exec);
    lm::gemm_at(m, n, k, 1.25f, a.data(), b.data(), 0.5f, cat.data(), &exec);
    lm::gemm_bt(m, n, k, 1.25f, a.data(), bt.data(), 0.5f, cbt.data(), &exec);
    EXPECT_TRUE(bit_equal(c, c_ref)) << "gemm, threads=" << threads;
    EXPECT_TRUE(bit_equal(cat, cat_ref)) << "gemm_at, threads=" << threads;
    EXPECT_TRUE(bit_equal(cbt, cbt_ref)) << "gemm_bt, threads=" << threads;
  }
}

TEST(Determinism, Fft2dMatchesSerialAtAnyThreadCount) {
  const std::size_t rows = 32, cols = 64;
  std::vector<lm::Complex> ref(rows * cols);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = {static_cast<double>(synth(i)), static_cast<double>(synth(i + 999))};
  }
  const std::vector<lm::Complex> original = ref;
  lm::fft2d(ref, rows, cols, /*inverse=*/false, nullptr);

  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    std::vector<lm::Complex> data = original;
    lm::fft2d(data, rows, cols, /*inverse=*/false, &exec);
    EXPECT_TRUE(bit_equal(data, ref)) << "fft2d forward, threads=" << threads;
    lm::fft2d(data, rows, cols, /*inverse=*/true, &exec);
    std::vector<lm::Complex> ref_roundtrip = ref;
    lm::fft2d(ref_roundtrip, rows, cols, /*inverse=*/true, nullptr);
    EXPECT_TRUE(bit_equal(data, ref_roundtrip)) << "fft2d inverse, threads=" << threads;
  }
}

namespace {

// Runs one forward + backward through a freshly seeded conv layer and
// returns (output, grad_input, weight.grad, bias.grad).
struct ConvRun {
  ln::Tensor out, grad_in, wgrad, bgrad;
};

template <typename MakeLayer>
ConvRun run_conv(MakeLayer make, lu::ExecContext* exec) {
  lu::Rng rng(42);
  auto layer = make(rng);
  layer.set_exec_context(exec);

  const std::size_t batch = 3, cin = 4, h = 9, w = 9;
  ln::Tensor x({batch, cin, h, w});
  for (std::size_t i = 0; i < x.size(); ++i) x.raw()[i] = synth(i);
  ConvRun r;
  r.out = layer.forward(x);
  ln::Tensor gy(r.out.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy.raw()[i] = synth(i + 4242);
  r.grad_in = layer.backward(gy);
  auto params = layer.parameters();
  r.wgrad = params[0]->grad;
  r.bgrad = params[1]->grad;
  return r;
}

void expect_same_run(const ConvRun& got, const ConvRun& ref, std::size_t threads,
                     const char* what) {
  EXPECT_TRUE(bit_equal(got.out, ref.out)) << what << " forward, threads=" << threads;
  EXPECT_TRUE(bit_equal(got.grad_in, ref.grad_in))
      << what << " grad_input, threads=" << threads;
  EXPECT_TRUE(bit_equal(got.wgrad, ref.wgrad))
      << what << " weight.grad, threads=" << threads;
  EXPECT_TRUE(bit_equal(got.bgrad, ref.bgrad))
      << what << " bias.grad, threads=" << threads;
}

}  // namespace

TEST(Determinism, Conv2dForwardBackwardMatchesSerialAtAnyThreadCount) {
  auto make = [](lu::Rng& rng) { return ln::Conv2d(4, 6, 3, 2, 1, rng); };
  const ConvRun ref = run_conv(make, nullptr);
  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    expect_same_run(run_conv(make, &exec), ref, threads, "Conv2d");
  }
}

TEST(Determinism, ConvTranspose2dForwardBackwardMatchesSerialAtAnyThreadCount) {
  auto make = [](lu::Rng& rng) { return ln::ConvTranspose2d(4, 6, 3, 2, 1, 1, rng); };
  const ConvRun ref = run_conv(make, nullptr);
  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    expect_same_run(run_conv(make, &exec), ref, threads, "ConvTranspose2d");
  }
}

TEST(Determinism, LossValuesAndGradsMatchSerialAtAnyThreadCount) {
  ln::Tensor pred({2, 3, 8, 8}), target({2, 3, 8, 8});
  for (std::size_t i = 0; i < pred.size(); ++i) {
    pred.raw()[i] = synth(i);
    target.raw()[i] = synth(i + 100);
  }
  const auto l1_ref = ln::l1_loss(pred, target, nullptr);
  const auto mse_ref = ln::mse_loss(pred, target, nullptr);
  const auto bce_ref = ln::bce_with_logits_loss(pred, target, nullptr);

  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    const auto l1 = ln::l1_loss(pred, target, &exec);
    const auto mse = ln::mse_loss(pred, target, &exec);
    const auto bce = ln::bce_with_logits_loss(pred, target, &exec);
    // Loss scalars are accumulated serially in index order by contract, so
    // they too must match to the last bit.
    EXPECT_EQ(l1.value, l1_ref.value) << "threads=" << threads;
    EXPECT_EQ(mse.value, mse_ref.value) << "threads=" << threads;
    EXPECT_EQ(bce.value, bce_ref.value) << "threads=" << threads;
    EXPECT_TRUE(bit_equal(l1.grad, l1_ref.grad)) << "l1 grad, threads=" << threads;
    EXPECT_TRUE(bit_equal(mse.grad, mse_ref.grad)) << "mse grad, threads=" << threads;
    EXPECT_TRUE(bit_equal(bce.grad, bce_ref.grad)) << "bce grad, threads=" << threads;
  }
}

TEST(Determinism, SimulatorRunMatchesSerialAtAnyThreadCount) {
  ll::ProcessConfig process = ll::ProcessConfig::n10();
  process.grid.pixels = 64;  // keep the rigorous stack fast in CI

  const double c = process.grid.extent_nm / 2.0;
  const double size = process.contact_size_nm;
  const std::vector<lithogan::geometry::Rect> mask = {
      lithogan::geometry::Rect::from_center({c, c}, size, size),
      lithogan::geometry::Rect::from_center({c + process.min_pitch_nm, c}, size, size),
  };

  process.exec = nullptr;
  ll::Simulator serial(process);
  const auto ref = serial.run(mask);
  const auto ref_aerial = serial.aerial_image(mask);
  ASSERT_FALSE(ref_aerial.values.empty());

  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    process.exec = &exec;
    ll::Simulator sim(process);
    const auto got = sim.run(mask);
    const auto aerial = sim.aerial_image(mask);
    EXPECT_TRUE(bit_equal(aerial.values, ref_aerial.values))
        << "aerial, threads=" << threads;
    EXPECT_TRUE(bit_equal(sim.develop(aerial).values, got.develop.values))
        << "staged develop, threads=" << threads;
    EXPECT_TRUE(bit_equal(got.latent.values, ref.latent.values))
        << "latent, threads=" << threads;
    EXPECT_TRUE(bit_equal(got.develop.values, ref.develop.values))
        << "develop, threads=" << threads;
    ASSERT_EQ(got.contours.size(), ref.contours.size()) << "threads=" << threads;
    for (std::size_t p = 0; p < ref.contours.size(); ++p) {
      const auto& gv = got.contours[p].vertices();
      const auto& rv = ref.contours[p].vertices();
      ASSERT_EQ(gv.size(), rv.size()) << "contour " << p << ", threads=" << threads;
      for (std::size_t v = 0; v < rv.size(); ++v) {
        EXPECT_EQ(gv[v].x, rv[v].x);
        EXPECT_EQ(gv[v].y, rv[v].y);
      }
    }
  }
}

// Clip level: the batch API (one clip per worker, serial-inner clones) must
// reproduce the sequential per-clip runs bit for bit, in clip order.
TEST(Determinism, SimulatorRunBatchMatchesSequentialAtAnyThreadCount) {
  ll::ProcessConfig process = ll::ProcessConfig::n10();
  process.grid.pixels = 64;

  const double c = process.grid.extent_nm / 2.0;
  const double size = process.contact_size_nm;
  const double pitch = process.min_pitch_nm;
  std::vector<std::vector<lithogan::geometry::Rect>> clips;
  clips.push_back({lithogan::geometry::Rect::from_center({c, c}, size, size)});
  clips.push_back({lithogan::geometry::Rect::from_center({c - pitch, c}, size, size),
                   lithogan::geometry::Rect::from_center({c + pitch, c}, size, size)});
  clips.push_back({lithogan::geometry::Rect::from_center({c, c - pitch}, size, size),
                   lithogan::geometry::Rect::from_center({c, c}, size, size),
                   lithogan::geometry::Rect::from_center({c, c + pitch}, size, size)});

  process.exec = nullptr;
  ll::Simulator serial(process);
  std::vector<ll::SimulationResult> refs;
  for (const auto& clip : clips) refs.push_back(serial.run(clip));

  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    process.exec = &exec;
    ll::Simulator sim(process);
    const auto got = sim.run_batch(clips);
    ASSERT_EQ(got.size(), refs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      EXPECT_TRUE(bit_equal(got[i].latent.values, refs[i].latent.values))
          << "latent, clip " << i << ", threads=" << threads;
      EXPECT_TRUE(bit_equal(got[i].develop.values, refs[i].develop.values))
          << "develop, clip " << i << ", threads=" << threads;
      ASSERT_EQ(got[i].contours.size(), refs[i].contours.size())
          << "clip " << i << ", threads=" << threads;
    }
  }
}

namespace {

/// A small synthetic dataset (no simulation) for the batch-assembly
/// determinism check.
ld::Dataset synthetic_dataset(std::size_t count, std::size_t size) {
  ld::Dataset ds;
  ds.process_name = "synthetic";
  ds.render.mask_size_px = size;
  ds.render.resist_size_px = size;
  for (std::size_t s = 0; s < count; ++s) {
    ld::Sample sample;
    sample.clip_id = "synthetic-" + std::to_string(s);
    sample.mask_rgb = lithogan::image::Image(3, size, size);
    sample.resist = lithogan::image::Image(1, size, size);
    sample.resist_centered = lithogan::image::Image(1, size, size);
    sample.aerial = lithogan::image::Image(1, size, size);
    for (std::size_t i = 0; i < sample.mask_rgb.data().size(); ++i) {
      sample.mask_rgb.data()[i] = synth(s * 10007 + i) > 0.0f ? 1.0f : 0.0f;
    }
    for (std::size_t i = 0; i < size * size; ++i) {
      sample.resist.data()[i] = synth(s * 20011 + i) > 0.5f ? 1.0f : 0.0f;
      sample.resist_centered.data()[i] = synth(s * 30013 + i) > 0.5f ? 1.0f : 0.0f;
      sample.aerial.data()[i] = std::fabs(synth(s * 40031 + i)) * 0.25f;
    }
    sample.center_px = {static_cast<double>(size) / 2.0 + synth(s),
                        static_cast<double>(size) / 2.0 + synth(s + 50)};
    sample.cd_width_nm = 20.0 + s;
    sample.cd_height_nm = 21.0 + s;
    sample.resist_pixel_nm = 4.0;
    ds.samples.push_back(std::move(sample));
  }
  return ds;
}

}  // namespace

// Batch level: sample-parallel tensor assembly writes disjoint slices, so
// any schedule must reproduce the serial result.
TEST(Determinism, BatchAssemblyMatchesSerialAtAnyThreadCount) {
  const ld::Dataset ds = synthetic_dataset(5, 16);
  const std::vector<std::size_t> indices = {3, 0, 4, 1, 2};

  const ln::Tensor masks_ref = ld::batch_masks(ds, indices, nullptr);
  const ln::Tensor resists_ref = ld::batch_resists(ds, indices, false, nullptr);
  const ln::Tensor centered_ref = ld::batch_resists(ds, indices, true, nullptr);
  const ln::Tensor centers_ref = ld::batch_centers(ds, indices, nullptr);

  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    EXPECT_TRUE(bit_equal(ld::batch_masks(ds, indices, &exec), masks_ref))
        << "masks, threads=" << threads;
    EXPECT_TRUE(bit_equal(ld::batch_resists(ds, indices, false, &exec), resists_ref))
        << "resists, threads=" << threads;
    EXPECT_TRUE(bit_equal(ld::batch_resists(ds, indices, true, &exec), centered_ref))
        << "centered resists, threads=" << threads;
    EXPECT_TRUE(bit_equal(ld::batch_centers(ds, indices, &exec), centers_ref))
        << "centers, threads=" << threads;
  }
}

TEST(Determinism, InferencePlanMatchesSerialAtAnyThreadCount) {
  lu::Rng rng(4242);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(2, 8, 3, 2, 1, rng);
  net.emplace<ln::BatchNorm2d>(8);
  net.emplace<ln::LeakyReLU>(0.2f);
  net.emplace<ln::ConvTranspose2d>(8, 1, 3, 2, 1, 1, rng);
  net.emplace<ln::Tanh>();
  net.set_training(false);

  ln::InferencePlan plan;
  plan.compile(net, {2, 16, 16});

  ln::Tensor x({4, 2, 16, 16});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = synth(i + 424242);

  // Serial reference; copy out of the plan's reused output storage.
  const ln::Tensor ref = plan.infer(x);
  for (const std::size_t threads : kThreadCounts) {
    lu::ExecContext exec(threads);
    plan.set_exec_context(&exec);
    EXPECT_TRUE(bit_equal(plan.infer(x), ref)) << "plan infer, threads=" << threads;
    plan.set_exec_context(nullptr);
  }
}

TEST(Determinism, DefaultPlanStaysF32AndBitIdenticalToEvalForward) {
  // A default-constructed plan reproduces the eval-mode module forward bit
  // for bit.
  lu::Rng rng(777);
  ln::Sequential net;
  net.emplace<ln::Conv2d>(2, 8, 3, 2, 1, rng);
  net.emplace<ln::BatchNorm2d>(8);
  net.emplace<ln::LeakyReLU>(0.2f);
  net.emplace<ln::ConvTranspose2d>(8, 1, 3, 2, 1, 1, rng);
  net.emplace<ln::Tanh>();
  net.set_training(false);

  ln::InferencePlan plan;
  plan.compile(net, {2, 16, 16});

  ln::Tensor x({3, 2, 16, 16});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = synth(i + 777);
  EXPECT_TRUE(bit_equal(plan.infer(x), net.forward(x)))
      << "default plan diverged from eval-mode forward";
}
