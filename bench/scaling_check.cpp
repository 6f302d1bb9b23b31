// Scaling smoke gate: representative parallelized ops must not get SLOWER
// when the worker count rises. Each op is timed best-of-N at 1 thread and
// at 8 threads in the same process, the repetitions alternating between the
// two so a slow phase of a shared host falls on both sides; the check fails
// (nonzero exit) if any op's 8-thread time exceeds 1.15x its 1-thread time.
//
// Two regimes are covered deliberately:
//   - ops above the dispatch-cost gate (GEMM, FFT, large tanh) really fan
//     out on multicore hosts, so a thundering-herd or barrier regression
//     shows up as 8t >> 1t;
//   - ops below the gate (every step of the tiny serving model) run inline
//     at every thread count, so a broken gate (dispatching tiny work) also
//     trips the 1.15x bound.
// On a single-hardware-thread host the cost gate inlines every hinted op,
// so 8t == 1t within noise and the bound holds trivially — the gate is what
// this binary then certifies.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/sample.hpp"
#include "litho/simulator.hpp"
#include "image/ops.hpp"
#include "math/conv.hpp"
#include "math/fft.hpp"
#include "math/gemm.hpp"
#include "serve/server.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/infer.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/workspace.hpp"

using namespace lithogan;

namespace {

/// Timed repetitions per thread count (each of `Op::iters` runs).
constexpr std::size_t kReps = 15;

struct Op {
  std::string name;
  std::size_t iters;
  std::function<void(util::ExecContext*)> run;
};

/// Seconds per iteration of one repetition of `op` on `exec`.
double time_rep(const Op& op, util::ExecContext* exec) {
  util::Timer t;
  for (std::size_t i = 0; i < op.iters; ++i) op.run(exec);
  return t.elapsed_seconds() / static_cast<double>(op.iters);
}

/// Pins the calling thread to the core it is running on, so threads it
/// starts inherit that one-core affinity. Returns false (and changes
/// nothing) when the affinity cannot be read or set; otherwise `saved`
/// holds the previous mask for the caller to restore.
bool pin_to_current_core(cpu_set_t& saved) {
  const int cpu = sched_getcpu();
  if (cpu < 0 || pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) != 0) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
}

}  // namespace

int main() {
  const double tolerance = 1.15;

  util::Rng rng(7);

  // GEMM 192^3: ~14M multiply-adds, well above the dispatch gate.
  const std::size_t n = 192;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  std::vector<float> c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));

  // 256x256 complex FFT: each row/column stage is ~2.6M scalar ops.
  const std::size_t fft_n = 256;
  std::vector<math::Complex> spectrum_seed(fft_n * fft_n);
  for (auto& v : spectrum_seed) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  // Large tanh: 8*128*128 elements at ~32 ops each crosses the gate.
  nn::Tanh tanh_op;
  const auto tanh_x = nn::Tensor::randn({1, 8, 128, 128}, rng);

  // Small conv (batch 4, 16->32, 32x32): the module path's batch-parallel
  // dispatch, fewer samples than workers.
  nn::Conv2d conv(16, 32, 5, 2, 2, rng);
  const auto conv_x = nn::Tensor::randn({4, 16, 32, 32}, rng);

  // InferencePlan (batch 8, conv-bn-act-deconv-act at 32x32): the serving
  // path's outer batch-parallel dispatch, one sample per worker with inner
  // kernels serial.
  nn::Sequential infer_net;
  infer_net.emplace<nn::Conv2d>(4, 16, 3, 2, 1, rng);
  infer_net.emplace<nn::BatchNorm2d>(16);
  infer_net.emplace<nn::LeakyReLU>(0.2f);
  infer_net.emplace<nn::ConvTranspose2d>(16, 1, 3, 2, 1, 1, rng);
  infer_net.emplace<nn::Tanh>();
  infer_net.set_training(false);
  nn::InferencePlan infer_plan;
  infer_plan.compile(infer_net, {4, 32, 32});
  const auto infer_x = nn::Tensor::randn({8, 4, 32, 32}, rng);

  // Conv engine via its plan (batch 8, 3->64 at 64x64): the engine's own
  // two-level dispatch — batch-parallel outer, serial inner —
  // exercised directly at the math layer rather than through a module.
  const std::size_t ce_in_c = 3, ce_hw = 64, ce_out_c = 64, ce_k = 5;
  math::ConvKey ce_key;
  ce_key.in_c = ce_in_c;
  ce_key.in_h = ce_hw;
  ce_key.in_w = ce_hw;
  ce_key.out_c = ce_out_c;
  ce_key.kernel = ce_k;
  ce_key.stride = 2;
  ce_key.pad = 2;
  const auto ce_plan = math::conv_plan(ce_key);
  std::vector<float> ce_src(8 * ce_in_c * ce_hw * ce_hw);
  std::vector<float> ce_w(ce_out_c * ce_in_c * ce_k * ce_k);
  std::vector<float> ce_bias(ce_out_c);
  for (auto& v : ce_src) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : ce_w) v = static_cast<float>(rng.uniform(-1, 1));
  math::Epilogue ce_epi;
  ce_epi.bias = ce_bias.data();
  ce_epi.bias_per_row = true;
  ce_epi.act = math::Activation::kLeakyRelu;
  std::vector<float> ce_dst(8 * ce_out_c * ce_plan->out_h * ce_plan->out_w);
  util::Workspace ce_ws;

  util::ExecContext exec1(1);
  util::ExecContext exec8(8);

  // Serving layer p99 path (tiny model, batch-of-16 dispatch): one server
  // per exec context so the scheduler's predict_batch_into inherits the
  // plan's thread count. Submitting a full batch and waiting for the last
  // response times the tail a saturated client sees. Every step's cost is
  // under the dispatch gate, so both thread counts run the same inline
  // code on the scheduler thread.
  core::LithoGanConfig serve_cfg = core::LithoGanConfig::tiny();
  serve_cfg.image_size = 16;
  serve_cfg.base_channels = 6;
  serve_cfg.max_channels = 24;
  std::vector<data::Sample> serve_samples;
  for (std::size_t i = 0; i < 16; ++i) {
    data::Sample s;
    s.clip_id = "scale-" + std::to_string(i);
    s.resist_pixel_nm = 8.0;
    s.mask_rgb = image::Image(3, serve_cfg.image_size, serve_cfg.image_size);
    image::fill_rect(s.mask_rgb, 1, {{4.0, 4.0}, {12.0, 12.0}}, 1.0f);
    serve_samples.push_back(std::move(s));
  }
  core::LithoGanConfig serve_cfg1 = serve_cfg;
  serve_cfg1.exec = &exec1;
  core::LithoGanConfig serve_cfg8 = serve_cfg;
  serve_cfg8.exec = &exec8;
  core::LithoGan serve_model1(serve_cfg1, core::Mode::kPlainCgan);
  core::LithoGan serve_model8(serve_cfg8, core::Mode::kPlainCgan);
  serve::Config serve_sc;
  serve_sc.max_batch = 16;
  // Large timeout: all 16 submits land well inside it, so every dispatch
  // rides the deterministic batch-full trigger — timing the op never races
  // the timeout trigger, keeping the 1t/8t ratio noise-free.
  serve_sc.max_wait_us = 50'000;
  // Both scheduler threads start pinned to one core (the 8-thread pool's
  // workers are already running and stay unpinned). The op's predict runs
  // on its server's scheduler thread, and on a shared host one core can run
  // 1.5x slower than another for seconds: unpinned, two identical 1-thread
  // servers read up to 1.5x apart on a 4-vCPU VM.
  cpu_set_t main_affinity;
  const bool pinned = pin_to_current_core(main_affinity);
  serve::Server serve_server1(serve_model1, serve_sc);
  serve::Server serve_server8(serve_model8, serve_sc);
  if (pinned) pthread_setaffinity_np(pthread_self(), sizeof main_affinity, &main_affinity);

  // Chip tile streaming (2x2 tiles, reduced source): the chip pipeline's
  // wave dispatch — one golden tile simulation per worker, with persistent
  // per-worker simulator clones — timed end to end over a small generated
  // chip. One pipeline per exec context so each keeps its own warm clones.
  litho::ProcessConfig chip_process = litho::ProcessConfig::n10();
  chip_process.optical.source_rings = 1;
  chip_process.optical.source_points_per_ring = 8;
  litho::Simulator chip_calib(chip_process);
  chip_calib.calibrate_dose();
  chip::ChipConfig chip_cfg;
  chip_cfg.chip_nm = 800.0;
  chip_cfg.tile_extent_nm = 1024.0;
  chip_cfg.tile_pixels = 256;
  chip_cfg.halo_lobes = 1.0;
  chip_cfg.ring_depth = 2;
  const chip::ChipLayout chip_layout(chip_calib.process(), chip_cfg);
  chip::ChipPipeline chip_pipe1(chip_calib.process(), chip_layout, &exec1);
  chip::ChipPipeline chip_pipe8(chip_calib.process(), chip_layout, &exec8);

  std::vector<Op> ops;
  ops.push_back({"gemm_192", 16, [&](util::ExecContext* exec) {
                   math::gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data(), exec);
                 }});
  ops.push_back({"fft2d_256", 4, [&](util::ExecContext* exec) {
                   std::vector<math::Complex> data = spectrum_seed;
                   math::fft2d(data, fft_n, fft_n, false, exec);
                 }});
  ops.push_back({"tanh_8x128x128", 8, [&](util::ExecContext* exec) {
                   tanh_op.set_exec_context(exec);
                   auto y = tanh_op.forward(tanh_x);
                 }});
  ops.push_back({"conv2d_small", 4, [&](util::ExecContext* exec) {
                   conv.set_exec_context(exec);
                   auto y = conv.forward(conv_x);
                 }});
  ops.push_back({"conv_plan", 4, [&](util::ExecContext* exec) {
                   math::conv2d_forward(*ce_plan, 8, ce_src.data(), ce_w.data(),
                                        nullptr, ce_epi, ce_dst.data(), exec, ce_ws);
                 }});
  ops.push_back({"infer_plan_b8", 4, [&](util::ExecContext* exec) {
                   infer_plan.set_exec_context(exec);
                   (void)infer_plan.infer(infer_x);
                 }});
  ops.push_back({"chip_tile", 1, [&](util::ExecContext* exec) {
                   chip::ChipPipeline& pipe =
                       exec == &exec8 ? chip_pipe8 : chip_pipe1;
                   std::size_t done = 0;
                   pipe.run_golden(
                       [&done](std::size_t,
                               std::span<const chip::ContactResult> r) {
                         done += r.size();
                       });
                 }});
  ops.push_back({"serve_p99", 2, [&](util::ExecContext* exec) {
                   serve::Server& server =
                       exec == &exec8 ? serve_server8 : serve_server1;
                   std::vector<serve::Ticket> tickets;
                   tickets.reserve(serve_samples.size());
                   for (const auto& s : serve_samples) {
                     tickets.push_back(server.submit(s));
                   }
                   for (const auto& t : tickets) (void)server.wait(t);
                 }});

  std::printf("scaling smoke — 8-thread time must stay within %.2fx of 1-thread:\n",
              tolerance);
  std::printf("  %-16s %12s %12s %8s\n", "op", "1t (us)", "8t (us)", "ratio");
  bool ok = true;
  for (const Op& op : ops) {
    // Warm both contexts (pool spin-up, allocator, code paths) before timing.
    op.run(&exec1);
    op.run(&exec8);
    double t1 = std::numeric_limits<double>::infinity();
    double t8 = t1;
    for (std::size_t r = 0; r < kReps; ++r) {
      t1 = std::min(t1, time_rep(op, &exec1));
      t8 = std::min(t8, time_rep(op, &exec8));
    }
    const double ratio = t8 / std::max(t1, 1e-12);
    const bool pass = ratio <= tolerance;
    ok = ok && pass;
    std::printf("  %-16s %12.1f %12.1f %7.2fx  %s\n", op.name.c_str(), t1 * 1e6,
                t8 * 1e6, ratio, pass ? "ok" : "FAIL");
  }
  if (!ok) {
    std::printf("\nFAIL: an op is slower with 8 worker threads than with 1\n");
    return 1;
  }
  std::printf("\nall ops within tolerance\n");
  return 0;
}
