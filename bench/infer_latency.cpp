// Serving-latency bench for the batched inference engine.
//
// Compares the pre-plan serving path — an eval-mode module forward per clip
// (per-layer heap allocation, autodiff input caching, per-call weight
// repacking, separate bias/activation sweeps) — against InferencePlan with
// prepacked weight panels, a liveness-planned activation arena and fused
// GEMM epilogues, then sweeps the plan's batch size and the end-to-end
// LithoGan::predict_batch pipeline (generator plan + center-CNN plan +
// recentering).
//
// Gates:
//   * single-clip plan latency must be >= 2x faster than the module-forward
//     path (printed OK/MISS, like the table benches' shape checks);
//   * steady-state infer() calls at a warm batch size must perform zero
//     arena allocations (hard FAIL — deterministic, affects the exit code).
//
// Output: BENCH_infer.json (override with LITHOGAN_BENCH_JSON), one record
// per row with ns_per_iter = per-clip nanoseconds.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/batch.hpp"
#include "data/sample.hpp"
#include "image/ops.hpp"
#include "nn/infer.hpp"
#include "nn/sequential.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace lithogan;

namespace {

/// Best-of-`reps` seconds per iteration of `body`.
double best_of(std::size_t reps, std::size_t iters,
               const std::function<void()>& body) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    util::Timer t;
    for (std::size_t i = 0; i < iters; ++i) body();
    best = std::min(best, t.elapsed_seconds() / static_cast<double>(iters));
  }
  return best;
}

nn::Tensor random_masks(std::size_t batch, const core::LithoGanConfig& cfg,
                        util::Rng& rng) {
  nn::Tensor t({batch, cfg.mask_channels, cfg.image_size, cfg.image_size});
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Synthetic contact-clip samples (square target + offset resist), enough
/// structure to drive the full predict_batch pipeline end to end.
std::vector<data::Sample> synthetic_samples(std::size_t count,
                                            const core::LithoGanConfig& cfg,
                                            util::Rng& rng) {
  const std::size_t size = cfg.image_size;
  const auto s2 = static_cast<double>(size) / 2.0;
  std::vector<data::Sample> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data::Sample s;
    s.clip_id = "bench-" + std::to_string(i);
    s.resist_pixel_nm = 128.0 / static_cast<double>(size);
    const double half = static_cast<double>(size) / 8.0 + rng.uniform(-1.0, 1.0);
    s.mask_rgb = image::Image(3, size, size);
    image::fill_rect(s.mask_rgb, 1,
                     {{s2 - half, s2 - half}, {s2 + half, s2 + half}}, 1.0f);
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Steady-state allocation delta: 10 warm infers at a warmed batch size.
std::size_t steady_state_allocs(nn::InferencePlan& plan, const nn::Tensor& masks) {
  (void)plan.infer(masks);
  const std::size_t warm = plan.arena_stats().allocations;
  for (int i = 0; i < 10; ++i) (void)plan.infer(masks);
  return plan.arena_stats().allocations - warm;
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  std::printf("inference-engine latency — module forward vs InferencePlan\n");
  std::printf("(untrained weights: identical arithmetic cost, no train time)\n\n");

  // Lite scale (64x64, base 16) — the resolution the reproduction actually
  // serves at; LITHOGAN_BENCH_INFER_CONFIG=tiny drops to unit-test scale.
  core::LithoGanConfig cfg = core::LithoGanConfig::lite();
  if (const char* env = std::getenv("LITHOGAN_BENCH_INFER_CONFIG")) {
    if (std::string(env) == "tiny") cfg = core::LithoGanConfig::tiny();
  }
  core::LithoGan model(cfg, core::Mode::kDualLearning);
  util::Rng rng(424242);

  const std::string shape = std::to_string(cfg.mask_channels) + "x" +
                            std::to_string(cfg.image_size) + "x" +
                            std::to_string(cfg.image_size);
  std::vector<bench::BenchRecord> records;

  // (a) Baseline: the pre-plan serving path — one eval-mode module forward
  // per clip through the training data structures.
  auto& gen = static_cast<nn::Sequential&>(model.cgan().generator());
  gen.set_training(false);
  const nn::Tensor mask1 = random_masks(1, cfg, rng);
  (void)gen.forward(mask1);  // warm allocator / code paths
  const double module_s = best_of(7, 20, [&] { (void)gen.forward(mask1); });
  records.push_back({"generator_forward_module", shape, 1, module_s * 1e9, 0.0});

  // (b) Compiled plan over the same generator, batch sweep. Per-clip time
  // divides the batch out.
  const std::vector<std::size_t> batches{1, 4, 16};
  std::vector<nn::Tensor> mask_sets;
  for (const std::size_t b : batches) mask_sets.push_back(random_masks(b, cfg, rng));
  const std::vector<std::size_t> sample_shape{cfg.mask_channels, cfg.image_size,
                                              cfg.image_size};

  std::printf("  %-26s %12s %12s %10s\n", "path", "us/clip", "clips/s", "vs module");
  std::printf("  %-26s %12.1f %12.0f %9s\n", "module forward (b1)", module_s * 1e6,
              1.0 / module_s, "1.00x");

  nn::InferencePlan plan;
  plan.compile(gen, sample_shape);
  double plan_b1_s = 0.0;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const std::size_t batch = batches[bi];
    const nn::Tensor& masks = mask_sets[bi];
    (void)plan.infer(masks);  // warm the arena at this batch size
    const double per_clip = best_of(7, 20, [&] { (void)plan.infer(masks); }) /
                            static_cast<double>(batch);
    if (batch == 1) plan_b1_s = per_clip;
    const std::string row = "infer_plan_b" + std::to_string(batch);
    records.push_back({row, shape, 1, per_clip * 1e9, 0.0});
    std::printf("  %-26s %12.1f %12.0f %9.2fx\n", row.c_str(), per_clip * 1e6,
                1.0 / per_clip, module_s / per_clip);
  }
  const std::size_t steady_allocs = steady_state_allocs(plan, mask_sets.back());

  // (c) End-to-end predict_batch: both plans + batching + recentering.
  const std::size_t n_clips = 16;
  const std::vector<data::Sample> samples = synthetic_samples(n_clips, cfg, rng);
  const std::span<const data::Sample> span(samples);
  (void)model.predict_batch(span);  // compiles plans + warms arenas
  const double e2e_per_clip =
      best_of(5, 4, [&] { (void)model.predict_batch(span); }) /
      static_cast<double>(n_clips);
  records.push_back({"predict_batch_b16", shape, 1, e2e_per_clip * 1e9, 0.0});
  std::printf("  %-26s %12.1f %12.0f %9s\n", "predict_batch (b16, e2e)",
              e2e_per_clip * 1e6, 1.0 / e2e_per_clip, "-");

  const double speedup = module_s / std::max(plan_b1_s, 1e-12);
  std::printf("\nchecks:\n");
  std::printf("  plan >= 2x module forward (b1): %s (%.2fx)\n",
              speedup >= 2.0 ? "OK" : "MISS", speedup);
  std::printf("  zero steady-state allocations:  %s (%zu events)\n",
              steady_allocs == 0 ? "OK" : "FAIL", steady_allocs);

  const char* json_path = std::getenv("LITHOGAN_BENCH_JSON");
  bench::write_bench_json(json_path != nullptr ? json_path : "BENCH_infer.json",
                          records);

  if (steady_allocs != 0) {
    std::printf("\nFAIL: steady-state infer() allocated\n");
    return 1;
  }
  return 0;
}
