// Runtime gates on the chip and serve paths: invariants that only a whole
// warm run can show, counted with the global operator new of
// alloc_count.hpp and the plan-cache counters.
//
// Chip (1600-nm chip, 1024-nm tiles, one-ring source, tiny model):
//   * the second learned run performs zero heap allocations — warm
//     buffers, pooled polygons and the shared PredictScratch absorb the
//     whole chip;
//   * neither second run (golden, learned) misses an FFT or conv plan:
//     every plan is built while the first run warms up;
//   * every contact is returned exactly once on both paths, and the tile
//     ring holds min(ring_depth, tiles) slots — streaming never
//     materializes the chip.
// Serve (tiny() model, B 16, T 2000 us, 0.4 s open-loop points):
//   * a warm 32-request burst with telemetry armed (tracing on, exporter
//     running) allocates nothing from submit to completion;
//   * offered 4x the batch-1 serial rate, batched throughput reaches at
//     least the serial rate;
//   * the same point replayed with telemetry armed keeps >= 99% of the
//     disarmed throughput (best of two armed attempts, so one scheduler
//     hiccup on a loaded host does not fail the build).
// This is the only binary that links the counting allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/sample.hpp"
#include "image/ops.hpp"
#include "litho/simulator.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/open_loop.hpp"
#include "serve/server.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace lithogan;

namespace {

std::uint64_t plan_misses() {
  obs::Registry& reg = obs::Registry::global();
  return reg.counter_value("fft.plan_cache.miss") +
         reg.counter_value("conv.plan_cache.miss");
}

std::vector<data::Sample> synthetic_samples(std::size_t count,
                                            const core::LithoGanConfig& cfg,
                                            util::Rng& rng) {
  const std::size_t size = cfg.image_size;
  const auto s2 = static_cast<double>(size) / 2.0;
  std::vector<data::Sample> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    data::Sample s;
    s.clip_id = "gate-" + std::to_string(i);
    s.resist_pixel_nm = 128.0 / static_cast<double>(size);
    const double half = static_cast<double>(size) / 8.0 + rng.uniform(-1.0, 1.0);
    s.mask_rgb = image::Image(3, size, size);
    image::fill_rect(s.mask_rgb, 1,
                     {{s2 - half, s2 - half}, {s2 + half, s2 + half}}, 1.0f);
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace

TEST(RuntimeGates, ChipStreamsWarmWithoutAllocatingOrPlanning) {
  util::set_log_level(util::LogLevel::kWarn);  // quiet the dose calibration
  litho::ProcessConfig process = litho::ProcessConfig::n10();
  process.optical.source_rings = 1;
  process.optical.source_points_per_ring = 8;
  chip::ChipConfig chip_cfg;
  chip_cfg.tile_extent_nm = 1024.0;
  chip_cfg.tile_pixels = 256;
  chip_cfg.halo_lobes = 1.0;
  chip_cfg.chip_nm = 1600.0;
  core::LithoGanConfig model_cfg = core::LithoGanConfig::tiny();
  model_cfg.image_size = 16;
  model_cfg.base_channels = 6;
  model_cfg.max_channels = 24;

  litho::Simulator calib(process);
  calib.calibrate_dose();
  const chip::ChipLayout layout(calib.process(), chip_cfg);
  ASSERT_FALSE(layout.contacts().empty());
  util::ExecContext exec(0);
  chip::ChipPipeline pipe(calib.process(), layout, &exec);
  core::LithoGan model(model_cfg, core::Mode::kDualLearning);

  // Per-contact return counts, sized up front: the sinks only increment,
  // so the counted run sees no allocation of the test's own.
  const std::size_t contacts = layout.contacts().size();
  std::vector<unsigned> golden_seen(contacts, 0);
  std::vector<unsigned> learned_seen(contacts, 0);
  const chip::ChipPipeline::Sink golden_sink =
      [&golden_seen](std::size_t, std::span<const chip::ContactResult> r) {
        for (const chip::ContactResult& x : r) ++golden_seen[x.contact];
      };
  const chip::ChipPipeline::Sink learned_sink =
      [&learned_seen](std::size_t, std::span<const chip::ContactResult> r) {
        for (const chip::ContactResult& x : r) ++learned_seen[x.contact];
      };

  pipe.run_golden(golden_sink);  // warm: per-worker simulators, FFT plans
  const std::uint64_t golden_warm_misses = plan_misses();
  std::fill(golden_seen.begin(), golden_seen.end(), 0u);
  pipe.run_golden(golden_sink);
  EXPECT_EQ(plan_misses(), golden_warm_misses) << "second golden run built a plan";

  pipe.run_learned(model, learned_sink);  // warm: inference plans, pooled buffers
  const std::uint64_t learned_warm_misses = plan_misses();
  std::fill(learned_seen.begin(), learned_seen.end(), 0u);
  test::start_alloc_count();
  pipe.run_learned(model, learned_sink);
  const std::size_t learned_allocs = test::stop_alloc_count();
  EXPECT_EQ(learned_allocs, 0u) << "warm learned chip run allocated";
  EXPECT_EQ(plan_misses(), learned_warm_misses) << "second learned run built a plan";

  const auto once = [](const std::vector<unsigned>& seen) {
    return static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 1u));
  };
  EXPECT_EQ(once(golden_seen), contacts) << "golden path lost or repeated a contact";
  EXPECT_EQ(once(learned_seen), contacts) << "learned path lost or repeated a contact";
  EXPECT_EQ(pipe.stats().ring_slots, std::min(chip_cfg.ring_depth, pipe.tiles()));
}

TEST(RuntimeGates, ServeBatchesWithoutAllocatingAndTelemetryIsCheap) {
  constexpr double kPointS = 0.4;
  constexpr std::uint64_t kSaturatedSeed = 780;
  const core::LithoGanConfig cfg = core::LithoGanConfig::tiny();
  core::LithoGan model(cfg, core::Mode::kDualLearning);
  util::Rng sample_rng(20260808);
  const std::vector<data::Sample> samples = synthetic_samples(32, cfg, sample_rng);

  // Batch-1 serial baseline: what the same model does with no batching.
  const std::span<const data::Sample> one(&samples[0], 1);
  (void)model.predict_batch(one);  // compile plans, warm arenas
  util::Timer serial_timer;
  std::size_t serial_iters = 0;
  while (serial_timer.elapsed_seconds() < kPointS) {
    (void)model.predict_batch(one);
    ++serial_iters;
  }
  const double serial_qps =
      static_cast<double>(serial_iters) / serial_timer.elapsed_seconds();

  serve::Config sc;
  sc.max_batch = 16;
  sc.max_wait_us = 2000;
  sc.queue_capacity = 256;
  serve::Server server(model, sc);

  // Zero-allocation burst with telemetry armed: tracing records every
  // submit/dispatch/complete span and an exporter thread is live, its
  // interval long enough to sleep through the counted window. Two warm
  // bursts cycle every slot the counted one touches (the free list is
  // LIFO) and register every metric; the counted burst defers its claims
  // so no Response copy lands in the window.
  obs::Registry::global().counter("trace.spans_dropped");
  obs::set_trace_enabled(true);
  obs::Exporter burst_exporter({/*path=*/"", /*interval_ms=*/10000.0, nullptr});
  burst_exporter.start();
  const std::size_t burst = sc.max_batch * 2;
  std::vector<serve::Ticket> tickets;
  tickets.reserve(burst);
  const auto submit_burst = [&] {
    tickets.clear();
    for (std::size_t i = 0; i < burst; ++i) {
      tickets.push_back(server.submit(samples[i % samples.size()]));
    }
  };
  for (int warm = 0; warm < 2; ++warm) {
    submit_burst();
    for (const serve::Ticket& t : tickets) (void)server.wait(t);
  }
  const std::uint64_t completed_before = server.stats().completed;
  test::start_alloc_count();
  submit_burst();
  while (server.stats().completed < completed_before + burst) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::size_t burst_allocs = test::stop_alloc_count();
  for (const serve::Ticket& t : tickets) (void)server.wait(t);
  burst_exporter.stop();
  obs::set_trace_enabled(false);
  EXPECT_EQ(burst_allocs, 0u) << "warm armed dispatch loop allocated";

  // Saturation: offered 4x the serial rate, batching must turn the queue
  // into throughput.
  const double qps = std::max(1.0, 4.0 * serial_qps);
  util::Rng disarmed_rng(kSaturatedSeed);
  const serve::OpenLoopResult disarmed =
      serve::run_open_loop(server, samples, qps, kPointS, disarmed_rng);
  EXPECT_GE(disarmed.throughput(), serial_qps)
      << "batched throughput below the batch-1 serial rate";

  // Telemetry overhead: replay the same arrivals with tracing and a
  // windowed exporter armed.
  double armed_qps = 0.0;
  for (int attempt = 0; attempt < 2 && armed_qps < 0.99 * disarmed.throughput();
       ++attempt) {
    obs::set_trace_enabled(true);
    obs::Exporter exporter({/*path=*/"", /*interval_ms=*/500.0, nullptr});
    exporter.start();
    util::Rng armed_rng(kSaturatedSeed);
    armed_qps = std::max(
        armed_qps,
        serve::run_open_loop(server, samples, qps, kPointS, armed_rng).throughput());
    exporter.stop();
    obs::set_trace_enabled(false);
  }
  EXPECT_GE(armed_qps, 0.99 * disarmed.throughput())
      << "armed telemetry cost more than 1% of saturated throughput";
  std::printf("serial %.0f clips/s; offered %.0f: disarmed %.0f, armed %.0f clips/s, "
              "%llu rejected\n",
              serial_qps, qps, disarmed.throughput(), armed_qps,
              static_cast<unsigned long long>(disarmed.rejected));
}
