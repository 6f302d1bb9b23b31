// Throughput/latency bench for the dynamic micro-batching serving layer.
//
// Drives serve::Server with open-loop Poisson traffic (seeded Rng, so the
// arrival process is reproducible) at several offered-QPS points and
// reports the classic serving curve: achieved throughput and p50/p95/p99
// latency per point, plus the achieved batch-size mix. Against it, the
// batch-1 serial baseline — a predict_batch(1) loop — pins what the same
// model does with no batching at all.
//
// Gates (all affect the exit code):
//   * at saturation (the highest offered load), dynamically-batched
//     throughput must be >= the batch-1 serial throughput — batching must
//     convert queueing into throughput, not just add latency;
//   * the scheduler dispatch loop must be allocation-free in steady state,
//     measured with the counting operator new of alloc_count.hpp over a
//     warm saturated burst (submission, dispatch, inference, writeback —
//     everything except the waiter-side Response copy, which is deferred
//     out of the window).
//     The burst runs with telemetry ARMED — tracing on, exporter running —
//     so per-request spans and flow correlation are proven alloc-free, not
//     just the bare dispatch path;
//   * telemetry overhead: the saturated point re-runs with the same
//     arrival seed with tracing + the windowed exporter armed, and armed
//     throughput must stay within 1% of the telemetry-disabled run
//     (best-of-two armed attempts, so one scheduler hiccup on a loaded CI
//     host does not fail the build). The disabled run is the number
//     recorded in the curve, so cross-PR comparisons via bench_compare
//     track the untelemetered baseline.
//
// Output: BENCH_serve.json (override with LITHOGAN_BENCH_JSON): standard
// records plus a "serve" block with the per-point curve, batch histogram
// and gate verdicts. LITHOGAN_BENCH_SERVE_CONFIG=tiny drops to unit-test
// scale; LITHOGAN_BENCH_SERVE_DURATION=<seconds> sets the per-point
// duration (default 1.5).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "bench_json.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/sample.hpp"
#include "image/ops.hpp"
#include "obs/exporter.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/traffic.hpp"

using namespace lithogan;

namespace {

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

using util::percentile;

struct PointResult {
  double qps_offered = 0.0;
  double qps_achieved = 0.0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double mean_batch = 0.0;
};

/// One open-loop Poisson point: a producer thread draws exponential
/// inter-arrivals at `qps` and try_submits round-robin clips for
/// `duration_s`; a waiter thread claims every accepted ticket and records
/// its served latency and batch size.
PointResult run_point(serve::Server& server, const std::vector<data::Sample>& samples,
                      double qps, double duration_s, unsigned seed,
                      std::vector<std::uint64_t>& batch_hist) {
  PointResult out;
  out.qps_offered = qps;
  const serve::Stats before = server.stats();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<serve::Ticket> inflight;
  bool producing = true;

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(qps * duration_s * 2.0) + 16);
  double batch_sum = 0.0;

  std::thread waiter([&] {
    for (;;) {
      serve::Ticket ticket;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || !producing; });
        if (inflight.empty()) return;
        ticket = inflight.front();
        inflight.pop_front();
      }
      const serve::Response r = server.wait(ticket);
      latencies.push_back(r.latency_us);
      batch_sum += static_cast<double>(r.batch);
      const std::size_t bucket = std::min<std::size_t>(r.batch, batch_hist.size() - 1);
      ++batch_hist[bucket];
    }
  });

  util::Rng rng(seed);
  util::Timer clock;
  const auto t0 = std::chrono::steady_clock::now();
  double next_arrival_s = 0.0;
  std::size_t clip = 0;
  while (clock.elapsed_seconds() < duration_s) {
    // Exponential inter-arrival: the open-loop Poisson process keeps
    // offering load regardless of how far behind the server is.
    next_arrival_s += util::poisson_gap_s(rng, qps);
    const auto deadline = t0 + std::chrono::duration<double>(next_arrival_s);
    std::this_thread::sleep_until(deadline);
    if (const auto ticket = server.try_submit(samples[clip])) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        inflight.push_back(*ticket);
      }
      cv.notify_one();
    }
    clip = (clip + 1) % samples.size();
  }
  const double elapsed_s = clock.elapsed_seconds();
  {
    const std::lock_guard<std::mutex> lock(mu);
    producing = false;
  }
  cv.notify_all();
  waiter.join();

  const serve::Stats after = server.stats();
  out.completed = latencies.size();
  out.rejected = after.rejected - before.rejected;
  out.qps_achieved = static_cast<double>(out.completed) / elapsed_s;
  out.p50_us = percentile(latencies, 0.50);
  out.p95_us = percentile(latencies, 0.95);
  out.p99_us = percentile(latencies, 0.99);
  out.mean_batch = latencies.empty()
                       ? 0.0
                       : batch_sum / static_cast<double>(latencies.size());
  return out;
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  std::printf("serving layer — dynamic micro-batching over the InferencePlan\n\n");

  core::LithoGanConfig cfg = core::LithoGanConfig::lite();
  if (const char* env = std::getenv("LITHOGAN_BENCH_SERVE_CONFIG")) {
    if (std::string(env) == "tiny") cfg = core::LithoGanConfig::tiny();
  }
  double duration_s = 1.5;
  if (const char* env = std::getenv("LITHOGAN_BENCH_SERVE_DURATION")) {
    duration_s = std::max(0.1, std::atof(env));
  }

  core::LithoGan model(cfg, core::Mode::kDualLearning);
  util::Rng rng(20260808);
  const std::vector<data::Sample> samples = synthetic_samples(32, cfg, rng);
  const std::string shape = std::to_string(cfg.mask_channels) + "x" +
                            std::to_string(cfg.image_size) + "x" +
                            std::to_string(cfg.image_size);
  std::vector<bench::BenchRecord> records;
  const std::string dtype = model.serving_precision();

  // (a) Batch-1 serial baseline: the throughput ceiling with no batching.
  const std::span<const data::Sample> one(&samples[0], 1);
  (void)model.predict_batch(one);  // compile plans, warm arenas
  util::Timer serial_timer;
  std::size_t serial_iters = 0;
  while (serial_timer.elapsed_seconds() < std::min(duration_s, 1.0)) {
    (void)model.predict_batch(one);
    ++serial_iters;
  }
  const double serial_s = serial_timer.elapsed_seconds() /
                          static_cast<double>(std::max<std::size_t>(serial_iters, 1));
  const double serial_qps = 1.0 / serial_s;
  records.push_back({"serve_serial_b1", shape, 1, serial_s * 1e9, 0.0, dtype});
  std::printf("  serial batch-1 baseline: %.1f us/clip, %.0f clips/s\n\n",
              serial_s * 1e6, serial_qps);

  serve::Config sc;
  sc.max_batch = 16;
  sc.max_wait_us = 2000;
  sc.queue_capacity = 256;
  serve::Server server(model, sc);

  // (b) Zero-allocation gate on the dispatch loop, with telemetry ARMED:
  // tracing records every submit/dispatch/complete/infer span (flow
  // correlation included) and a windowed exporter thread is live. The
  // exporter's interval is long enough that it sleeps through the counted
  // window — its periodic snapshot legitimately allocates, but on its own
  // schedule, not per request. Warm every pool slot the burst will touch
  // (LIFO free list: a burst of N cycles the same N slots) with tracing
  // already on, so thread rings are laid out and every metric/static is
  // registered before counting starts; then count every global allocation
  // across a submit -> serve -> quiesce window with waits deferred until
  // after the window closes.
  obs::Registry::global().counter("trace.spans_dropped");  // pre-register
  obs::set_trace_enabled(true);
  obs::Exporter armed_exporter({/*path=*/"", /*interval_ms=*/10000.0, nullptr});
  armed_exporter.start();
  const std::size_t burst = sc.max_batch * 2;
  std::vector<serve::Ticket> burst_tickets;
  burst_tickets.reserve(burst);
  const auto run_burst = [&](bool deferred_claim) {
    burst_tickets.clear();
    for (std::size_t i = 0; i < burst; ++i) {
      burst_tickets.push_back(server.submit(samples[i % samples.size()]));
    }
    if (!deferred_claim) {
      for (const auto& t : burst_tickets) (void)server.wait(t);
    }
  };
  const auto quiesce = [&](std::uint64_t target_completed) {
    while (server.stats().completed < target_completed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  run_burst(false);  // warm: slot images, scratch, arena, static metrics
  run_burst(false);
  const std::uint64_t completed_before = server.stats().completed;
  bench::start_alloc_count();
  run_burst(true);  // claims deferred: the window sees no Response copies
  quiesce(completed_before + burst);
  const std::size_t dispatch_allocs = bench::stop_alloc_count();
  for (const auto& t : burst_tickets) (void)server.wait(t);
  armed_exporter.stop();
  obs::set_trace_enabled(false);
  std::printf("  dispatch-loop allocations over a warm %zu-request burst "
              "(telemetry armed): %zu\n\n",
              burst, dispatch_allocs);

  // (c) The offered-QPS sweep: fractions of the serial ceiling up to clear
  // saturation. Achieved batch size should grow with offered load.
  const std::vector<double> load_factors{0.5, 1.0, 2.0, 4.0};
  std::vector<PointResult> points;
  std::vector<std::uint64_t> batch_hist(sc.max_batch + 1, 0);
  std::printf("  %-12s %12s %10s %10s %10s %10s %9s\n", "offered_qps",
              "achieved_qps", "p50_us", "p95_us", "p99_us", "rejected", "avg_b");
  for (std::size_t i = 0; i < load_factors.size(); ++i) {
    const double qps = std::max(1.0, serial_qps * load_factors[i]);
    const PointResult p = run_point(server, samples, qps, duration_s,
                                    777u + static_cast<unsigned>(i), batch_hist);
    std::printf("  %-12.0f %12.0f %10.0f %10.0f %10.0f %10llu %9.2f\n",
                p.qps_offered, p.qps_achieved, p.p50_us, p.p95_us, p.p99_us,
                static_cast<unsigned long long>(p.rejected), p.mean_batch);
    records.push_back({"serve_p99_load" + std::to_string(i), shape, 1,
                       p.p99_us * 1e3, 0.0, dtype});
    points.push_back(p);
  }

  // (d) Telemetry-overhead gate: re-run the saturated point with the same
  // arrival seed, tracing + exporter armed, and compare achieved
  // throughput against the telemetry-disabled run above. Best-of-two
  // armed attempts: the comparison is same-process/same-warmth, so the
  // only honest source of a >1% gap besides real overhead is a scheduler
  // hiccup, and one retry removes that without hiding a true regression.
  const PointResult& saturated = points.back();
  const unsigned saturated_seed =
      777u + static_cast<unsigned>(load_factors.size() - 1);
  std::vector<std::uint64_t> armed_hist(sc.max_batch + 1, 0);
  double armed_qps = 0.0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    obs::set_trace_enabled(true);
    obs::Exporter armed_point_exporter({/*path=*/"", /*interval_ms=*/500.0, nullptr});
    armed_point_exporter.start();
    const PointResult armed = run_point(server, samples, saturated.qps_offered,
                                        duration_s, saturated_seed, armed_hist);
    armed_point_exporter.stop();
    obs::set_trace_enabled(false);
    armed_qps = std::max(armed_qps, armed.qps_achieved);
    if (armed_qps >= 0.99 * saturated.qps_achieved) break;
  }
  server.shutdown();
  const double telemetry_overhead =
      saturated.qps_achieved > 0.0 ? 1.0 - armed_qps / saturated.qps_achieved : 0.0;
  const bool telemetry_ok = armed_qps >= 0.99 * saturated.qps_achieved;

  const bool throughput_ok = saturated.qps_achieved >= serial_qps;
  const bool alloc_ok = dispatch_allocs == 0;
  std::printf("\nchecks:\n");
  std::printf("  batched >= serial throughput at saturation: %s (%.0f vs %.0f clips/s)\n",
              throughput_ok ? "OK" : "FAIL", saturated.qps_achieved, serial_qps);
  std::printf("  zero dispatch-loop allocations (telemetry armed): %s\n",
              alloc_ok ? "OK" : "FAIL");
  std::printf("  telemetry overhead at saturation <= 1%%:    %s (%.0f armed vs %.0f "
              "disabled clips/s, %+.2f%%)\n",
              telemetry_ok ? "OK" : "FAIL", armed_qps, saturated.qps_achieved,
              telemetry_overhead * 100.0);

  // The "serve" block: the machine-readable curve + gate verdicts.
  std::string serve_json = "{\n    \"batch\": " + std::to_string(sc.max_batch) +
                           ", \"wait_us\": " + std::to_string(sc.max_wait_us) +
                           ", \"queue_capacity\": " + std::to_string(sc.queue_capacity) +
                           ", \"dtype\": \"" + dtype + "\"" +
                           ",\n    \"serial_qps\": " + std::to_string(serial_qps) +
                           ",\n    \"points\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n      {\"qps_offered\": %.1f, \"qps_achieved\": %.1f, "
                  "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
                  "\"completed\": %llu, \"rejected\": %llu, \"mean_batch\": %.2f}",
                  i == 0 ? "" : ",", p.qps_offered, p.qps_achieved, p.p50_us,
                  p.p95_us, p.p99_us, static_cast<unsigned long long>(p.completed),
                  static_cast<unsigned long long>(p.rejected), p.mean_batch);
    serve_json += buf;
  }
  serve_json += "\n    ],\n    \"batch_hist\": [";
  for (std::size_t b = 0; b < batch_hist.size(); ++b) {
    serve_json += (b == 0 ? "" : ", ") + std::to_string(batch_hist[b]);
  }
  serve_json += "],\n    \"gates\": {\"throughput_vs_serial\": ";
  serve_json += throughput_ok ? "true" : "false";
  serve_json += ", \"dispatch_allocs\": " + std::to_string(dispatch_allocs);
  serve_json += ", \"telemetry_ok\": ";
  serve_json += telemetry_ok ? "true" : "false";
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", \"telemetry_overhead\": %.4f",
                  telemetry_overhead);
    serve_json += buf;
  }
  serve_json += ", \"pass\": ";
  serve_json += (throughput_ok && alloc_ok && telemetry_ok) ? "true" : "false";
  serve_json += "}\n  }";

  const char* json_path = std::getenv("LITHOGAN_BENCH_JSON");
  bench::write_bench_json(json_path != nullptr ? json_path : "BENCH_serve.json",
                          records, "serve", serve_json);

  if (!alloc_ok) {
    std::printf("\nFAIL: scheduler dispatch loop allocated in steady state\n");
    return 1;
  }
  if (!throughput_ok) {
    std::printf("\nFAIL: batched throughput below serial baseline at saturation\n");
    return 1;
  }
  if (!telemetry_ok) {
    std::printf("\nFAIL: armed telemetry cost more than 1%% of saturated throughput\n");
    return 1;
  }
  return 0;
}
