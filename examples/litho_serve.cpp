// Online serving demo: LithoGAN behind the dynamic micro-batching server.
//
// Spins up a serve::Server over an untrained (or tiny-trained) model and
// drives it with open-loop Poisson traffic (serve::run_open_loop) — the
// arrival process a real screening service sees when design tools submit
// clips independently. Requests that find a full queue are rejected up
// front (backpressure) rather than queued into unbounded latency. At the
// end the demo prints the served-latency percentiles, the achieved
// batch-size mix — the whole point of micro-batching — and the rejection
// count.
//
//   ./litho_serve --qps 200 --duration-s 3 --batch 16 --wait-us 2000
//
// Use --trace/--metrics/--export (see util::add_obs_flags) to capture a
// Chrome trace of per-request flows and windowed metrics alongside the
// run. --slo-p99-us and --slo-reject-pct arm the SLO watchdog: breaches
// print as they happen and a budget report closes the run (see
// docs/observability.md, "Continuous export / SLO").
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/sample.hpp"
#include "image/ops.hpp"
#include "math/gemm.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serve/open_loop.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"
#include "util/obs_cli.hpp"
#include "util/rng.hpp"
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
    s.clip_id = "serve-" + std::to_string(i);
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

int main(int argc, char** argv) {
  util::CliParser cli("Serve LithoGAN predictions under Poisson load.");
  util::add_traffic_flags(cli);
  cli.add_flag("config", "tiny", "model scale: tiny|lite")
      .add_flag("slo-p99-us", "0",
                "p99 latency budget in us for the SLO watchdog (0 = off)")
      .add_flag("slo-reject-pct", "-1",
                "rejection-rate budget in percent (negative = off)");
  util::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  const util::ObsOptions obs_opts = util::begin_observability(cli);
  util::set_log_level(util::LogLevel::kWarn);
  const util::TrafficOptions traffic = util::read_traffic_flags(cli);

  core::LithoGanConfig cfg = cli.get("config") == "lite"
                                 ? core::LithoGanConfig::lite()
                                 : core::LithoGanConfig::tiny();
  util::ExecContext exec(traffic.threads);
  cfg.exec = &exec;
  core::LithoGan model(cfg, core::Mode::kDualLearning);

  serve::Config sc;
  sc.max_batch = traffic.batch;
  sc.max_wait_us = traffic.wait_us;
  sc.queue_capacity = traffic.queue_cap;
  serve::Server server(model, sc);
  std::printf("serving %s model (%s weights): B=%zu, T=%zu us, queue=%zu\n",
              cli.get("config").c_str(),
              model.serving_precision(), sc.max_batch,
              sc.max_wait_us, sc.queue_capacity);

  // SLO watchdog: fed by the windowed exporter (--export if given, else a
  // private callback-only exporter ticking every 200 ms). Breach
  // transitions print immediately; the final budget report prints at exit.
  obs::SloConfig slo_cfg;
  slo_cfg.p99_budget_us = cli.get_double("slo-p99-us");
  slo_cfg.rejection_budget = cli.get_double("slo-reject-pct") / 100.0;
  if (cli.get_double("slo-reject-pct") < 0.0) slo_cfg.rejection_budget = -1.0;
  const bool slo_armed = slo_cfg.p99_budget_us > 0.0 || slo_cfg.rejection_budget >= 0.0;
  std::unique_ptr<obs::SloMonitor> slo;
  std::shared_ptr<obs::Exporter> slo_exporter;  // only when --export absent
  if (slo_armed) {
    slo = std::make_unique<obs::SloMonitor>(slo_cfg);
    slo->set_breach_callback([](const obs::SloState& s) {
      std::printf("[slo] %s: p99 %.0f us, rejection %.2f%% over %llu requests\n",
                  s.breached() ? "BREACH" : "recovered", s.p99_us,
                  s.rejection_rate * 100.0,
                  static_cast<unsigned long long>(s.requests));
    });
    const auto feed = [&slo](const obs::Window& w) { slo->observe_window(w); };
    if (obs_opts.exporter) {
      obs_opts.exporter->set_window_callback(feed);
    } else {
      obs::Exporter::Options opts;
      opts.interval_ms = 200.0;
      opts.on_window = feed;
      slo_exporter = std::make_shared<obs::Exporter>(std::move(opts));
      slo_exporter->start();
    }
  }

  util::Rng rng(traffic.seed);
  const auto samples = synthetic_samples(64, cfg, rng);
  std::printf("offering %.0f qps for %.1f s...\n", traffic.qps, traffic.duration_s);
  const serve::OpenLoopResult run =
      serve::run_open_loop(server, samples, traffic.qps, traffic.duration_s, rng);
  const serve::Stats stats = server.stats();
  server.shutdown();

  std::printf("\nserved %llu requests in %.2f s (%.0f clips/s achieved)\n",
              static_cast<unsigned long long>(run.completed), run.elapsed_s,
              run.throughput());
  std::printf("latency: p50 %.0f us, p95 %.0f us, p99 %.0f us\n", run.p50_us,
              run.p95_us, run.p99_us);
  std::printf("rejected: %llu (queue full), peak queue depth: %zu\n",
              static_cast<unsigned long long>(run.rejected), stats.peak_queue_depth);
  std::printf("batch-size mix:");
  for (std::size_t b = 1; b < run.batch_hist.size(); ++b) {
    if (run.batch_hist[b] != 0) {
      std::printf(" %zu:%llu", b, static_cast<unsigned long long>(run.batch_hist[b]));
    }
  }
  std::printf("\n");

  if (slo) {
    if (slo_exporter) slo_exporter->stop();  // drains the final window
    // When riding --export, the shared exporter drains inside
    // finish_observability below; report on what the monitor has seen.
    const obs::SloState s = slo->state();
    std::printf("slo: %s (p99 %.0f us vs budget %.0f us, rejection %.2f%%, "
                "%llu/%llu windows in breach)\n",
                s.breached() ? "IN BREACH" : "met", s.p99_us,
                slo_cfg.p99_budget_us, s.rejection_rate * 100.0,
                static_cast<unsigned long long>(s.breach_windows),
                static_cast<unsigned long long>(s.windows_observed));
  }

  util::finish_observability(obs_opts, math::simd_level());
  return 0;
}
