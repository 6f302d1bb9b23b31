// Full-chip streaming demo: halo-tiled simulation over a generated chip.
//
// Generates a chip-scale contact layout, tiles it with an optics-derived
// halo and streams it through chip::ChipPipeline — the golden simulator,
// the learned model, or both (default) — printing the tiling geometry,
// contacts/second per path and, with both, how far the two paths diverge
// (printed-state agreement, and mean |CD delta| over the contacts both
// print). This is the production shape of the per-clip model: thousands
// of contacts at sustained throughput with bounded memory.
//
//   ./litho_chip --chip-nm 4096 --threads 4
//
// --mode serve turns the chip into a stress source for the serving layer:
// every owned contact's clip is rendered once, then submitted to
// serve::Server under open-loop Poisson arrivals (--qps/--duration-s)
// through serve::run_open_loop, the same client as litho_serve.
//
// Use --trace/--metrics/--export (see util::add_obs_flags) to capture the
// chip.tile/chip.sim/chip.infer/chip.stitch spans and the chip.* counters
// alongside the run; --fast drops to a reduced source for quick smokes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/render.hpp"
#include "data/sample.hpp"
#include "litho/simulator.hpp"
#include "math/gemm.hpp"
#include "serve/open_loop.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"
#include "util/obs_cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/traffic.hpp"

using namespace lithogan;

namespace {

/// Renders the clip-local mask for one owned contact — the same clip frame
/// the pipeline's learned path builds, used here to feed the server.
data::Sample render_contact_sample(const chip::ChipLayout& layout, std::uint32_t i,
                                   const litho::ProcessConfig& process,
                                   const data::RenderConfig& rc) {
  const geometry::Point center = layout.contacts()[i].drawn.center();
  const double extent = process.grid.extent_nm;
  const geometry::Point off{extent / 2.0 - center.x, extent / 2.0 - center.y};
  layout::MaskClip clip;
  clip.extent_nm = extent;
  clip.target = layout.contacts()[i].drawn.translated(off);
  clip.target_opc = layout.contacts()[i].opc.translated(off);
  std::vector<std::uint32_t> near;
  layout.query({{center.x - extent / 2.0, center.y - extent / 2.0},
                {center.x + extent / 2.0, center.y + extent / 2.0}},
               near);
  for (const std::uint32_t j : near) {
    if (j == i) continue;
    clip.neighbors.push_back(layout.contacts()[j].drawn.translated(off));
    clip.neighbors_opc.push_back(layout.contacts()[j].opc.translated(off));
  }
  data::Sample s;
  s.clip_id = "chip-" + std::to_string(i);
  s.resist_pixel_nm = rc.crop_window_nm / static_cast<double>(rc.resist_size_px);
  s.mask_rgb = data::render_mask(clip, rc);
  return s;
}

struct ContactSummary {
  bool printed = false;
  double cd_width_nm = 0.0;
};

struct PathReport {
  std::size_t contacts = 0;
  std::size_t printed = 0;
  double seconds = 0.0;
  std::vector<ContactSummary> per_contact;  ///< indexed by contact
};

/// Runs the golden path (model == nullptr) or the learned path once.
PathReport report_from(chip::ChipPipeline& pipe, std::size_t contacts,
                       core::LithoGan* model) {
  PathReport out;
  out.per_contact.resize(contacts);
  util::Timer timer;
  const auto sink = [&](std::size_t, std::span<const chip::ContactResult> r) {
    out.contacts += r.size();
    for (const chip::ContactResult& x : r) {
      out.printed += x.printed ? 1 : 0;
      out.per_contact[x.contact] = {x.printed, x.cd_width_nm};
    }
  };
  if (model != nullptr) {
    pipe.run_learned(*model, sink);
  } else {
    pipe.run_golden(sink);
  }
  out.seconds = timer.elapsed_seconds();
  return out;
}

/// ML-vs-golden divergence: printed-state agreement over every contact,
/// mean |CD delta| over the contacts both paths print. Reported, not
/// gated: the demo model is untrained.
void print_divergence(const PathReport& golden, const PathReport& learned) {
  std::size_t agree = 0;
  std::size_t both_printed = 0;
  double cd_delta_sum = 0.0;
  for (std::size_t i = 0; i < golden.per_contact.size(); ++i) {
    const ContactSummary& g = golden.per_contact[i];
    const ContactSummary& l = learned.per_contact[i];
    if (g.printed == l.printed) ++agree;
    if (g.printed && l.printed) {
      ++both_printed;
      cd_delta_sum += std::abs(g.cd_width_nm - l.cd_width_nm);
    }
  }
  const auto frac = [](double num, std::size_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  std::printf("divergence: printed agreement %.2f, mean |CD delta| %.2f nm "
              "(%zu contacts printed by both)\n",
              frac(static_cast<double>(agree), golden.per_contact.size()),
              frac(cd_delta_sum, both_printed), both_printed);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Stream a generated chip through the halo-tiled pipeline.");
  util::TrafficOptions traffic_defaults;
  traffic_defaults.seed = 7;
  util::add_traffic_flags(cli, traffic_defaults);
  cli.add_flag("chip-nm", "4096", "chip window edge length in nm")
      .add_flag("tile-nm", "2048", "tile grid edge in nm (core + 2x halo)")
      .add_flag("tile-px", "512", "tile grid resolution")
      .add_flag("halo-lobes", "4", "halo width in optical-ambit lobes")
      .add_flag("ring", "4", "in-flight tile ring depth")
      .add_flag("config", "tiny", "model scale: tiny|lite")
      .add_flag("mode", "both", "golden|learned|both|serve")
      .add_flag("fast", "false", "reduced source sampling for quick smokes");
  util::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  const util::ObsOptions obs_opts = util::begin_observability(cli);
  util::set_log_level(util::LogLevel::kWarn);
  const util::TrafficOptions traffic = util::read_traffic_flags(cli);
  const std::string mode = cli.get("mode");

  litho::ProcessConfig process = litho::ProcessConfig::n10();
  if (cli.get_bool("fast")) {
    process.optical.source_rings = 1;
    process.optical.source_points_per_ring = 8;
  }
  litho::Simulator calib(process);
  calib.calibrate_dose();
  const litho::ProcessConfig calibrated = calib.process();

  chip::ChipConfig chip_cfg;
  chip_cfg.chip_nm = std::max(512.0, cli.get_double("chip-nm"));
  chip_cfg.tile_extent_nm = cli.get_double("tile-nm");
  chip_cfg.tile_pixels = static_cast<std::size_t>(cli.get_int("tile-px"));
  chip_cfg.halo_lobes = cli.get_double("halo-lobes");
  chip_cfg.ring_depth = static_cast<std::size_t>(cli.get_int("ring"));
  chip_cfg.infer_batch = traffic.batch;
  chip_cfg.seed = traffic.seed;

  const chip::ChipLayout layout(calibrated, chip_cfg);
  util::ExecContext exec(traffic.threads);
  chip::ChipPipeline pipe(calibrated, layout, &exec);
  std::printf("chip %.0f nm: %zu contacts, %zux%zu tiles of %.0f nm "
              "(halo %.0f nm, core %.0f nm), ring %zu slots\n",
              chip_cfg.chip_nm, layout.contacts().size(), pipe.tiles_x(),
              pipe.tiles_y(), chip_cfg.tile_extent_nm, pipe.halo_nm(),
              pipe.core_nm(), pipe.stats().ring_slots);

  core::LithoGanConfig model_cfg = cli.get("config") == "lite"
                                       ? core::LithoGanConfig::lite()
                                       : core::LithoGanConfig::tiny();
  core::LithoGan model(model_cfg, core::Mode::kDualLearning);

  if (mode == "serve") {
    // Chip as serving stress source: render every owned clip once, then
    // offer them at Poisson arrivals — litho_serve's client loop with the
    // chip supplying realistic neighborhoods instead of synthetic squares.
    data::RenderConfig rc;
    rc.mask_size_px = model_cfg.image_size;
    rc.resist_size_px = model_cfg.image_size;
    rc.crop_window_nm = calibrated.crop_window_nm;
    const std::size_t pool = std::min<std::size_t>(layout.contacts().size(), 128);
    std::vector<data::Sample> samples;
    samples.reserve(pool);
    for (std::uint32_t i = 0; i < pool; ++i) {
      samples.push_back(render_contact_sample(layout, i, calibrated, rc));
    }
    serve::Config sc;
    sc.max_batch = traffic.batch;
    sc.max_wait_us = traffic.wait_us;
    sc.queue_capacity = traffic.queue_cap;
    serve::Server server(model, sc);
    std::printf("serving %zu chip clips at %.0f qps for %.1f s (B=%zu)...\n",
                samples.size(), traffic.qps, traffic.duration_s, sc.max_batch);

    util::Rng rng(traffic.seed);
    const serve::OpenLoopResult run =
        serve::run_open_loop(server, samples, traffic.qps, traffic.duration_s, rng);
    server.shutdown();
    std::printf("served %llu clips in %.2f s (%.0f clips/s), p50 %.0f us, "
                "p99 %.0f us, rejected %llu\n",
                static_cast<unsigned long long>(run.completed), run.elapsed_s,
                run.throughput(), run.p50_us, run.p99_us,
                static_cast<unsigned long long>(run.rejected));
    util::finish_observability(obs_opts, math::simd_level());
    return 0;
  }

  PathReport golden;
  PathReport learned;
  if (mode == "golden" || mode == "both") {
    golden = report_from(pipe, layout.contacts().size(), nullptr);
    std::printf("golden:  %7.0f contacts/s (%zu contacts, %zu printed, %.2f s, "
                "%zu threads)\n",
                static_cast<double>(golden.contacts) / std::max(golden.seconds, 1e-9),
                golden.contacts, golden.printed, golden.seconds, exec.threads());
  }
  if (mode == "learned" || mode == "both") {
    learned = report_from(pipe, layout.contacts().size(), &model);
    std::printf("learned: %7.0f contacts/s (%zu contacts, %zu printed, %.2f s, "
                "%s weights)\n",
                static_cast<double>(learned.contacts) /
                    std::max(learned.seconds, 1e-9),
                learned.contacts, learned.printed, learned.seconds,
                model.serving_precision());
  }
  if (mode == "both") print_divergence(golden, learned);
  std::printf("ring residency: %zu slots, %.1f KiB peak buffer capacity\n",
              pipe.stats().ring_slots,
              static_cast<double>(pipe.stats().ring_bytes) / 1024.0);

  util::finish_observability(obs_opts, math::simd_level());
  return 0;
}
