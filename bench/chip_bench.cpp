// Full-chip streaming throughput: golden simulation vs learned inference.
//
// Generates a chip-scale contact layout (LITHOGAN_BENCH_CHIP_NM, default
// 4096 nm), streams it through chip::ChipPipeline on both paths and reports
// contacts/second, tile-ring residency and the ML-vs-golden divergence
// (printed-state agreement and CD delta over contacts both paths print).
//
// Gates (all affect the exit code):
//   * amortized precompute: the second golden and second learned runs must
//     add ZERO fft/conv plan-cache misses — every plan is built while the
//     first tiles warm up, then reused for the rest of the chip and for
//     every later run;
//   * bounded steady state: the entire second learned run must perform zero
//     heap allocations, measured with the counting global operator new of
//     alloc_count.hpp — warm buffers, pooled polygons and the shared
//     PredictScratch absorb the whole chip;
//   * the tile ring must hold min(ring_depth, tiles) slots — streaming may
//     never materialize the chip.
//
// Output: BENCH_chip.json (override with LITHOGAN_BENCH_JSON): throughput
// records (contacts/s, dir:"higher") plus a "chip" block with the tiling
// geometry, per-path rates and gate verdicts. LITHOGAN_BENCH_CHIP_CONFIG=
// tiny drops to smoke scale (reduced source, 1024 nm tiles, tiny model).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench_json.hpp"
#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "litho/simulator.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

using namespace lithogan;

namespace {

std::size_t plan_misses() {
  obs::Registry& reg = obs::Registry::global();
  return static_cast<std::size_t>(reg.counter_value("fft.plan_cache.miss") +
                                  reg.counter_value("conv.plan_cache.miss"));
}

struct PathSummary {
  double seconds = 0.0;
  std::size_t contacts = 0;
  double contacts_per_s = 0.0;
};

struct ContactSummary {
  bool printed = false;
  double cd_width_nm = 0.0;
};

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  std::printf("full-chip streaming — halo-tiled golden vs learned paths\n\n");

  bool tiny = false;
  if (const char* env = std::getenv("LITHOGAN_BENCH_CHIP_CONFIG")) {
    tiny = std::string(env) == "tiny";
  }
  litho::ProcessConfig process = litho::ProcessConfig::n10();
  chip::ChipConfig chip_cfg;
  core::LithoGanConfig model_cfg = core::LithoGanConfig::lite();
  if (tiny) {
    process.optical.source_rings = 1;
    process.optical.source_points_per_ring = 8;
    chip_cfg.tile_extent_nm = 1024.0;
    chip_cfg.tile_pixels = 256;
    chip_cfg.halo_lobes = 1.0;
    chip_cfg.chip_nm = 1600.0;
    model_cfg = core::LithoGanConfig::tiny();
    model_cfg.image_size = 16;
    model_cfg.base_channels = 6;
    model_cfg.max_channels = 24;
  }
  if (const char* env = std::getenv("LITHOGAN_BENCH_CHIP_NM")) {
    chip_cfg.chip_nm = std::max(512.0, std::atof(env));
  }

  // Calibrate once at clip scale; every tile shares the dose.
  litho::Simulator calib(process);
  calib.calibrate_dose();
  const litho::ProcessConfig calibrated = calib.process();

  const chip::ChipLayout layout(calibrated, chip_cfg);
  util::ExecContext exec(0);
  chip::ChipPipeline pipe(calibrated, layout, &exec);
  const std::string shape = std::to_string(static_cast<int>(chip_cfg.chip_nm)) + "nm";
  std::printf("  chip %.0f nm, %zu contacts, %zux%zu tiles of %.0f nm "
              "(halo %.0f nm, core %.0f nm), ring %zu slots\n\n",
              chip_cfg.chip_nm, layout.contacts().size(), pipe.tiles_x(),
              pipe.tiles_y(), chip_cfg.tile_extent_nm, pipe.halo_nm(),
              pipe.core_nm(), pipe.stats().ring_slots);

  std::vector<bench::BenchRecord> records;

  // (a) Golden path: warm run builds per-worker simulators and every FFT
  // plan; the timed second run must add no plan-cache misses.
  std::map<std::uint32_t, ContactSummary> golden_results;
  const auto golden_sink = [&](std::size_t, std::span<const chip::ContactResult> r) {
    for (const chip::ContactResult& x : r) {
      golden_results[x.contact] = {x.printed, x.cd_width_nm};
    }
  };
  pipe.run_golden(golden_sink);
  const std::size_t golden_warm_misses = plan_misses();
  std::size_t golden_contacts = 0;
  const auto count_sink = [&](std::size_t, std::span<const chip::ContactResult> r) {
    golden_contacts += r.size();
  };
  util::Timer golden_timer;
  pipe.run_golden(count_sink);
  PathSummary golden;
  golden.seconds = golden_timer.elapsed_seconds();
  golden.contacts = golden_contacts;
  golden.contacts_per_s =
      static_cast<double>(golden.contacts) / std::max(golden.seconds, 1e-9);
  const bool golden_plans_flat = plan_misses() == golden_warm_misses;
  std::printf("  golden:  %7.0f contacts/s (%zu contacts in %.2f s, %zu threads)\n",
              golden.contacts_per_s, golden.contacts, golden.seconds,
              exec.threads());
  records.push_back({"chip_golden_contacts_per_s", shape, exec.threads(),
                     golden.contacts_per_s, 0.0, "f64", "higher"});
  records.push_back({"chip_golden_ns_per_contact", shape, exec.threads(),
                     golden.seconds * 1e9 /
                         static_cast<double>(std::max<std::size_t>(golden.contacts, 1)),
                     0.0, "f64", "lower"});

  // (b) Learned path: warm run compiles the inference plans and grows every
  // pooled buffer; the second run is measured AND counted — the whole chip
  // must stream with zero heap allocations.
  core::LithoGan model(model_cfg, core::Mode::kDualLearning);
  const std::string dtype = model.serving_precision();
  std::map<std::uint32_t, ContactSummary> learned_results;
  pipe.run_learned(model, [&](std::size_t, std::span<const chip::ContactResult> r) {
    for (const chip::ContactResult& x : r) {
      learned_results[x.contact] = {x.printed, x.cd_width_nm};
    }
  });
  const std::size_t learned_warm_misses = plan_misses();
  std::size_t learned_contacts = 0;
  std::size_t* learned_counter = &learned_contacts;
  bench::start_alloc_count();
  util::Timer learned_timer;
  pipe.run_learned(model,
                   [learned_counter](std::size_t, std::span<const chip::ContactResult> r) {
                     *learned_counter += r.size();
                   });
  PathSummary learned;
  learned.seconds = learned_timer.elapsed_seconds();
  const std::size_t learned_steady_allocs = bench::stop_alloc_count();
  learned.contacts = learned_contacts;
  learned.contacts_per_s =
      static_cast<double>(learned.contacts) / std::max(learned.seconds, 1e-9);
  const bool learned_plans_flat = plan_misses() == learned_warm_misses;
  std::printf("  learned: %7.0f contacts/s (%zu contacts in %.2f s, dtype %s)\n",
              learned.contacts_per_s, learned.contacts, learned.seconds,
              dtype.c_str());
  records.push_back({"chip_learned_contacts_per_s", shape, 1,
                     learned.contacts_per_s, 0.0, dtype, "higher"});
  records.push_back({"chip_learned_ns_per_contact", shape, 1,
                     learned.seconds * 1e9 /
                         static_cast<double>(std::max<std::size_t>(learned.contacts, 1)),
                     0.0, dtype, "lower"});

  // (c) ML-vs-golden divergence: printed-state agreement over all contacts,
  // mean |CD delta| over the ones both paths print. Reported, not gated —
  // the bench model is untrained unless a checkpoint-driven harness wraps
  // this binary.
  std::size_t printed_agree = 0;
  std::size_t both_printed = 0;
  double cd_delta_sum = 0.0;
  for (const auto& [idx, g] : golden_results) {
    const auto it = learned_results.find(idx);
    if (it == learned_results.end()) continue;
    if (g.printed == it->second.printed) ++printed_agree;
    if (g.printed && it->second.printed) {
      ++both_printed;
      cd_delta_sum += std::abs(g.cd_width_nm - it->second.cd_width_nm);
    }
  }
  const double printed_match_frac =
      golden_results.empty()
          ? 0.0
          : static_cast<double>(printed_agree) /
                static_cast<double>(golden_results.size());
  const double mean_cd_delta_nm =
      both_printed == 0 ? 0.0
                        : cd_delta_sum / static_cast<double>(both_printed);
  std::printf("  divergence: printed agreement %.2f, mean |CD delta| %.2f nm "
              "(%zu contacts printed by both)\n",
              printed_match_frac, mean_cd_delta_nm, both_printed);

  const bool coverage_ok = golden.contacts == layout.contacts().size() &&
                           learned.contacts == layout.contacts().size();
  const bool ring_ok =
      pipe.stats().ring_slots == std::min(chip_cfg.ring_depth, pipe.tiles());
  const bool alloc_ok = learned_steady_allocs == 0;
  const bool plans_ok = golden_plans_flat && learned_plans_flat;
  std::printf("\nchecks:\n");
  std::printf("  every contact owned exactly once on both paths: %s (%zu/%zu)\n",
              coverage_ok ? "OK" : "FAIL", golden.contacts,
              layout.contacts().size());
  std::printf("  tile ring bounded at min(ring_depth, tiles):    %s (%zu slots, "
              "%.1f KiB)\n",
              ring_ok ? "OK" : "FAIL", pipe.stats().ring_slots,
              static_cast<double>(pipe.stats().ring_bytes) / 1024.0);
  std::printf("  zero allocations over the warm learned chip:    %s (%zu)\n",
              alloc_ok ? "OK" : "FAIL", learned_steady_allocs);
  std::printf("  plan-cache misses only during warmup:           %s\n",
              plans_ok ? "OK" : "FAIL");

  const bool pass = coverage_ok && ring_ok && alloc_ok && plans_ok;
  char chip_json[1024];
  std::snprintf(
      chip_json, sizeof(chip_json),
      "{\n    \"chip_nm\": %.0f, \"tile_nm\": %.0f, \"tile_px\": %zu, "
      "\"halo_nm\": %.0f, \"core_nm\": %.0f, \"tiles\": %zu, "
      "\"contacts\": %zu, \"ring_slots\": %zu, \"ring_bytes\": %zu,\n"
      "    \"golden\": {\"contacts_per_s\": %.1f, \"seconds\": %.3f, "
      "\"threads\": %zu},\n"
      "    \"learned\": {\"contacts_per_s\": %.1f, \"seconds\": %.3f, "
      "\"dtype\": \"%s\"},\n"
      "    \"divergence\": {\"printed_match_frac\": %.4f, "
      "\"mean_cd_delta_nm\": %.3f, \"both_printed\": %zu},\n"
      "    \"gates\": {\"coverage\": %s, \"ring_bounded\": %s, "
      "\"learned_steady_allocs\": %zu, \"plan_warmup_only\": %s, "
      "\"pass\": %s}\n  }",
      chip_cfg.chip_nm, chip_cfg.tile_extent_nm, chip_cfg.tile_pixels,
      pipe.halo_nm(), pipe.core_nm(), pipe.tiles(), layout.contacts().size(),
      pipe.stats().ring_slots, pipe.stats().ring_bytes, golden.contacts_per_s,
      golden.seconds, exec.threads(), learned.contacts_per_s, learned.seconds,
      dtype.c_str(), printed_match_frac, mean_cd_delta_nm, both_printed,
      coverage_ok ? "true" : "false", ring_ok ? "true" : "false",
      learned_steady_allocs, plans_ok ? "true" : "false",
      pass ? "true" : "false");

  const char* json_path = std::getenv("LITHOGAN_BENCH_JSON");
  bench::write_bench_json(json_path != nullptr ? json_path : "BENCH_chip.json",
                          records, "chip", chip_json);

  if (!alloc_ok) {
    std::printf("\nFAIL: learned tile loop allocated in steady state\n");
    return 1;
  }
  if (!plans_ok) {
    std::printf("\nFAIL: plan caches missed after warmup\n");
    return 1;
  }
  if (!coverage_ok || !ring_ok) {
    std::printf("\nFAIL: streaming invariant violated\n");
    return 1;
  }
  return 0;
}
