// chip_golden and chip_learned: chip::ChipPipeline over a seeded layout.
//
// Untraced run: set-up (dose calibration, layout, pipeline, and one warm
// pass whose results become the reference), then timed passes for
// --seconds, each checked contact by contact against the warm pass, then a
// serial replay of a few tiles or contacts checked against the pipeline's
// output. Traced run: the same set-up and one untraced pass, then every
// tile replayed serially through the layer calls with a span around each.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/render.hpp"
#include "geometry/marching_squares.hpp"
#include "litho/simulator.hpp"
#include "lithobench.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"

namespace lithobench {
namespace {

using namespace lithogan;

// Golden: 4x4 tiles of 2048 nm / 512 px (64 contacts, about 2 s a pass) on
// 2 threads. Learned: 7x7 tiles (256 contacts, about 1 s a pass), serial, as
// the pipeline's learned path is. Short passes give a run many to take the
// median of; per-tile cost does not depend on the chip size.
constexpr double kGoldenChipNm = 4096.0;
constexpr double kLearnedChipNm = 8192.0;
constexpr double kSmokeGoldenChipNm = 1600.0;
constexpr double kSmokeLearnedChipNm = 2048.0;
constexpr std::size_t kGoldenThreads = 2;
// How much of the host clock's slowdown each path's times show (see
// HostClock), fitted over ten runs (README.md): the golden path's tile-sized
// FFTs wait on memory more than the learned path's small GEMMs do.
constexpr double kGoldenElasticity = 0.5;
constexpr double kLearnedElasticity = 0.8;
constexpr int kMinPasses = 3;
constexpr std::size_t kGoldenCheckTiles = 2;
constexpr std::size_t kLearnedCheckContacts = 16;

litho::ProcessConfig calibrated_process(bool smoke) {
  litho::ProcessConfig process = litho::ProcessConfig::n10();
  if (smoke) {
    process.optical.source_rings = 1;
    process.optical.source_points_per_ring = 8;
  }
  litho::Simulator calib(process);
  calib.calibrate_dose();
  return calib.process();
}

chip::ChipConfig chip_config(const Options& options, double chip_nm) {
  chip::ChipConfig config;
  config.seed = options.seed;
  config.chip_nm = chip_nm;
  if (options.smoke) {
    config.tile_extent_nm = 1024.0;
    config.tile_pixels = 256;
    config.halo_lobes = 1.0;
  }
  return config;
}

bool same_bytes(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

/// Byte-for-byte equality of two stitched contacts.
bool same_result(const chip::ContactResult& a, const chip::ContactResult& b) {
  const auto& va = a.contour.vertices();
  const auto& vb = b.contour.vertices();
  return a.contact == b.contact && a.printed == b.printed &&
         same_bytes(&a.center_nm, &b.center_nm, sizeof a.center_nm) &&
         same_bytes(&a.cd_width_nm, &b.cd_width_nm, sizeof a.cd_width_nm) &&
         same_bytes(&a.cd_height_nm, &b.cd_height_nm, sizeof a.cd_height_nm) &&
         va.size() == vb.size() &&
         same_bytes(va.data(), vb.data(), va.size() * sizeof(geometry::Point));
}

/// Sink for one pipeline pass: checks that every contact arrives exactly
/// once and matches the reference (the warm pass stores it), and stamps
/// when each tile's results arrive and when the sink returns.
class PassCheck {
 public:
  PassCheck(std::size_t contacts, std::size_t tiles)
      : seen_(contacts),
        reference_(contacts),
        arrive_(tiles),
        leave_(tiles),
        delivered_(tiles) {}

  /// Runs one pass through `run` and returns its wall time in seconds.
  double run(const std::function<void(const chip::ChipPipeline::Sink&)>& run, bool store,
             Result& result) {
    std::fill(seen_.begin(), seen_.end(), 0);
    store_ = store;
    result_ = &result;
    start_ = Clock::now();
    run([this](std::size_t tile, std::span<const chip::ContactResult> r) {
      on_tile(tile, r);
    });
    const double seconds = seconds_between(start_, Clock::now());
    for (const std::uint8_t s : seen_) {
      if (s == 0) result.fail("contact missing from a pass");
    }
    return seconds;
  }

  /// Calls `each(contacts, from, to)` for every tile of the last pass: its
  /// contacts' latency runs from the start of the work on the tile to the
  /// arrival of its results. The pipeline sinks tiles in order, one wave of
  /// `wave` tiles at a time, and starts a wave when the previous wave's last
  /// sink returns (the first at the pass start).
  template <typename Each>
  void for_each_tile(std::size_t wave, const Each& each) const {
    Clock::time_point wave_start = start_;
    for (std::size_t t = 0; t < arrive_.size(); ++t) {
      if (t > 0 && t % wave == 0) wave_start = leave_[t - 1];
      each(delivered_[t], wave_start, arrive_[t]);
    }
  }

  const std::vector<chip::ContactResult>& reference() const { return reference_; }

 private:
  void on_tile(std::size_t tile, std::span<const chip::ContactResult> results) {
    arrive_[tile] = Clock::now();
    delivered_[tile] = results.size();
    for (const chip::ContactResult& r : results) {
      if (r.contact >= seen_.size()) {
        result_->fail("contact index out of range");
      } else if (seen_[r.contact]++ != 0) {
        result_->fail("contact reported twice in one pass");
      } else if (store_) {
        reference_[r.contact] = r;
      } else if (!same_result(r, reference_[r.contact])) {
        result_->fail("contact " + std::to_string(r.contact) +
                      " differs from the warm pass");
      }
    }
    leave_[tile] = Clock::now();
  }

  std::vector<std::uint8_t> seen_;
  std::vector<chip::ContactResult> reference_;
  std::vector<Clock::time_point> arrive_;
  std::vector<Clock::time_point> leave_;
  std::vector<std::size_t> delivered_;  // results per tile
  Clock::time_point start_;
  bool store_ = false;
  Result* result_ = nullptr;
};

/// Everything a chip workload builds before its first timed pass.
struct ChipState {
  litho::ProcessConfig process;
  std::unique_ptr<chip::ChipLayout> layout;
  std::unique_ptr<util::ExecContext> exec;  // golden only
  std::unique_ptr<core::LithoGan> model;    // learned only
  std::unique_ptr<chip::ChipPipeline> pipe;
  std::unique_ptr<PassCheck> check;

  std::size_t contacts() const { return layout->contacts().size(); }
  /// One pass of the workload's path through `check`.
  double pass(bool store, Result& result) {
    return check->run(
        [&](const chip::ChipPipeline::Sink& sink) {
          if (model) {
            pipe->run_learned(*model, sink);
          } else {
            pipe->run_golden(sink);
          }
        },
        store, result);
  }
};

/// What a user of the chip pipeline pays before the first timed pass: dose
/// calibration, the layout with its OPC pass, the model and its plans, the
/// pipeline with its precompute, and a warm pass. The warm pass finishes
/// lazy set-up and fills caches, and its results become the reference
/// every later pass must equal.
std::unique_ptr<ChipState> set_up(const Options& options, bool learned, Result& result) {
  auto s = std::make_unique<ChipState>();
  s->process = calibrated_process(options.smoke);
  const double chip_nm = learned ? (options.smoke ? kSmokeLearnedChipNm : kLearnedChipNm)
                                 : (options.smoke ? kSmokeGoldenChipNm : kGoldenChipNm);
  s->layout =
      std::make_unique<chip::ChipLayout>(s->process, chip_config(options, chip_nm));
  if (learned) {
    // Fixed weights: lite() with its own seed is part of the program
    // measured, not an input.
    s->model = std::make_unique<core::LithoGan>(core::LithoGanConfig::lite(),
                                                core::Mode::kDualLearning);
    s->model->serving_precision();  // compiles the serving plans
  } else {
    pin_to(1);  // the pool worker inherits this CPU
    s->exec = std::make_unique<util::ExecContext>(kGoldenThreads);
    pin_to(0);
  }
  s->pipe = std::make_unique<chip::ChipPipeline>(s->process, *s->layout, s->exec.get());
  s->check = std::make_unique<PassCheck>(s->contacts(), s->pipe->tiles());
  s->pass(/*store=*/true, result);
  return s;
}

/// Timed passes for --seconds (at least kMinPasses). Each pass's contacts/s
/// is adjusted by the host clock over the pass, each tile's latency by the
/// host clock over the tile. The gated values are the medians over the
/// passes of the contacts/s and of the median contact latency. Latency has
/// one sample per contact, so its median is over contacts like the
/// throughput, not over tiles of a few discrete sizes. The wall-time
/// medians and the pooled wall-time percentiles go beside them.
void timed_passes(const Options& options, ChipState& s, const HostClock& clock,
                  double elasticity, std::size_t wave, Result& result) {
  std::vector<double> rates;
  std::vector<double> raw_rates;
  std::vector<double> pass_p50_ms;
  std::vector<double> raw_pass_p50_ms;
  std::vector<double> slowdowns;
  std::vector<double> pass_ms;      // the last pass's per-contact latencies
  std::vector<double> adjusted_ms;  // the same, adjusted
  std::vector<double> latency_ms;   // every pass's
  const std::uint64_t misses_before =
      counter("fft.plan_cache.miss") + counter("conv.plan_cache.miss");
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(rates.size()) < kMinPasses ||
         seconds_between(t0, Clock::now()) < options.seconds) {
    const Clock::time_point from = Clock::now();
    const double seconds = s.pass(/*store=*/false, result);
    const Clock::time_point to = Clock::now();
    result.attempted += s.contacts();
    raw_rates.push_back(static_cast<double>(s.contacts()) / seconds);
    rates.push_back(raw_rates.back() * clock.factor(from, to, elasticity));
    pass_ms.clear();
    adjusted_ms.clear();
    s.check->for_each_tile(
        wave, [&](std::size_t contacts, Clock::time_point start, Clock::time_point end) {
          const double ms = seconds_between(start, end) * 1e3;
          pass_ms.insert(pass_ms.end(), contacts, ms);
          adjusted_ms.insert(adjusted_ms.end(), contacts,
                             ms / clock.factor(start, end, elasticity));
        });
    raw_pass_p50_ms.push_back(median(pass_ms));
    pass_p50_ms.push_back(median(adjusted_ms));
    slowdowns.push_back(clock.slowdown(from, to));
    latency_ms.insert(latency_ms.end(), pass_ms.begin(), pass_ms.end());
  }
  const std::uint64_t misses =
      counter("fft.plan_cache.miss") + counter("conv.plan_cache.miss") - misses_before;
  result.add(Kind::kEndToEnd, "throughput_per_s", median(rates), "1/s");
  result.add(Kind::kEndToEnd, "latency_p50_ms", median(pass_p50_ms), "ms");
  result.add(Kind::kInfo, "raw_throughput_per_s", median(raw_rates), "1/s");
  result.add(Kind::kInfo, "raw_latency_p50_ms", median(raw_pass_p50_ms), "ms");
  result.add(Kind::kInfo, "host_slowdown", median(slowdowns), "ratio");
  add_pooled_latency(result, latency_ms);
  result.add(Kind::kInfo, "passes", static_cast<double>(rates.size()), "count");
  result.add(Kind::kInfo, "plan_misses_timed", static_cast<double>(misses), "count");
}

// ---------------------------------------------------------------------------
// Serial replays through the layer calls the pipeline makes.
// ---------------------------------------------------------------------------

/// Replays golden tile `tile` on `sim` (a Simulator of the pipeline's tile
/// process) and stitches its owned contacts as the pipeline does: the
/// contour whose bounding box holds the drawn center, smallest box first.
std::vector<chip::ContactResult> replay_golden_tile(const ChipState& s,
                                                    litho::Simulator& sim,
                                                    std::size_t tile, Spans& spans) {
  const Scoped tile_span(spans, "chip.tile");
  const chip::ChipPipeline& pipe = *s.pipe;
  const geometry::Rect window =
      pipe.tile_window(tile % pipe.tiles_x(), tile / pipe.tiles_x());
  std::vector<std::uint32_t> idx;
  {
    const Scoped span(spans, "layout.query");
    s.layout->query(window, idx);
  }
  std::vector<geometry::Rect> openings;
  for (const std::uint32_t i : idx) {
    openings.push_back(
        s.layout->contacts()[i].opc.translated({-window.lo.x, -window.lo.y}));
  }
  litho::FieldGrid aerial;
  litho::FieldGrid develop;
  std::vector<geometry::Polygon> contours;
  {
    const Scoped span(spans, "litho.aerial");
    aerial = sim.aerial_image(openings);
  }
  {
    const Scoped span(spans, "litho.develop");
    develop = sim.develop(aerial);
  }
  {
    const Scoped span(spans, "litho.contours");
    contours = sim.contours(develop);
  }

  std::vector<chip::ContactResult> out;
  const geometry::Point origin = window.lo;
  for (const std::uint32_t i : idx) {
    const geometry::Point center = s.layout->contacts()[i].drawn.center();
    if (pipe.owner_tile(center) != tile) continue;
    const geometry::Point local{center.x - origin.x, center.y - origin.y};
    const geometry::Polygon* best = nullptr;
    double best_area = 0.0;
    for (const geometry::Polygon& c : contours) {
      const geometry::Rect box = c.bounding_box();
      if (!box.contains(local)) continue;
      if (best == nullptr || box.area() < best_area) {
        best_area = box.area();
        best = &c;
      }
    }
    chip::ContactResult& r = out.emplace_back();
    r.contact = i;
    r.center_nm = center;
    if (best != nullptr && best->size() >= 3) {
      r.printed = true;
      for (const geometry::Point& p : best->vertices()) {
        r.contour.push_back({p.x + origin.x, p.y + origin.y});
      }
      const geometry::Rect box = best->bounding_box();
      r.cd_width_nm = box.width();
      r.cd_height_nm = box.height();
      r.center_nm = {box.center().x + origin.x, box.center().y + origin.y};
    }
  }
  return out;
}

/// The learned path's per-contact layer calls outside the pipeline: render
/// the contact's clip, predict a batch of lanes, extract the contour.
class LearnedReplay {
 public:
  LearnedReplay(const ChipState& s, std::size_t lanes)
      : s_(s), samples_(lanes), outputs_(lanes), lane_contact_(lanes) {
    const std::size_t size = s.model->config().image_size;
    rc_.mask_size_px = size;
    rc_.resist_size_px = size;
    rc_.crop_window_nm = s.process.crop_window_nm;
    extent_ = s.process.grid.extent_nm;
    crop_px_nm_ = rc_.crop_window_nm / static_cast<double>(size);
    for (std::size_t i = 0; i < lanes; ++i) {
      sample_ptrs_.push_back(&samples_[i]);
      output_ptrs_.push_back(&outputs_[i]);
    }
  }

  /// Renders contact `i`'s clip into `lane`.
  void render(std::uint32_t i, std::size_t lane, Spans& spans) {
    contact_clip(*s_.layout, i, extent_, spans, near_, clip_);
    const Scoped span(spans, "data.render");
    data::render_mask_into(clip_, rc_, samples_[lane].mask_rgb);
    samples_[lane].resist_pixel_nm = crop_px_nm_;
    lane_contact_[lane] = i;
  }

  void predict(std::size_t lanes, Spans& spans) {
    const Scoped span(spans, "core.predict");
    s_.model->predict_batch_into(
        std::span<const data::Sample* const>(sample_ptrs_.data(), lanes),
        std::span<image::Image* const>(output_ptrs_.data(), lanes), scratch_);
  }

  /// Contour of `lane`'s prediction in chip space: the largest contour of
  /// the 0.5 iso-line, as the pipeline stitches it.
  chip::ContactResult contour(std::size_t lane, Spans& spans) {
    const Scoped span(spans, "geometry.contour");
    chip::ContactResult r;
    r.contact = lane_contact_[lane];
    const geometry::Point center = s_.layout->contacts()[r.contact].drawn.center();
    const image::Image& img = outputs_[lane];
    const std::size_t n = img.height();
    grid_.resize(n * n);
    const std::span<const float> ch = img.channel(0);
    for (std::size_t p = 0; p < n * n; ++p) grid_[p] = static_cast<double>(ch[p]);
    const std::size_t found =
        geometry::extract_contours_into(grid_, n, n, 0.5, contour_scratch_, pool_);
    const geometry::Polygon* best = nullptr;
    double best_area = 0.0;
    for (std::size_t c = 0; c < found; ++c) {
      const double a = pool_[c].area();
      if (best == nullptr || a > best_area) {
        best_area = a;
        best = &pool_[c];
      }
    }
    r.center_nm = center;
    if (best != nullptr && best->size() >= 3) {
      const double crop = rc_.crop_window_nm;
      const double px = crop_px_nm_;
      const geometry::Point off{center.x - crop / 2.0 + 0.5 * px,
                                center.y - crop / 2.0 + 0.5 * px};
      r.printed = true;
      for (const geometry::Point& p : best->vertices()) {
        r.contour.push_back({off.x + p.x * px, off.y + p.y * px});
      }
      const geometry::Rect box = best->bounding_box();
      r.cd_width_nm = box.width() * px;
      r.cd_height_nm = box.height() * px;
      r.center_nm = {off.x + box.center().x * px, off.y + box.center().y * px};
    }
    return r;
  }

 private:
  const ChipState& s_;
  data::RenderConfig rc_;
  double extent_ = 0.0;
  double crop_px_nm_ = 0.0;
  layout::MaskClip clip_;
  std::vector<std::uint32_t> near_;
  std::vector<data::Sample> samples_;
  std::vector<image::Image> outputs_;
  std::vector<const data::Sample*> sample_ptrs_;
  std::vector<image::Image*> output_ptrs_;
  std::vector<std::uint32_t> lane_contact_;
  core::PredictScratch scratch_;
  std::vector<double> grid_;
  geometry::ContourScratch contour_scratch_;
  std::vector<geometry::Polygon> pool_;
};

void check_replayed(const ChipState& s, const chip::ContactResult& replayed,
                    const char* what, Result& result) {
  if (!same_result(replayed, s.check->reference()[replayed.contact])) {
    result.fail(std::string(what) + " replay of contact " +
                std::to_string(replayed.contact) + " differs from the pipeline");
  }
}

/// `count` distinct indices in [0, n), drawn from the workload seed.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t count) {
  util::Rng rng(seed, 0x5a);
  std::vector<std::size_t> picked = rng.permutation(n);
  picked.resize(std::min(count, n));
  return picked;
}

double sum_seconds(const Spans& spans, std::size_t since,
                   std::initializer_list<const char*> names) {
  double s = 0.0;
  for (const char* name : names) s += spans.total(name, since).seconds;
  return s;
}

/// The untraced pass of a traced run: returns its wall time and reports the
/// plan-cache and pool counter deltas over it.
double untraced_pass(ChipState& s, Result& result) {
  const char* const counters[][2] = {
      {"fft.plan_cache.miss", "math.fft_plan_miss"},
      {"conv.plan_cache.miss", "math.conv_plan_miss"},
      {"threadpool.jobs_dispatched", "util.pool_dispatched"},
      {"threadpool.jobs_inlined", "util.pool_inlined"}};
  std::vector<std::uint64_t> before;
  for (const auto& c : counters) before.push_back(counter(c[0]));
  const double seconds = s.pass(/*store=*/false, result);
  result.attempted += s.contacts();
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    const std::uint64_t delta = counter(counters[i][0]) - before[i];
    result.add(Kind::kLayer, counters[i][1], static_cast<double>(delta), "count");
  }
  result.add(Kind::kInfo, "untraced_pass_s", seconds, "s");
  return seconds;
}

}  // namespace

void contact_clip(const chip::ChipLayout& layout, std::uint32_t i, double extent_nm,
                  Spans& spans, std::vector<std::uint32_t>& near, layout::MaskClip& clip) {
  const auto& contacts = layout.contacts();
  const geometry::Point center = contacts[i].drawn.center();
  const geometry::Point off{extent_nm / 2.0 - center.x, extent_nm / 2.0 - center.y};
  clip.extent_nm = extent_nm;
  clip.target = contacts[i].drawn.translated(off);
  clip.target_opc = contacts[i].opc.translated(off);
  clip.neighbors.clear();
  clip.neighbors_opc.clear();
  clip.srafs.clear();
  {
    const Scoped span(spans, "layout.query");
    layout.query({{center.x - extent_nm / 2.0, center.y - extent_nm / 2.0},
                  {center.x + extent_nm / 2.0, center.y + extent_nm / 2.0}},
                 near);
  }
  for (const std::uint32_t j : near) {
    if (j == i) continue;
    clip.neighbors.push_back(contacts[j].drawn.translated(off));
    clip.neighbors_opc.push_back(contacts[j].opc.translated(off));
  }
}

void run_chip_golden(const Options& options, Result& result, Spans& spans) {
  result.threads = kGoldenThreads;
  const KeepAwake awake({0, 1});  // the calling thread and the pool worker
  const HostClock clock({0, 1});
  const Clock::time_point start = Clock::now();
  std::unique_ptr<ChipState> s = set_up(options, /*learned=*/false, result);
  if (end_set_up(options, clock, kGoldenElasticity, start, result)) return;
  const std::size_t wave = s->pipe->stats().ring_slots;

  // Mean |printed CD - drawn CD| over printed contacts: deterministic for a
  // seed, so a numerics change in litho shows here.
  double cd_err = 0.0;
  std::size_t printed = 0;
  for (std::size_t i = 0; i < s->contacts(); ++i) {
    const chip::ContactResult& r = s->check->reference()[i];
    if (!r.printed) continue;
    cd_err += std::abs(r.cd_width_nm - s->layout->contacts()[i].drawn.width());
    ++printed;
  }
  result.add(Kind::kInfo, "golden_cd_err_nm",
             printed == 0 ? 0.0 : cd_err / static_cast<double>(printed), "nm");
  result.add(Kind::kInfo, "contacts", static_cast<double>(s->contacts()), "count");
  result.add(Kind::kInfo, "tiles", static_cast<double>(s->pipe->tiles()), "count");

  litho::Simulator sim(s->pipe->tile_process());
  if (!options.trace) {
    timed_passes(options, *s, clock, kGoldenElasticity, wave, result);
    for (const std::size_t tile :
         sample_indices(options.seed, s->pipe->tiles(), kGoldenCheckTiles)) {
      for (const chip::ContactResult& r : replay_golden_tile(*s, sim, tile, spans)) {
        check_replayed(*s, r, "golden tile", result);
      }
    }
    return;
  }

  const double pass_s = untraced_pass(*s, result);
  const std::size_t since = spans.mark();
  {
    const Scoped replay(spans, "replay");
    for (std::size_t tile = 0; tile < s->pipe->tiles(); ++tile) {
      for (const chip::ContactResult& r : replay_golden_tile(*s, sim, tile, spans)) {
        check_replayed(*s, r, "golden tile", result);
      }
    }
  }
  // One span of each litho stage per tile, so the means are per tile.
  result.add(Kind::kLayer, "litho.aerial_ms",
             spans.total("litho.aerial", since).mean_s() * 1e3, "ms");
  result.add(Kind::kLayer, "litho.develop_ms",
             spans.total("litho.develop", since).mean_s() * 1e3, "ms");
  result.add(Kind::kLayer, "litho.contours_ms",
             spans.total("litho.contours", since).mean_s() * 1e3, "ms");
  result.add(Kind::kLayer, "layout.query_us",
             spans.total("layout.query", since).mean_s() * 1e6, "us");
  const double busy = sum_seconds(
      spans, since, {"layout.query", "litho.aerial", "litho.develop", "litho.contours"});
  result.add(Kind::kLayer, "chip.golden_unattributed_frac",
             1.0 - busy / (pass_s * static_cast<double>(kGoldenThreads)), "ratio");
}

void run_chip_learned(const Options& options, Result& result, Spans& spans) {
  result.threads = 1;
  const HostClock clock({0});
  const Clock::time_point start = Clock::now();
  std::unique_ptr<ChipState> s = set_up(options, /*learned=*/true, result);
  if (end_set_up(options, clock, kLearnedElasticity, start, result)) return;
  result.add(Kind::kInfo, "contacts", static_cast<double>(s->contacts()), "count");
  result.add(Kind::kInfo, "tiles", static_cast<double>(s->pipe->tiles()), "count");

  if (!options.trace) {
    timed_passes(options, *s, clock, kLearnedElasticity, /*wave=*/1, result);
    // Tile invariance: a contact's chip-path result equals a standalone
    // batch-1 prediction on the same rendered clip.
    LearnedReplay replay(*s, 1);
    for (const std::size_t i :
         sample_indices(options.seed, s->contacts(), kLearnedCheckContacts)) {
      replay.render(static_cast<std::uint32_t>(i), 0, spans);
      replay.predict(1, spans);
      check_replayed(*s, replay.contour(0, spans), "standalone", result);
    }
    return;
  }

  const double pass_s = untraced_pass(*s, result);
  const std::size_t batch = s->layout->config().infer_batch;
  LearnedReplay replay(*s, batch);
  const std::uint64_t flops_before = counter("gemm.flops");
  const std::size_t since = spans.mark();
  std::vector<std::uint32_t> idx;
  {
    const Scoped replay_span(spans, "replay");
    const chip::ChipPipeline& pipe = *s->pipe;
    for (std::size_t tile = 0; tile < pipe.tiles(); ++tile) {
      const Scoped tile_span(spans, "chip.tile");
      {
        const Scoped span(spans, "layout.query");
        s->layout->query(pipe.tile_window(tile % pipe.tiles_x(), tile / pipe.tiles_x()),
                         idx);
      }
      std::size_t lanes = 0;
      const auto flush = [&] {
        if (lanes == 0) return;
        replay.predict(lanes, spans);
        for (std::size_t l = 0; l < lanes; ++l) {
          check_replayed(*s, replay.contour(l, spans), "learned tile", result);
        }
        lanes = 0;
      };
      for (const std::uint32_t i : idx) {
        if (pipe.owner_tile(s->layout->contacts()[i].drawn.center()) != tile) continue;
        replay.render(i, lanes++, spans);
        if (lanes == batch) flush();
      }
      flush();
    }
  }
  const double flops = static_cast<double>(counter("gemm.flops") - flops_before);
  // One render and one contour span per contact.
  const Spans::Total render = spans.total("data.render", since);
  const Spans::Total predict = spans.total("core.predict", since);
  result.add(Kind::kLayer, "layout.query_us",
             spans.total("layout.query", since).mean_s() * 1e6, "us");
  result.add(Kind::kLayer, "data.render_us", render.mean_s() * 1e6, "us");
  result.add(Kind::kLayer, "core.predict_ms", predict.mean_s() * 1e3, "ms");
  result.add(Kind::kLayer, "core.batch_mean",
             predict.count == 0 ? 0.0
                                : static_cast<double>(render.count) /
                                      static_cast<double>(predict.count),
             "count");
  result.add(Kind::kLayer, "geometry.contour_us",
             spans.total("geometry.contour", since).mean_s() * 1e6, "us");
  result.add(Kind::kLayer, "math.gemm_gflops_per_s",
             predict.seconds > 0.0 ? flops / predict.seconds * 1e-9 : 0.0, "GFLOP/s");
  const double busy = sum_seconds(
      spans, since, {"layout.query", "data.render", "core.predict", "geometry.contour"});
  result.add(Kind::kLayer, "chip.learned_unattributed_frac", 1.0 - busy / pass_s,
             "ratio");
}

}  // namespace lithobench
