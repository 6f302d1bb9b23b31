#include "chip/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/render.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace lithogan::chip {

namespace {

/// The contour whose bounding box contains `p` with the smallest area —
/// geometry::contour_at without the copy, over the first `count` entries.
const geometry::Polygon* pick_contour(std::span<const geometry::Polygon> contours,
                                      const geometry::Point& p) {
  const geometry::Polygon* best = nullptr;
  double best_area = std::numeric_limits<double>::infinity();
  for (const geometry::Polygon& c : contours) {
    const geometry::Rect box = c.bounding_box();
    if (!box.contains(p)) continue;
    const double a = box.area();
    if (a < best_area) {
      best_area = a;
      best = &c;
    }
  }
  return best;
}

obs::Counter& tiles_counter() {
  static obs::Counter& c = obs::Registry::global().counter("chip.tiles");
  return c;
}
obs::Counter& contacts_counter() {
  static obs::Counter& c = obs::Registry::global().counter("chip.contacts");
  return c;
}
obs::Histogram& stitch_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "chip.stitch_ms", obs::default_ms_buckets());
  return h;
}

}  // namespace

ChipPipeline::ChipPipeline(const litho::ProcessConfig& process, const ChipLayout& layout,
                           util::ExecContext* exec)
    : layout_(layout),
      config_(layout.config()),
      clip_process_(process),
      tile_process_(process),
      exec_(exec) {
  // Tiles run on their own (larger) grid at the same physical pixel pitch
  // idea as the clip grid, serial inner kernels: tiles themselves are the
  // parallel unit, so inner fan-out would only oversubscribe.
  tile_process_.grid.extent_nm = config_.tile_extent_nm;
  tile_process_.grid.pixels = config_.tile_pixels;
  tile_process_.exec = nullptr;
  tile_process_.validate();
  master_ = std::make_unique<litho::Simulator>(tile_process_);

  // Halo = optical reach + resist reach, in whole pixels so tile origins
  // stay exact pixel multiples (the translation-equivariance contract).
  // Optical: halo_lobes resolution lobes of the broadest SOCS kernel, read
  // from the pupil support. Resist: 4 sigma of acid diffusion plus half the
  // VTR local-statistics window.
  const double ambit = master_->optical().kernel_ambit_nm();
  const double halo_raw = config_.halo_lobes * ambit +
                          4.0 * tile_process_.resist.diffusion_length_nm +
                          tile_process_.resist.vtr_window_nm / 2.0;
  const double px = tile_process_.grid.pixel_nm();
  halo_nm_ = std::ceil(halo_raw / px) * px;
  core_nm_ = config_.tile_extent_nm - 2.0 * halo_nm_;
  LITHOGAN_REQUIRE(core_nm_ > 0.0,
                   "halo leaves no tile core; increase tile_extent_nm or "
                   "reduce halo_lobes");
  tiles_x_ = static_cast<std::size_t>(std::ceil(config_.chip_nm / core_nm_));
  tiles_y_ = tiles_x_;
  stats_.tiles_x = tiles_x_;
  stats_.tiles_y = tiles_y_;

  slots_.resize(std::min(config_.ring_depth, tiles()));
  stats_.ring_slots = slots_.size();
}

ChipPipeline::~ChipPipeline() = default;

geometry::Rect ChipPipeline::tile_window(std::size_t ix, std::size_t iy) const {
  const double ox = static_cast<double>(ix) * core_nm_ - halo_nm_;
  const double oy = static_cast<double>(iy) * core_nm_ - halo_nm_;
  return {{ox, oy}, {ox + config_.tile_extent_nm, oy + config_.tile_extent_nm}};
}

std::size_t ChipPipeline::owner_tile(const geometry::Point& center_nm) const {
  const auto axis = [&](double v, std::size_t count) {
    const double c = std::floor(v / core_nm_);
    if (c < 0.0) return static_cast<std::size_t>(0);
    return std::min(static_cast<std::size_t>(c), count - 1);
  };
  return axis(center_nm.y, tiles_y_) * tiles_x_ + axis(center_nm.x, tiles_x_);
}

void ChipPipeline::run_golden(const Sink& sink) {
  const std::size_t total = tiles();
  const std::size_t depth = slots_.size();
  util::ThreadPool* pool = exec_ ? &exec_->pool() : nullptr;
  if (pool && clones_.size() < exec_->threads()) clones_.resize(exec_->threads());

  const auto process_tile = [&](std::size_t tile, litho::Simulator& sim,
                                GoldenSlot& slot) {
    const obs::Span span("chip.tile");
    const geometry::Rect window = tile_window(tile % tiles_x_, tile / tiles_x_);
    {
      const obs::Span raster_span("chip.rasterize");
      layout_.query(window, slot.idx);
      slot.openings.clear();
      for (const std::uint32_t i : slot.idx) {
        slot.openings.push_back(
            layout_.contacts()[i].opc.translated({-window.lo.x, -window.lo.y}));
      }
    }
    const obs::Span sim_span("chip.sim");
    slot.result = sim.run(slot.openings);
  };

  for (std::size_t wave = 0; wave < total; wave += depth) {
    const std::size_t count = std::min(depth, total - wave);
    if (pool) {
      // One persistent serial-clone simulator per worker: the optical
      // precompute runs at most threads() times for the whole chip (and is
      // reused by later waves and later runs), not once per wave.
      pool->parallel_for(0, count, 1,
                         [&](std::size_t b, std::size_t e, std::size_t worker) {
                           auto& sim = clones_[worker];
                           if (!sim) {
                             sim = std::make_unique<litho::Simulator>(tile_process_);
                           }
                           for (std::size_t k = b; k < e; ++k) {
                             process_tile(wave + k, *sim, slots_[k]);
                           }
                         });
    } else {
      for (std::size_t k = 0; k < count; ++k) {
        process_tile(wave + k, *master_, slots_[k]);
      }
    }
    // Stitch + sink serially, in tile order: results are deterministic and
    // identical at any thread count because each tile's simulation depends
    // only on its own window.
    for (std::size_t k = 0; k < count; ++k) {
      stitch_golden(wave + k, slots_[k], sink);
    }
  }
  stats_.ring_bytes = std::max(stats_.ring_bytes, collect_ring_bytes());
}

void ChipPipeline::stitch_golden(std::size_t tile, GoldenSlot& slot, const Sink& sink) {
  const obs::Span span("chip.stitch");
  util::Timer timer;
  const geometry::Rect window = tile_window(tile % tiles_x_, tile / tiles_x_);
  const geometry::Point origin = window.lo;

  std::size_t n = 0;
  for (const std::uint32_t i : slot.idx) {
    const ChipContact& contact = layout_.contacts()[i];
    const geometry::Point center = contact.drawn.center();
    if (owner_tile(center) != tile) continue;  // a neighbor's halo copy
    if (n == results_.size()) results_.emplace_back();
    ContactResult& r = results_[n];
    ++n;
    r.contact = i;
    r.contour.clear();
    const geometry::Point local{center.x - origin.x, center.y - origin.y};
    const geometry::Polygon* best = pick_contour(slot.result.contours, local);
    if (best != nullptr && best->size() >= 3) {
      r.printed = true;
      for (const geometry::Point& p : best->vertices()) {
        r.contour.push_back({p.x + origin.x, p.y + origin.y});
      }
      const geometry::Rect box = best->bounding_box();
      r.cd_width_nm = box.width();
      r.cd_height_nm = box.height();
      r.center_nm = {box.center().x + origin.x, box.center().y + origin.y};
    } else {
      r.printed = false;
      r.cd_width_nm = 0.0;
      r.cd_height_nm = 0.0;
      r.center_nm = center;
    }
  }
  sink(tile, std::span<const ContactResult>(results_.data(), n));
  tiles_counter().add();
  contacts_counter().add(n);
  stitch_histogram().observe(timer.elapsed_seconds() * 1000.0);
  ++stats_.tiles_run;
  stats_.contacts_done += n;
}

struct ChipPipeline::LearnedState {
  layout::MaskClip clip;
  std::vector<data::Sample> samples;            ///< infer_batch warm lanes
  std::vector<const data::Sample*> sample_ptrs;
  std::vector<image::Image> outputs;
  std::vector<image::Image*> output_ptrs;
  std::vector<std::uint32_t> lane_contact;
  core::PredictScratch scratch;
  std::vector<std::uint32_t> idx;       ///< tile-window query scratch
  std::vector<std::uint32_t> nidx;      ///< clip-neighborhood query scratch
  std::vector<double> grid;             ///< resist image as double field
  geometry::ContourScratch contours;
  std::vector<geometry::Polygon> pool;  ///< extracted-contour pool
};

void ChipPipeline::run_learned(core::LithoGan& model, const Sink& sink) {
  if (!learned_) learned_ = std::make_unique<LearnedState>();
  LearnedState& st = *learned_;
  const std::size_t batch = config_.infer_batch;
  if (st.samples.size() != batch) {
    st.samples.resize(batch);
    st.outputs.resize(batch);
    st.sample_ptrs.resize(batch);
    st.output_ptrs.resize(batch);
    st.lane_contact.resize(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      st.samples[i].clip_id = "chip";  // SSO — never reallocates
      st.sample_ptrs[i] = &st.samples[i];
      st.output_ptrs[i] = &st.outputs[i];
    }
  }

  const std::size_t size = model.config().image_size;
  data::RenderConfig rc;
  rc.mask_size_px = size;
  rc.resist_size_px = size;
  rc.crop_window_nm = clip_process_.crop_window_nm;
  const double clip_extent = clip_process_.grid.extent_nm;
  const double crop = rc.crop_window_nm;
  const double crop_px_nm = crop / static_cast<double>(size);
  st.clip.extent_nm = clip_extent;

  const std::size_t total = tiles();
  for (std::size_t tile = 0; tile < total; ++tile) {
    const obs::Span span("chip.tile");
    const geometry::Rect window = tile_window(tile % tiles_x_, tile / tiles_x_);
    layout_.query(window, st.idx);

    std::size_t n_results = 0;
    std::size_t lane = 0;
    double stitch_s = 0.0;

    const auto flush = [&] {
      if (lane == 0) return;
      {
        const obs::Span infer_span("chip.infer");
        model.predict_batch_into(
            std::span<const data::Sample* const>(st.sample_ptrs.data(), lane),
            std::span<image::Image* const>(st.output_ptrs.data(), lane),
            st.scratch);
      }
      const obs::Span stitch_span("chip.stitch");
      util::Timer timer;
      for (std::size_t l = 0; l < lane; ++l) {
        const std::uint32_t ci = st.lane_contact[l];
        const geometry::Point center = layout_.contacts()[ci].drawn.center();
        if (n_results == results_.size()) results_.emplace_back();
        ContactResult& r = results_[n_results];
        ++n_results;
        r.contact = ci;
        r.contour.clear();

        const image::Image& img = st.outputs[l];
        const std::size_t s = img.height();
        st.grid.resize(s * s);
        const std::span<const float> ch = img.channel(0);
        for (std::size_t p = 0; p < s * s; ++p) {
          st.grid[p] = static_cast<double>(ch[p]);
        }
        const std::size_t found =
            geometry::extract_contours_into(st.grid, s, s, 0.5, st.contours, st.pool);
        // The predicted blob can sit off the drawn center (that is the
        // signal the center CNN learns), so take the dominant contour, not
        // the one under the drawn center.
        const geometry::Polygon* best = nullptr;
        double best_area = 0.0;
        for (std::size_t c = 0; c < found; ++c) {
          const double a = st.pool[c].area();
          if (best == nullptr || a > best_area) {
            best_area = a;
            best = &st.pool[c];
          }
        }
        if (best != nullptr && best->size() >= 3) {
          // Grid index g maps to chip nm at center - crop/2 + (g+0.5)*px.
          const geometry::Point off{center.x - crop / 2.0 + 0.5 * crop_px_nm,
                                    center.y - crop / 2.0 + 0.5 * crop_px_nm};
          r.printed = true;
          for (const geometry::Point& p : best->vertices()) {
            r.contour.push_back({off.x + p.x * crop_px_nm, off.y + p.y * crop_px_nm});
          }
          const geometry::Rect box = best->bounding_box();
          r.cd_width_nm = box.width() * crop_px_nm;
          r.cd_height_nm = box.height() * crop_px_nm;
          r.center_nm = {off.x + box.center().x * crop_px_nm,
                         off.y + box.center().y * crop_px_nm};
        } else {
          r.printed = false;
          r.cd_width_nm = 0.0;
          r.cd_height_nm = 0.0;
          r.center_nm = center;
        }
      }
      stitch_s += timer.elapsed_seconds();
      lane = 0;
    };

    for (const std::uint32_t i : st.idx) {
      const ChipContact& contact = layout_.contacts()[i];
      const geometry::Point center = contact.drawn.center();
      if (owner_tile(center) != tile) continue;
      // Clip-local frame: origin at center - extent/2, target exactly
      // centered — the distribution the model trained on.
      const geometry::Point off{clip_extent / 2.0 - center.x,
                                clip_extent / 2.0 - center.y};
      st.clip.target = contact.drawn.translated(off);
      st.clip.target_opc = contact.opc.translated(off);
      st.clip.neighbors.clear();
      st.clip.neighbors_opc.clear();
      st.clip.srafs.clear();
      const geometry::Rect clip_window{{center.x - clip_extent / 2.0,
                                        center.y - clip_extent / 2.0},
                                       {center.x + clip_extent / 2.0,
                                        center.y + clip_extent / 2.0}};
      layout_.query(clip_window, st.nidx);
      for (const std::uint32_t j : st.nidx) {
        if (j == i) continue;
        st.clip.neighbors.push_back(layout_.contacts()[j].drawn.translated(off));
        st.clip.neighbors_opc.push_back(layout_.contacts()[j].opc.translated(off));
      }
      data::Sample& sample = st.samples[lane];
      data::render_mask_into(st.clip, rc, sample.mask_rgb);
      sample.resist_pixel_nm = crop_px_nm;
      st.lane_contact[lane] = i;
      ++lane;
      if (lane == batch) flush();
    }
    flush();

    sink(tile, std::span<const ContactResult>(results_.data(), n_results));
    tiles_counter().add();
    contacts_counter().add(n_results);
    stitch_histogram().observe(stitch_s * 1000.0);
    ++stats_.tiles_run;
    stats_.contacts_done += n_results;
  }
}

std::size_t ChipPipeline::collect_ring_bytes() const {
  std::size_t bytes = 0;
  for (const GoldenSlot& s : slots_) {
    bytes += s.idx.capacity() * sizeof(std::uint32_t);
    bytes += s.openings.capacity() * sizeof(geometry::Rect);
    bytes += (s.result.latent.values.capacity() + s.result.develop.values.capacity()) *
             sizeof(double);
    for (const geometry::Polygon& c : s.result.contours) {
      bytes += c.vertices().capacity() * sizeof(geometry::Point);
    }
  }
  for (const ContactResult& r : results_) {
    bytes += r.contour.vertices().capacity() * sizeof(geometry::Point);
  }
  return bytes;
}

}  // namespace lithogan::chip
