#include "data/dataset.hpp"

#include <atomic>
#include <fstream>
#include <memory>

#include "geometry/marching_squares.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"

namespace lithogan::data {

Split split_dataset(const Dataset& dataset, double train_fraction, util::Rng& rng) {
  LITHOGAN_REQUIRE(train_fraction > 0.0 && train_fraction < 1.0, "train fraction");
  const auto perm = rng.permutation(dataset.size());
  const auto train_count =
      static_cast<std::size_t>(static_cast<double>(dataset.size()) * train_fraction);
  Split split;
  split.train.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(train_count));
  split.test.assign(perm.begin() + static_cast<std::ptrdiff_t>(train_count), perm.end());
  return split;
}

DatasetBuilder::DatasetBuilder(const litho::ProcessConfig& process, BuildConfig config,
                               util::Rng rng)
    : config_(config),
      sim_(process),
      sraf_(process, config.sraf),
      opc_(config.opc) {
  // Root of the per-clip RNG streams: clip i draws from Rng(base_seed_, i),
  // so its geometry (and its retry sequence) never depends on which worker
  // simulates it or on any other clip.
  const std::uint64_t hi = rng();
  base_seed_ = (hi << 32) | rng();
  if (config_.calibrate) sim_.calibrate_dose();
}

bool DatasetBuilder::build_sample(layout::MaskClip& clip, Sample& out) {
  return build_sample(clip, out, sim_);
}

bool DatasetBuilder::build_sample(layout::MaskClip& clip, Sample& out,
                                  litho::Simulator& sim) {
  sraf_.insert(clip);
  opc_.run_model_based(clip, sim);

  // The sample keeps the aerial, so simulate in stages (Simulator::run
  // forms no aerial and equals these calls byte for byte).
  const litho::FieldGrid aerial = sim.aerial_image(clip.all_openings());
  const auto contours = sim.contours(sim.develop(aerial));
  const auto contour = geometry::contour_at(contours, clip.center());
  const auto golden = render_golden(contour, clip.center(), config_.render);
  if (!golden.printed) return false;

  // Sanity band on the printed CD: outside it the pattern bridged with a
  // neighbor or nearly collapsed, which is a hotspot, not a usable sample.
  const double drawn = sim.process().contact_size_nm;
  const double lo = config_.cd_band_lo * drawn;
  const double hi = config_.cd_band_hi * drawn;
  if (golden.cd_width_nm < lo || golden.cd_width_nm > hi || golden.cd_height_nm < lo ||
      golden.cd_height_nm > hi) {
    return false;
  }

  out.clip_id = clip.id;
  out.array_type = clip.array_type;
  out.mask_rgb = render_mask(clip, config_.render);
  out.aerial = crop_field(aerial, clip.center(), config_.render);
  out.resist = golden.resist;
  out.resist_centered = golden.resist_centered;
  out.center_px = golden.center_px;
  out.cd_width_nm = golden.cd_width_nm;
  out.cd_height_nm = golden.cd_height_nm;
  out.resist_pixel_nm =
      config_.render.crop_window_nm / static_cast<double>(config_.render.resist_size_px);
  return true;
}

Sample DatasetBuilder::build_clip(std::size_t index, litho::Simulator& sim) {
  constexpr layout::ArrayType kCycle[3] = {layout::ArrayType::kIsolated,
                                           layout::ArrayType::kRow,
                                           layout::ArrayType::kGrid};
  // The clip's own generator over its own RNG stream; retries advance the
  // stream, never a shared generator. Each clip also owns a disjoint id
  // block so ids stay unique whatever attempt eventually prints.
  layout::ClipGenerator generator(sim.process(), config_.generator,
                                  util::Rng(base_seed_, index));
  generator.set_next_id(index * (config_.max_retries + 1));

  Sample sample;
  bool ok = false;
  for (std::size_t attempt = 0; attempt <= config_.max_retries && !ok; ++attempt) {
    layout::MaskClip clip = generator.generate(kCycle[index % 3]);
    ok = build_sample(clip, sample, sim);
  }
  LITHOGAN_REQUIRE(ok, "target contact repeatedly failed to print; "
                       "process is miscalibrated");
  return sample;
}

Dataset DatasetBuilder::build() {
  Dataset dataset;
  dataset.process_name = sim_.process().name;
  dataset.render = config_.render;
  dataset.samples.resize(config_.clip_count);

  util::ExecContext* exec = sim_.process().exec;
  if (exec == nullptr || config_.clip_count <= 1) {
    for (std::size_t i = 0; i < config_.clip_count; ++i) {
      const obs::Span span("data.clip");
      dataset.samples[i] = build_clip(i, sim_);
      if ((i + 1) % 50 == 0) {
        util::log_info() << dataset.process_name << " dataset: " << (i + 1) << "/"
                         << config_.clip_count << " clips";
      }
    }
    return dataset;
  }

  // Coarse outer level of the two-level parallel model: whole clips fan out
  // across the pool. Each worker lazily builds one serial-inner Simulator
  // clone of the calibrated sim_ (SRAF/OPC engines are stateless and
  // shared); per-clip RNG streams make every sample byte-identical to the
  // serial loop above regardless of scheduling.
  litho::ProcessConfig serial_process = sim_.process();
  serial_process.exec = nullptr;
  std::vector<std::unique_ptr<litho::Simulator>> sims(exec->threads());
  std::atomic<std::size_t> built{0};
  exec->pool().parallel_for(
      0, config_.clip_count, 1,
      [&](std::size_t b, std::size_t e, std::size_t worker) {
        auto& sim = sims[worker];
        if (!sim) sim = std::make_unique<litho::Simulator>(serial_process);
        for (std::size_t i = b; i < e; ++i) {
          const obs::Span span("data.clip");
          dataset.samples[i] = build_clip(i, *sim);
          const std::size_t done = built.fetch_add(1, std::memory_order_relaxed) + 1;
          if (done % 50 == 0) {
            util::log_info() << dataset.process_name << " dataset: " << done << "/"
                             << config_.clip_count << " clips";
          }
        }
      });
  return dataset;
}

namespace {

constexpr std::uint32_t kMagic = 0x4c474453u;  // "LGDS"
constexpr std::uint32_t kVersion = 1;

// Binary-valued images (masks, resist patterns) pack to one byte per pixel;
// continuous images (aerial crops) keep full float32 precision.
void write_image(std::ostream& os, const image::Image& img, bool binary) {
  util::write_u32(os, static_cast<std::uint32_t>(img.channels()));
  util::write_u32(os, static_cast<std::uint32_t>(img.height()));
  util::write_u32(os, static_cast<std::uint32_t>(img.width()));
  util::write_u32(os, binary ? 1u : 0u);
  if (binary) {
    std::vector<std::uint8_t> bytes(img.data().size());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = img.data()[i] >= 0.5f ? 1 : 0;
    }
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  } else {
    util::write_f32_array(os, img.data().data(), img.data().size());
  }
  if (!os) throw util::IoError("dataset write failed");
}

image::Image read_image(std::istream& is) {
  const std::size_t c = util::read_u32(is);
  const std::size_t h = util::read_u32(is);
  const std::size_t w = util::read_u32(is);
  const std::uint32_t binary = util::read_u32(is);
  LITHOGAN_REQUIRE(c <= 4 && h <= 4096 && w <= 4096, "implausible image dims");
  image::Image img(c, h, w);
  if (binary != 0) {
    std::vector<std::uint8_t> bytes(c * h * w);
    is.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!is) throw util::FormatError("dataset read failed (truncated image)");
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      img.data()[i] = bytes[i] ? 1.0f : 0.0f;
    }
  } else {
    util::read_f32_array(is, img.data().data(), img.data().size());
  }
  return img;
}

}  // namespace

void save_dataset(const Dataset& dataset, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw util::IoError("cannot open for writing: " + path);
  util::write_u32(os, kMagic);
  util::write_u32(os, kVersion);
  util::write_string(os, dataset.process_name);
  util::write_u64(os, dataset.render.mask_size_px);
  util::write_u64(os, dataset.render.resist_size_px);
  util::write_f64(os, dataset.render.crop_window_nm);
  util::write_u64(os, dataset.samples.size());
  for (const Sample& s : dataset.samples) {
    util::write_string(os, s.clip_id);
    util::write_u32(os, static_cast<std::uint32_t>(s.array_type));
    write_image(os, s.mask_rgb, /*binary=*/true);
    write_image(os, s.resist, /*binary=*/true);
    write_image(os, s.resist_centered, /*binary=*/true);
    write_image(os, s.aerial, /*binary=*/false);
    util::write_f64(os, s.center_px.x);
    util::write_f64(os, s.center_px.y);
    util::write_f64(os, s.cd_width_nm);
    util::write_f64(os, s.cd_height_nm);
    util::write_f64(os, s.resist_pixel_nm);
  }
  if (!os) throw util::IoError("dataset write failed: " + path);
}

Dataset load_dataset(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw util::IoError("cannot open for reading: " + path);
  if (util::read_u32(is) != kMagic) throw util::FormatError("not a dataset file: " + path);
  if (util::read_u32(is) != kVersion) throw util::FormatError("unsupported dataset version");
  Dataset dataset;
  dataset.process_name = util::read_string(is);
  dataset.render.mask_size_px = util::read_u64(is);
  dataset.render.resist_size_px = util::read_u64(is);
  dataset.render.crop_window_nm = util::read_f64(is);
  const std::uint64_t count = util::read_u64(is);
  // Guard before the resize: a corrupt count must not trigger a huge
  // allocation (each Sample is hundreds of bytes even before its images).
  if (count > 200000) throw util::FormatError("implausible sample count");
  dataset.samples.resize(count);
  for (Sample& s : dataset.samples) {
    s.clip_id = util::read_string(is);
    s.array_type = static_cast<layout::ArrayType>(util::read_u32(is));
    s.mask_rgb = read_image(is);
    s.resist = read_image(is);
    s.resist_centered = read_image(is);
    s.aerial = read_image(is);
    s.center_px.x = util::read_f64(is);
    s.center_px.y = util::read_f64(is);
    s.cd_width_nm = util::read_f64(is);
    s.cd_height_nm = util::read_f64(is);
    s.resist_pixel_nm = util::read_f64(is);
  }
  return dataset;
}

}  // namespace lithogan::data
