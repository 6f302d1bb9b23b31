// Dataset generation walkthrough — the substrate the paper's Section 3.1
// describes, stage by stage:
//
//   clip synthesis -> SRAF insertion -> OPC -> rigorous simulation ->
//   color-encoded mask image + golden resist crop
//
// Writes a reusable .ds dataset file plus per-stage visualizations for the
// first few clips, so you can inspect exactly what the networks consume.
#include <cstdio>

#include "data/dataset.hpp"
#include "data/statistics.hpp"
#include "geometry/marching_squares.hpp"
#include "image/io.hpp"
#include "math/gemm.hpp"
#include "util/cli.hpp"
#include "util/exec_context.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/obs_cli.hpp"

using namespace lithogan;

namespace {

/// Normalizes a field grid to [0,1] for visualization.
image::Image field_to_image(const litho::FieldGrid& field) {
  image::Image img(1, field.pixels, field.pixels);
  double hi = 1e-12;
  for (const double v : field.values) hi = std::max(hi, v);
  for (std::size_t i = 0; i < field.values.size(); ++i) {
    img.data()[i] = static_cast<float>(std::max(0.0, field.values[i]) / hi);
  }
  return img;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Generate a LithoGAN dataset and stage visualizations.");
  cli.add_flag("node", "N10", "process node: N10 or N7")
      .add_flag("clips", "60", "number of clips")
      .add_flag("image-size", "64", "mask/resist image resolution")
      .add_flag("grid", "128", "simulation grid resolution (power of two)")
      .add_flag("out", "dataset", "output prefix: <out>.ds plus stage images")
      .add_flag("visualize", "3", "clips to dump stage images for")
      .add_flag("threads", "0", "worker threads (0 = all cores, 1 = serial)");
  util::add_obs_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  const util::ObsOptions obs = util::begin_observability(cli);

  litho::ProcessConfig process = cli.get("node") == "N7" ? litho::ProcessConfig::n7()
                                                         : litho::ProcessConfig::n10();
  process.grid.pixels = static_cast<std::size_t>(cli.get_int("grid"));
  // With an ExecContext on the process, DatasetBuilder::build fans whole
  // clips out across the pool (each worker simulating through its own
  // serial-inner clone); the dataset is byte-identical at any --threads.
  util::ExecContext exec(static_cast<std::size_t>(cli.get_int("threads")));
  process.exec = &exec;

  data::BuildConfig build;
  build.clip_count = static_cast<std::size_t>(cli.get_int("clips"));
  build.render.mask_size_px = static_cast<std::size_t>(cli.get_int("image-size"));
  build.render.resist_size_px = build.render.mask_size_px;

  data::DatasetBuilder builder(process, build, util::Rng(2024));

  // Stage-by-stage dump for the first few clips, using the builder's own
  // simulator so the visualization matches the dataset exactly.
  const auto n_vis = static_cast<std::size_t>(cli.get_int("visualize"));
  layout::ClipGenerator generator(process, {}, util::Rng(515151));
  layout::SrafInserter sraf(process, {});
  layout::OpcEngine opc({});
  const std::string prefix = cli.get("out");
  for (std::size_t k = 0; k < n_vis; ++k) {
    layout::MaskClip clip = generator.generate();
    std::printf("clip %zu (%s): %zu neighbors", k,
                layout::to_string(clip.array_type).c_str(), clip.neighbors.size());

    sraf.insert(clip);
    std::printf(", %zu SRAFs", clip.srafs.size());
    opc.run_model_based(clip, builder.simulator());

    litho::Simulator& sim = builder.simulator();
    const litho::FieldGrid aerial = sim.aerial_image(clip.all_openings());
    const auto contours = sim.contours(sim.develop(aerial));
    const auto contour = geometry::contour_at(contours, clip.center());
    const auto cd = litho::measure_cd(contours, clip.center());
    std::printf(", prints %.1f x %.1f nm\n", cd.width_nm, cd.height_nm);

    const std::string base = prefix + "_stage" + std::to_string(k);
    image::write_ppm(base + "_mask.ppm",
                     data::render_mask(clip, build.render));
    image::write_pgm(base + "_aerial.pgm", field_to_image(aerial));
    const auto golden = data::render_golden(contour, clip.center(), build.render);
    image::write_pgm(base + "_golden.pgm", golden.resist);
    std::printf("  wrote %s_{mask.ppm,aerial.pgm,golden.pgm}\n", base.c_str());
  }

  std::printf("building the full dataset (%zu clips)...\n", build.clip_count);
  const data::Dataset dataset = builder.build();
  const std::string ds_path = prefix + ".ds";
  data::save_dataset(dataset, ds_path);
  std::printf("wrote %s (%zu samples, %s, %zux%zu px, %.1f nm/px)\n", ds_path.c_str(),
              dataset.size(), dataset.process_name.c_str(),
              dataset.render.mask_size_px, dataset.render.mask_size_px,
              dataset.samples[0].resist_pixel_nm);
  std::printf("\n%s", data::format_statistics(data::compute_statistics(dataset)).c_str());
  util::finish_observability(obs, math::simd_level());
  return 0;
}
