// End-to-end integration: the complete published pipeline on a real
// (simulated) micro dataset — clip synthesis, RET, golden simulation,
// LithoGAN training, prediction, evaluation, checkpointing, and the
// baseline flow — asserting the qualitative relationships that the paper's
// evaluation rests on. Slower than the unit suites (~20 s) but still
// CI-friendly.
#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/flow.hpp"
#include "core/lithogan.hpp"
#include "eval/report.hpp"
#include "util/logging.hpp"

using namespace lithogan;

namespace {

struct Pipeline {
  data::Dataset dataset;
  data::Split split;
  core::LithoGanConfig config;

  Pipeline() {
    util::set_log_level(util::LogLevel::kWarn);
    auto process = litho::ProcessConfig::n10();
    process.grid.pixels = 128;
    process.optical.source_rings = 1;
    process.optical.source_points_per_ring = 8;

    data::BuildConfig bc;
    bc.clip_count = 45;
    bc.render.mask_size_px = 32;
    bc.render.resist_size_px = 32;
    data::DatasetBuilder builder(process, bc, util::Rng(2077));
    dataset = builder.build();

    util::Rng rng(3);
    split = data::split_dataset(dataset, 0.75, rng);

    config = core::LithoGanConfig::tiny();
    config.image_size = 32;
    config.base_channels = 10;
    config.max_channels = 40;
    config.epochs = 16;
    config.center_epochs = 40;
  }
};

const Pipeline& pipeline() {
  static const Pipeline p;
  return p;
}

}  // namespace

TEST(Integration, DatasetIsTrainable) {
  const auto& p = pipeline();
  ASSERT_EQ(p.dataset.size(), 45u);
  ASSERT_GE(p.split.train.size(), 30u);
  // Every sample printed inside the CD sanity band.
  for (const auto& s : p.dataset.samples) {
    EXPECT_GT(s.cd_width_nm, 30.0);
    EXPECT_LT(s.cd_width_nm, 95.0);
  }
}

TEST(Integration, LithoGanLearnsAndGeneralizes) {
  const auto& p = pipeline();
  core::LithoGan model(p.config, core::Mode::kDualLearning);
  const auto curves = model.train(p.dataset, p.split.train);
  // Training made progress.
  EXPECT_LT(curves.back().l1, curves.front().l1 * 0.65);

  eval::MetricAccumulator acc("LithoGAN", "N10",
                              p.dataset.samples[0].resist_pixel_nm);
  for (const std::size_t i : p.split.test) {
    acc.add(p.dataset.samples[i].resist, model.predict(p.dataset.samples[i]));
  }
  const auto report = acc.finalize();
  // Printed-pattern prediction clearly better than chance at this budget.
  EXPECT_GT(report.mean_iou, 0.5);
  EXPECT_GT(report.pixel_accuracy, 0.85);
  EXPECT_LT(report.ede_mean_nm, 20.0);
  EXPECT_EQ(report.invalid_count, 0u);

  // Checkpoint round trip inside the full pipeline.
  const auto dir = std::filesystem::temp_directory_path() / "lithogan_integration";
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "m").string();
  model.save(prefix);
  core::LithoGan restored(p.config, core::Mode::kDualLearning);
  restored.load(prefix);
  std::filesystem::remove_all(dir);
  const auto& sample = p.dataset.samples[p.split.test.front()];
  EXPECT_EQ(model.predict(sample), restored.predict(sample));
}

TEST(Integration, BaselineFlowBeatsChanceToo) {
  const auto& p = pipeline();
  baseline::ThresholdFlow flow(p.config, util::Rng(11));
  flow.train(p.dataset, p.split.train);
  eval::MetricAccumulator acc("Ref12", "N10", p.dataset.samples[0].resist_pixel_nm);
  for (const std::size_t i : p.split.test) {
    acc.add(p.dataset.samples[i].resist, flow.predict(p.dataset.samples[i]));
  }
  const auto report = acc.finalize();
  EXPECT_GT(report.mean_iou, 0.7);  // aerial-informed: strong even untuned
  EXPECT_LT(report.ede_mean_nm, 10.0);
}
