#include "core/lithogan.hpp"

#include <algorithm>
#include <utility>

#include "core/networks.hpp"
#include "data/batch.hpp"
#include "data/render.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace lithogan::core {

namespace {
/// Samples per InferencePlan invocation: bounds the activation arena (it
/// scales linearly with batch) while keeping per-batch dispatch overhead
/// negligible.
constexpr std::size_t kMaxInferBatch = 64;
}  // namespace

LithoGan::LithoGan(const LithoGanConfig& config, Mode mode, GeneratorArch arch,
                   DiscriminatorArch disc)
    : config_(config), mode_(mode), arch_(arch), disc_(disc), rng_(config.seed) {
  config_.validate();
  std::unique_ptr<nn::Module> generator;
  if (arch == GeneratorArch::kEncoderDecoder) {
    generator = build_generator(config_, rng_);
  } else {
    generator = std::make_unique<UNetGenerator>(config_, rng_);
  }
  std::unique_ptr<nn::Module> discriminator =
      disc == DiscriminatorArch::kGlobalFc ? build_discriminator(config_, rng_)
                                           : build_patch_discriminator(config_, rng_);
  generator->set_exec_context(config_.exec);
  discriminator->set_exec_context(config_.exec);
  cgan_ = std::make_unique<CganTrainer>(config_, std::move(generator),
                                        std::move(discriminator));
  if (mode_ == Mode::kDualLearning) {
    center_ = std::make_unique<CenterPredictor>(config_, rng_);
  }
}

std::vector<GanEpochLosses> LithoGan::train(const data::Dataset& dataset,
                                            const std::vector<std::size_t>& train,
                                            const EpochCallback& callback) {
  LITHOGAN_REQUIRE(!train.empty(), "empty training set");
  LITHOGAN_REQUIRE(dataset.render.resist_size_px == config_.image_size &&
                       dataset.render.mask_size_px == config_.image_size,
                   "dataset resolution does not match the model configuration");
  // Dual learning trains the CGAN on re-centered shapes (Sec. 3.3).
  const bool centered = mode_ == Mode::kDualLearning;

  std::vector<GanEpochLosses> curves;
  curves.reserve(config_.epochs);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const obs::Span epoch_span("train.epoch");
    const auto order = rng_.permutation(train.size());
    GanEpochLosses acc;
    acc.epoch = epoch + 1;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < train.size(); start += config_.batch_size) {
      std::vector<std::size_t> batch;
      for (std::size_t k = start; k < std::min(start + config_.batch_size, train.size());
           ++k) {
        batch.push_back(train[order[k]]);
      }
      const nn::Tensor x = data::batch_masks(dataset, batch, config_.exec);
      const nn::Tensor y = data::batch_resists(dataset, batch, centered, config_.exec);
      const GanStepLosses step = cgan_->train_step(x, y);
      acc.discriminator += step.d_loss;
      acc.generator += step.g_adv_loss +
                       static_cast<double>(config_.lambda_l1) * step.g_l1_loss;
      acc.l1 += step.g_l1_loss;
      ++batches;
    }
    acc.discriminator /= static_cast<double>(batches);
    acc.generator /= static_cast<double>(batches);
    acc.l1 /= static_cast<double>(batches);
    curves.push_back(acc);
    util::log_info() << "epoch " << acc.epoch << "/" << config_.epochs
                     << " G=" << acc.generator << " D=" << acc.discriminator
                     << " l1=" << acc.l1;
    // The epoch's updates invalidated any compiled serving plans (weights
    // are snapshot at plan build); the callback may call predict().
    plans_built_ = false;
    if (callback) callback(acc, *this);
  }

  if (mode_ == Mode::kDualLearning) {
    util::Rng cnn_rng = rng_.split();
    const double mse = center_->train(dataset, train, cnn_rng);
    util::log_info() << "center CNN final mse " << mse;
  }
  plans_built_ = false;
  return curves;
}

void LithoGan::ensure_plans() {
  if (plans_built_) return;
  const std::vector<std::size_t> mask_shape{config_.mask_channels, config_.image_size,
                                            config_.image_size};
  gen_plan_ = nn::InferencePlan();
  if (arch_ == GeneratorArch::kEncoderDecoder) {
    gen_plan_.compile(static_cast<nn::Sequential&>(cgan_->generator()), mask_shape);
  } else {
    static_cast<UNetGenerator&>(cgan_->generator()).build_plan(gen_plan_, mask_shape);
  }
  gen_plan_.set_exec_context(config_.exec);

  if (mode_ == Mode::kDualLearning) {
    cnn_plan_ = nn::InferencePlan();
    cnn_plan_.compile(center_->network(), mask_shape);
    cnn_plan_.set_exec_context(config_.exec);
  }
  plans_built_ = true;
}

const char* LithoGan::serving_precision() {
  ensure_plans();
  return "f32";
}

std::vector<image::Image> LithoGan::predict_batch(
    std::span<const data::Sample> samples) {
  LITHOGAN_REQUIRE(!samples.empty(), "empty prediction batch");
  std::vector<image::Image> out(samples.size());
  std::vector<const data::Sample*> sample_ptrs(samples.size());
  std::vector<image::Image*> out_ptrs(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    sample_ptrs[i] = &samples[i];
    out_ptrs[i] = &out[i];
  }
  PredictScratch scratch;
  predict_batch_into(sample_ptrs, out_ptrs, scratch);
  return out;
}

void LithoGan::predict_batch_into(std::span<const data::Sample* const> samples,
                                  std::span<image::Image* const> outputs,
                                  PredictScratch& scratch) {
  LITHOGAN_REQUIRE(!samples.empty(), "empty prediction batch");
  LITHOGAN_REQUIRE(samples.size() == outputs.size(),
                   "predict_batch_into outputs/samples size mismatch");
  ensure_plans();
  static obs::Counter& clips = obs::Registry::global().counter("infer.clips");
  obs::Span span("infer.batch");
  span.arg("clips", static_cast<double>(samples.size()));

  for (std::size_t start = 0; start < samples.size(); start += kMaxInferBatch) {
    const auto chunk =
        samples.subspan(start, std::min(kMaxInferBatch, samples.size() - start));
    data::batch_masks_into(chunk, scratch.masks, config_.exec);
    const nn::Tensor& shapes = gen_plan_.infer(scratch.masks);
    if (mode_ == Mode::kDualLearning) {
      const nn::Tensor& centers = cnn_plan_.infer(scratch.masks);
      for (std::size_t n = 0; n < chunk.size(); ++n) {
        // Post-adjustment (Fig. 5): shift each shape to its CNN center.
        const geometry::Point center = data::denormalize_center(
            centers, n, config_.image_size, config_.image_size);
        data::tensor_to_resist_image_into(shapes, n, scratch.shape);
        data::recenter_into(scratch.shape, center, *outputs[start + n],
                            scratch.recenter);
      }
    } else {
      for (std::size_t n = 0; n < chunk.size(); ++n) {
        data::tensor_to_resist_image_into(shapes, n, *outputs[start + n]);
      }
    }
  }
  clips.add(samples.size());
}

nn::Tensor LithoGan::predict_shape(const nn::Tensor& mask) {
  return cgan_->predict(mask);
}

geometry::Point LithoGan::predict_center(const data::Sample& sample) {
  const nn::Tensor mask = data::image_to_tensor(sample.mask_rgb);
  if (mode_ == Mode::kDualLearning) {
    return center_->predict(mask, config_.image_size);
  }
  const image::Image shape = data::tensor_to_resist_image(predict_shape(mask));
  return data::pattern_center(shape);
}

image::Image LithoGan::predict(const data::Sample& sample) {
  return std::move(predict_batch(std::span<const data::Sample>(&sample, 1)).front());
}

std::string LithoGan::gan_tag() const {
  return config_.arch_tag() + (arch_ == GeneratorArch::kUNet ? ":unet" : ":encdec") +
         (disc_ == DiscriminatorArch::kPatch ? ":patchD" : "");
}

void LithoGan::save(const std::string& prefix) const {
  const CganTrainer& cgan = *cgan_;
  nn::save_module(cgan.generator(), gan_tag() + ":G", prefix + ".gen.bin");
  nn::save_module(cgan.discriminator(), gan_tag() + ":D", prefix + ".dis.bin");
  if (mode_ == Mode::kDualLearning) {
    nn::save_module(center_->network(), gan_tag() + ":CNN", prefix + ".cnn.bin");
  }
}

void LithoGan::load(const std::string& prefix) {
  nn::load_module(cgan_->generator(), gan_tag() + ":G", prefix + ".gen.bin");
  nn::load_module(cgan_->discriminator(), gan_tag() + ":D", prefix + ".dis.bin");
  if (mode_ == Mode::kDualLearning) {
    nn::load_module(center_->network(), gan_tag() + ":CNN", prefix + ".cnn.bin");
  }
  plans_built_ = false;
}

}  // namespace lithogan::core
