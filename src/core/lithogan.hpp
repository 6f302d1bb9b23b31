// The LithoGAN framework (Sec. 3.3, Fig. 5): end-to-end lithography
// modeling from mask image to resist image.
//
// Two operating modes reproduce the paper's comparison:
//   * kPlainCgan   — the "CGAN" row: one network predicts the resist
//     pattern at its true location;
//   * kDualLearning — the "LithoGAN" row: the CGAN predicts the re-centered
//     shape while a CNN predicts the center, and the final output shifts
//     the shape to the predicted center (pre/post-adjustment in Fig. 5).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/center.hpp"
#include "core/config.hpp"
#include "core/gan.hpp"
#include "data/dataset.hpp"
#include "data/render.hpp"
#include "image/image.hpp"
#include "nn/infer.hpp"

namespace lithogan::core {

enum class GeneratorArch { kEncoderDecoder, kUNet };
enum class DiscriminatorArch { kGlobalFc, kPatch };
enum class Mode { kPlainCgan, kDualLearning };

/// Caller-owned scratch for predict_batch_into. Cycling one scratch through
/// repeated calls keeps the whole mask-assembly / shape-extraction /
/// re-centering chain allocation-free once buffers reach steady state —
/// the serving scheduler's dispatch loop depends on this.
struct PredictScratch {
  nn::Tensor masks;              ///< gathered (N, C, H, W) input batch
  image::Image shape;            ///< per-sample raw generator shape
  data::RecenterScratch recenter;  ///< threshold mask + labeling buffers
};

class LithoGan {
 public:
  LithoGan(const LithoGanConfig& config, Mode mode,
           GeneratorArch arch = GeneratorArch::kEncoderDecoder,
           DiscriminatorArch disc = DiscriminatorArch::kGlobalFc);

  /// Called after every epoch; gives benches their Figure 8/9 hooks.
  using EpochCallback = std::function<void(const GanEpochLosses&, LithoGan&)>;

  /// Trains the CGAN (and, in dual mode, the center CNN) on `train`
  /// indices. Returns per-epoch loss curves (Figure 9).
  std::vector<GanEpochLosses> train(const data::Dataset& dataset,
                                    const std::vector<std::size_t>& train,
                                    const EpochCallback& callback = nullptr);

  /// Full inference: mask image -> final resist image (values ~ {0,1}).
  /// In dual mode the shape is re-centered at the CNN-predicted center.
  /// Delegates to predict_batch on a single-sample span.
  image::Image predict(const data::Sample& sample);

  /// Batched inference over a run of samples, one result per sample. Runs
  /// through cached InferencePlans (prepacked weights, static activation
  /// arena, fused epilogues); output is bit-identical to predict() on each
  /// sample. Plans are compiled lazily on first use and recompiled after
  /// any weight change (train / load).
  std::vector<image::Image> predict_batch(std::span<const data::Sample> samples);

  /// Gathered, allocation-free variant: `samples` are pointers (the serving
  /// scheduler batches non-contiguous requests) and each result is written
  /// into `*outputs[i]` (resized in place; reusing warm images allocates
  /// nothing). Byte-identical to predict_batch on the same clips. Not
  /// thread-safe — the serving layer calls it from its single scheduler
  /// thread only.
  void predict_batch_into(std::span<const data::Sample* const> samples,
                          std::span<image::Image* const> outputs,
                          PredictScratch& scratch);

  /// Compiles the serving plans (if not built yet) and returns the precision
  /// they run at, which is always "f32". Servers and benches call it during
  /// setup so plan compilation is paid before the first request.
  const char* serving_precision();

  /// The raw generator output for a (1, C, H, W) mask tensor in [-1, 1],
  /// without the center adjustment.
  nn::Tensor predict_shape(const nn::Tensor& mask);

  /// Predicted pattern center (pixels). Dual mode: the CNN; plain mode:
  /// the center of the generated pattern itself.
  geometry::Point predict_center(const data::Sample& sample);

  /// Checkpointing: writes <prefix>.gen.bin, <prefix>.dis.bin and (dual
  /// mode) <prefix>.cnn.bin.
  void save(const std::string& prefix) const;
  void load(const std::string& prefix);

  Mode mode() const { return mode_; }
  const LithoGanConfig& config() const { return config_; }
  CganTrainer& cgan() { return *cgan_; }
  CenterPredictor& center() { return *center_; }

 private:
  LithoGanConfig config_;
  Mode mode_;
  GeneratorArch arch_;
  DiscriminatorArch disc_;
  util::Rng rng_;
  std::unique_ptr<CganTrainer> cgan_;
  std::unique_ptr<CenterPredictor> center_;

  // Serving plans, compiled from the current weights on demand.
  nn::InferencePlan gen_plan_;
  nn::InferencePlan cnn_plan_;
  bool plans_built_ = false;

  std::string gan_tag() const;
  void ensure_plans();
};

}  // namespace lithogan::core
