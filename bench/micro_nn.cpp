// Engineering micro-benchmarks for the neural-network substrate
// (google-benchmark): GEMM, conv forward/backward, the serial conv step,
// generator inference.
// These are not paper experiments; they document the throughput on which
// the Table 4 runtime results stand.
//
// Each benchmark carries a trailing thread-count argument: 0 runs the seed
// serial path (no execution context), N >= 1 runs on an N-thread
// ExecContext. Results are bit-identical across the sweep by construction
// (see tests/determinism_test.cpp); only the wall time should move.
//
// Besides the console table, every run is appended to BENCH_micro_nn.json
// (override the path with LITHOGAN_BENCH_JSON) in the flat
// {op, shape, threads, ns_per_iter, gflops_per_s} schema of bench_json.hpp.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "core/config.hpp"
#include "core/networks.hpp"
#include "math/conv.hpp"
#include "math/gemm.hpp"
#include "nn/conv.hpp"
#include "nn/tensor.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"

using namespace lithogan;

namespace {

/// Thread-count operand -> context. 0 means "no context" (serial seed path).
std::unique_ptr<util::ExecContext> make_exec(std::int64_t threads) {
  if (threads <= 0) return nullptr;
  return std::make_unique<util::ExecContext>(static_cast<std::size_t>(threads));
}

void set_thread_counters(benchmark::State& state) {
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(std::max<std::int64_t>(1, state.range(1))));
}

/// Per-iteration FLOP count, read back by the JSON reporter to derive GF/s.
/// Counts GEMM multiply-adds only (input-copy/bias traffic excluded), so the
/// number is comparable across kernel generations.
void set_flops_counter(benchmark::State& state, double flops_per_iter) {
  state.counters["flops"] = benchmark::Counter(flops_per_iter);
}

}  // namespace

static void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto exec = make_exec(state.range(1));
  util::Rng rng(1);
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  std::vector<float> c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    math::gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data(), exec.get());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
  set_thread_counters(state);
  set_flops_counter(state, 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                               static_cast<double>(n));
}
BENCHMARK(BM_Gemm)->ArgsProduct({{64, 128, 256}, {0, 1, 2, 4, 8}});

static void BM_Conv2dForward(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto exec = make_exec(state.range(1));
  util::Rng rng(2);
  nn::Conv2d conv(16, 32, 5, 2, 2, rng);
  conv.set_exec_context(exec.get());
  // Batch of 4 so the batch-parallel path (one sample per task, per-thread
  // phase-plane workspaces) is what the sweep exercises.
  const auto x = nn::Tensor::randn({4, 16, size, size}, rng);
  for (auto _ : state) {
    auto y = conv.forward(x);
    benchmark::DoNotOptimize(y.raw());
  }
  set_thread_counters(state);
  // 4 samples x (out_ch x out_plane x in_ch*k*k) multiply-adds.
  const double cols = static_cast<double>(math::conv_out_size(size, 5, 2, 2));
  set_flops_counter(state, 4.0 * 2.0 * 32.0 * cols * cols * (16.0 * 25.0));
}
BENCHMARK(BM_Conv2dForward)->ArgsProduct({{32, 64}, {0, 1, 2, 4, 8}});

static void BM_Conv2dBackward(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto exec = make_exec(state.range(1));
  util::Rng rng(3);
  nn::Conv2d conv(16, 32, 5, 2, 2, rng);
  conv.set_exec_context(exec.get());
  const auto x = nn::Tensor::randn({4, 16, size, size}, rng);
  const auto y = conv.forward(x);
  const auto g = nn::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    auto gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.raw());
  }
  set_thread_counters(state);
  // Weight-gradient and data-gradient GEMMs each match the forward GEMM's
  // FLOP count.
  const double cols = static_cast<double>(math::conv_out_size(size, 5, 2, 2));
  set_flops_counter(state, 2.0 * 4.0 * 2.0 * 32.0 * cols * cols * (16.0 * 25.0));
}
BENCHMARK(BM_Conv2dBackward)->ArgsProduct({{32, 64}, {0, 1, 2, 4, 8}});

static void BM_DeconvForward(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto exec = make_exec(state.range(1));
  util::Rng rng(4);
  nn::ConvTranspose2d deconv(32, 16, 5, 2, 2, 1, rng);
  deconv.set_exec_context(exec.get());
  const auto x = nn::Tensor::randn({4, 32, size, size}, rng);
  for (auto _ : state) {
    auto y = deconv.forward(x);
    benchmark::DoNotOptimize(y.raw());
  }
  set_thread_counters(state);
  // Col = W^T X per sample: (out_ch*k*k) x (in_h*in_w) x in_ch.
  const double cols = static_cast<double>(size) * static_cast<double>(size);
  set_flops_counter(state, 4.0 * 2.0 * (16.0 * 25.0) * cols * 32.0);
}
BENCHMARK(BM_DeconvForward)->ArgsProduct({{16, 32}, {0, 1, 2, 4, 8}});

static void BM_ConvForward(benchmark::State& state) {
  // One sample through conv2d_forward with prepacked weights and no
  // epilogue, run serially: the InferencePlan conv step, phase-plane copy
  // plus implicit GEMM. Operands: in channels, input size, out channels,
  // kernel, stride, pad, then the thread operand (always 0).
  const auto in_c = static_cast<std::size_t>(state.range(0));
  const auto size = static_cast<std::size_t>(state.range(1));
  const auto out_c = static_cast<std::size_t>(state.range(2));
  const auto kernel = static_cast<std::size_t>(state.range(3));
  const auto stride = static_cast<std::size_t>(state.range(4));
  const auto pad = static_cast<std::size_t>(state.range(5));
  util::Rng rng(7);
  std::vector<float> src(in_c * size * size);
  for (auto& v : src) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> weights(out_c * in_c * kernel * kernel);
  for (auto& v : weights) v = static_cast<float>(rng.uniform(-1, 1));
  const auto plan = math::conv_plan(
      {math::ConvDir::kConv, in_c, size, size, out_c, kernel, stride, pad, 0});
  const std::vector<float> packed = math::pack_conv_weights(*plan, weights.data());
  std::vector<float> dst(out_c * plan->cols);
  util::Workspace ws;
  for (auto _ : state) {
    math::conv2d_forward(*plan, 1, src.data(), nullptr, packed.data(), {}, dst.data(),
                         nullptr, ws);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.counters["threads"] = benchmark::Counter(1.0);
  set_flops_counter(state, 2.0 * static_cast<double>(out_c * plan->cols * plan->rows));
}
// The lite center CNN's first conv, then generator L0, L1 and L4.
BENCHMARK(BM_ConvForward)
    ->Args({3, 64, 8, 7, 1, 3, 0})
    ->Args({3, 64, 16, 5, 2, 2, 0})
    ->Args({16, 32, 32, 5, 2, 2, 0})
    ->Args({128, 4, 128, 5, 2, 2, 0});

static void BM_GeneratorInference(benchmark::State& state) {
  // The lite-scale generator used by the experiment harnesses.
  core::LithoGanConfig cfg = core::LithoGanConfig::tiny();
  cfg.image_size = 32;
  cfg.base_channels = 12;
  cfg.max_channels = 48;
  const auto exec = make_exec(state.range(0));
  util::Rng rng(5);
  auto gen = core::build_generator(cfg, rng);
  gen->set_training(false);
  gen->set_exec_context(exec.get());
  const auto x = nn::Tensor::randn({1, 3, 32, 32}, rng);
  for (auto _ : state) {
    auto y = gen->forward(x);
    benchmark::DoNotOptimize(y.raw());
  }
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(std::max<std::int64_t>(1, state.range(0))));
}
BENCHMARK(BM_GeneratorInference)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void BM_PaperScaleGeneratorLayer(benchmark::State& state) {
  // One paper-scale encoder layer (the 256x256 -> 128x128, 3 -> 64 conv):
  // documents what full-scale inference would cost on this machine.
  const auto exec = make_exec(state.range(0));
  util::Rng rng(6);
  nn::Conv2d conv(3, 64, 5, 2, 2, rng);
  conv.set_exec_context(exec.get());
  const auto x = nn::Tensor::randn({1, 3, 256, 256}, rng);
  for (auto _ : state) {
    auto y = conv.forward(x);
    benchmark::DoNotOptimize(y.raw());
  }
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(std::max<std::int64_t>(1, state.range(0))));
  const double cols = static_cast<double>(math::conv_out_size(256, 5, 2, 2));
  set_flops_counter(state, 2.0 * 64.0 * cols * cols * (3.0 * 25.0));
}
BENCHMARK(BM_PaperScaleGeneratorLayer)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

namespace {

/// Console output as usual, plus a BenchRecord per run for the JSON dump.
/// The run name "BM_Op/shape.../threads" is split so `shape` holds the
/// middle operands and `threads` comes from the explicit counter.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations == 0) continue;
      bench::BenchRecord rec;
      std::string name = run.benchmark_name();
      const std::size_t slash = name.find('/');
      rec.op = name.substr(0, slash);
      if (rec.op.rfind("BM_", 0) == 0) rec.op = rec.op.substr(3);
      if (slash != std::string::npos) {
        std::string operands = name.substr(slash + 1);
        // The trailing operand is the thread count, reported separately.
        const std::size_t last = operands.rfind('/');
        rec.shape = last == std::string::npos ? "" : operands.substr(0, last);
      }
      if (rec.shape.empty()) rec.shape = "-";
      const auto threads_it = run.counters.find("threads");
      rec.threads = threads_it == run.counters.end()
                        ? 1
                        : static_cast<std::size_t>(threads_it->second.value);
      const double sec_per_iter =
          run.real_accumulated_time / static_cast<double>(run.iterations);
      rec.ns_per_iter = sec_per_iter * 1e9;
      const auto flops_it = run.counters.find("flops");
      if (flops_it != run.counters.end() && sec_per_iter > 0.0) {
        rec.gflops_per_s = flops_it->second.value / sec_per_iter / 1e9;
      }
      records.push_back(std::move(rec));
    }
  }

  std::vector<bench::BenchRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* path = std::getenv("LITHOGAN_BENCH_JSON");
  bench::write_bench_json(path != nullptr ? path : "BENCH_micro_nn.json",
                          reporter.records);
  benchmark::Shutdown();
  return 0;
}
