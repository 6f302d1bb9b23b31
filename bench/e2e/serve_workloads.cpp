// serve_low and serve_high: serve::Server under an open-loop client.
//
// Set-up builds the model, renders a seeded chip layout's contacts into a
// clip pool and starts the server. Every clip's reference output then comes
// from a direct batch-1 predict, and a few warm-up requests go through the
// server. The client is one producer that submits on a seeded schedule
// whatever the server does, and one waiter that claims tickets in order.
// Each request is timed from when it was due, so a stall also charges the
// requests queued behind it, and every response is compared byte for byte
// with its clip's reference.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chip/layout.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/render.hpp"
#include "litho/process.hpp"
#include "lithobench.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace lithobench {
namespace {

using namespace lithogan;

// Fixed offered rates, never derived from a measured rate: a faster build
// must face the same traffic. serve_low keeps batches near 1 (the T trigger
// and per-call cost set latency); serve_high offers about twice what the
// server can take, so the queue stays full, every batch holds B requests and
// completions measure saturated throughput.
constexpr double kLowRate = 100.0;
constexpr double kOverloadRate = 800.0;
constexpr double kPoolChipNm = 8192.0;  // 256 contacts -> 256 clips
constexpr double kSmokePoolChipNm = 2048.0;
// A run whose generator sent its p99 request later than this is marked
// invalid: its latencies measure the client as much as the server.
constexpr double kMaxLagP99Ms = 5.0;
constexpr std::size_t kWarmRequests = 16;
constexpr std::size_t kRateWindow = 256;  // completions per saturated-rate sample
constexpr std::size_t kRateStride = 16;   // = max_batch
// Requests due and rate windows starting before this are left out:
// serve_high's queue is still filling then.
constexpr double kFillS = 2.0;
// How much of the host clock's slowdown the serve times show (see
// HostClock), fitted over ten runs (README.md); the chip learned path runs
// the same inference and shows as much.
constexpr double kElasticity = 0.8;
constexpr std::size_t kSchedulerCpu = 2;

serve::Config server_config() {
  serve::Config config;
  config.max_batch = 16;
  config.max_wait_us = 2000;
  config.queue_capacity = 256;
  return config;
}

bool same_image(const image::Image& a, const image::Image& b) {
  return a.channels() == b.channels() && a.height() == b.height() &&
         a.width() == b.width() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) == 0;
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return seconds_between(from, to) * 1e3;
}

/// Ids of this process's threads.
std::vector<int> thread_ids() {
  std::vector<int> ids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ids.push_back(std::stoi(entry.path().filename().string()));
  }
  return ids;
}

/// CPU time thread `tid` of this process has used so far, seconds: the first
/// field of its schedstat, in nanoseconds.
double thread_cpu_seconds(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  double ns = 0.0;
  in >> ns;
  return ns * 1e-9;
}

struct ServeState {
  std::unique_ptr<core::LithoGan> model;
  std::vector<data::Sample> clips;
  std::vector<image::Image> reference;  // per clip, from a direct batch-1 predict
  std::unique_ptr<serve::Server> server;
  int scheduler_tid = -1;  // the server's scheduler thread
};

/// Renders contact `i`'s clip in the frame the chip pipeline's learned path
/// feeds the model.
data::Sample render_clip(const chip::ChipLayout& layout, std::uint32_t i,
                         const litho::ProcessConfig& process,
                         const data::RenderConfig& rc) {
  Spans untraced(false);  // set-up work: no spans
  std::vector<std::uint32_t> near;
  layout::MaskClip clip;
  contact_clip(layout, i, process.grid.extent_nm, untraced, near, clip);
  data::Sample sample;
  sample.clip_id = "clip-" + std::to_string(i);
  sample.resist_pixel_nm = rc.crop_window_nm / static_cast<double>(rc.resist_size_px);
  sample.mask_rgb = data::render_mask(clip, rc);
  return sample;
}

/// What a user of the server pays before the first timed request: the model
/// and its plans, the server with its scheduler, and a warm-up, plus the
/// clip pool the client sends and each clip's reference, computed with a
/// direct batch-1 predict while the server idles. The warm-up requests go
/// through the server and are checked against their references. All of it
/// runs on the scheduler's CPU, the one the host clock samples.
std::unique_ptr<ServeState> set_up(const Options& options, Result& result) {
  pin_to(kSchedulerCpu);  // the scheduler thread inherits this CPU too
  auto s = std::make_unique<ServeState>();
  s->model = std::make_unique<core::LithoGan>(core::LithoGanConfig::lite(),
                                              core::Mode::kDualLearning);
  const litho::ProcessConfig process = litho::ProcessConfig::n10();
  chip::ChipConfig chip_cfg;
  chip_cfg.seed = options.seed;
  chip_cfg.chip_nm = options.smoke ? kSmokePoolChipNm : kPoolChipNm;
  const chip::ChipLayout layout(process, chip_cfg);
  data::RenderConfig rc;
  rc.mask_size_px = s->model->config().image_size;
  rc.resist_size_px = rc.mask_size_px;
  rc.crop_window_nm = process.crop_window_nm;
  for (std::uint32_t i = 0; i < layout.contacts().size(); ++i) {
    s->clips.push_back(render_clip(layout, i, process, rc));
  }
  const std::vector<int> before = thread_ids();
  s->server = std::make_unique<serve::Server>(*s->model, server_config());
  for (const int tid : thread_ids()) {  // the one thread the server started
    if (std::find(before.begin(), before.end(), tid) == before.end()) s->scheduler_tid = tid;
  }
  if (s->scheduler_tid < 0) result.fail("cannot find the server's scheduler thread");

  core::PredictScratch scratch;
  s->reference.resize(s->clips.size());
  for (std::size_t i = 0; i < s->clips.size(); ++i) {
    const data::Sample* in = &s->clips[i];
    image::Image* out = &s->reference[i];
    s->model->predict_batch_into(std::span<const data::Sample* const>(&in, 1),
                                 std::span<image::Image* const>(&out, 1), scratch);
  }
  for (std::size_t i = 0; i < kWarmRequests; ++i) {
    const std::size_t clip = i % s->clips.size();
    if (!same_image(s->server->wait(s->server->submit(s->clips[clip])).resist,
                    s->reference[clip])) {
      result.fail("warm-up response differs from its reference");
    }
  }
  pin_to(0);  // the producer
  return s;
}

/// What one open-loop phase saw.
struct Phase {
  Clock::time_point start;
  Clock::time_point last_done;
  double fill_s = 0.0;  // requests due and windows starting earlier are left out
  std::uint64_t offered = 0;
  // Written by the producer only.
  std::vector<double> lag_ms;
  std::uint64_t rejected = 0;
  std::uint64_t submit_errors = 0;
  // Written by the waiter only, one entry per completion.
  std::vector<double> latency_ms;
  std::vector<double> due_s;   // due times since start
  std::vector<double> done_s;  // completion times since start
  std::vector<double> busy_s;  // the scheduler thread's CPU time at completion
  std::uint64_t completed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t wait_errors = 0;

  Clock::time_point at(double seconds_since_start) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds_since_start));
  }
  /// Completions per second of `time_s` (done_s or busy_s) over each window
  /// of kRateWindow consecutive completions, one window starting every
  /// batch: as measured and adjusted by the host clock over the window.
  /// A run with fewer completions (a smoke run) is one window.
  void window_rates(const std::vector<double>& time_s, const HostClock& clock,
                    std::vector<double>& raw, std::vector<double>& adjusted) const {
    const std::size_t n = done_s.empty() ? 0 : std::min(kRateWindow, done_s.size() - 1);
    for (std::size_t i = 0; n > 0 && i + n < done_s.size(); i += kRateStride) {
      if (done_s[i] < fill_s) continue;
      raw.push_back(static_cast<double>(n) / (time_s[i + n] - time_s[i]));
      adjusted.push_back(raw.back() * clock.factor(at(done_s[i]), at(done_s[i + n]), kElasticity));
    }
  }
  /// Latency of each request due after the fill: wall and adjusted by the
  /// host clock from its due time to its completion.
  void latencies_ms(const HostClock& clock, std::vector<double>& raw,
                    std::vector<double>& adjusted) const {
    for (std::size_t i = 0; i < due_s.size(); ++i) {
      if (due_s[i] < fill_s) continue;
      raw.push_back(latency_ms[i]);
      adjusted.push_back(latency_ms[i] /
                         clock.factor(at(due_s[i]), at(done_s[i]), kElasticity));
    }
  }
};

/// One open-loop phase: rate x duration arrivals at seeded uniform times
/// (a Poisson process conditioned on its count, so every seed offers the
/// same load), each for a seeded random clip of the pool.
Phase run_phase(ServeState& s, double rate, double duration_s, util::Rng& rng,
                Spans& spans) {
  const auto count = static_cast<std::size_t>(std::llround(rate * duration_s));
  std::vector<double> due(count);
  for (double& d : due) d = rng.uniform(0.0, duration_s);
  std::sort(due.begin(), due.end());
  std::vector<std::uint32_t> clip(count);
  const auto last_clip = static_cast<std::int64_t>(s.clips.size()) - 1;
  for (std::uint32_t& c : clip) {
    c = static_cast<std::uint32_t>(rng.uniform_int(0, last_clip));
  }

  struct Pending {
    serve::Ticket ticket;
    std::uint32_t clip = 0;
    Clock::time_point due;
    std::int64_t span = Spans::kNone;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> pending;  // guarded by mutex
  bool producing = true;        // guarded by mutex

  Phase p;
  p.fill_s = duration_s > 4.0 * kFillS ? kFillS : 0.0;  // smoke runs keep all
  p.offered = count;
  p.lag_ms.reserve(count);
  p.latency_ms.reserve(count);
  p.due_s.reserve(count);
  p.done_s.reserve(count);
  p.busy_s.reserve(count);
  p.start = Clock::now() + std::chrono::milliseconds(1);
  p.last_done = p.start;

  std::thread waiter([&] {
    pin_to(1);
    for (;;) {
      Pending r;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !pending.empty() || !producing; });
        if (pending.empty()) return;
        r = pending.front();
        pending.pop_front();
      }
      const std::int64_t w =
          spans.open("client.wait", Clock::now(), r.span, r.ticket.gen);
      try {
        const serve::Response response = s.server->wait(r.ticket);
        const Clock::time_point done = Clock::now();
        spans.close(w, done);
        spans.close(r.span, done);
        p.latency_ms.push_back(ms_between(r.due, done));
        p.due_s.push_back(seconds_between(p.start, r.due));
        p.done_s.push_back(seconds_between(p.start, done));
        p.busy_s.push_back(thread_cpu_seconds(s.scheduler_tid));
        p.last_done = done;
        ++p.completed;
        if (!same_image(response.resist, s.reference[r.clip])) ++p.mismatched;
      } catch (const std::exception&) {
        ++p.wait_errors;
      }
    }
  });

  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point due_at =
        p.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(due_at);
    const Clock::time_point sent = Clock::now();
    p.lag_ms.push_back(ms_between(due_at, sent));
    std::optional<serve::Ticket> ticket;
    try {
      ticket = s.server->try_submit(s.clips[clip[i]]);
    } catch (const std::exception&) {
      ++p.submit_errors;
      continue;
    }
    if (!ticket) {
      ++p.rejected;
      continue;
    }
    const std::int64_t request =
        spans.open("client.request", due_at, Spans::kNone, ticket->gen);
    spans.close(spans.open("client.submit", sent, request, ticket->gen), Clock::now());
    {
      const std::lock_guard<std::mutex> lock(mutex);
      pending.push_back({*ticket, clip[i], due_at, request});
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    producing = false;
  }
  cv.notify_all();
  waiter.join();
  return p;
}

/// Delta of one serve histogram between two registry snapshots.
struct HistDelta {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;
  std::uint64_t count = 0;

  double quantile(double q) const { return obs::bucket_quantile(bounds, counts, q); }
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

HistDelta hist_delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const std::string& name) {
  HistDelta d;
  for (const auto& h : after.histograms) {
    if (h.name != name) continue;
    d.bounds = h.bounds;
    d.counts = h.counts;
    d.sum = h.sum;
    d.count = h.count;
  }
  for (const auto& h : before.histograms) {
    if (h.name != name || h.counts.size() != d.counts.size()) continue;
    for (std::size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= h.counts[i];
    d.sum -= h.sum;
    d.count -= h.count;
  }
  return d;
}

/// Direct predict_batch_into replays at batch 1, 4 and 16 on the clip pool,
/// with the server stopped: the model's per-call cost without queueing.
void predict_replays(const Options& options, ServeState& s, Result& result,
                     Spans& spans) {
  const std::uint64_t flops_before = counter("gemm.flops");
  const std::size_t since = spans.mark();
  core::PredictScratch scratch;
  std::vector<image::Image> outputs(16);
  std::vector<image::Image*> output_ptrs;
  for (image::Image& o : outputs) output_ptrs.push_back(&o);
  std::vector<const data::Sample*> inputs(16);
  std::vector<std::size_t> input_clip(16);
  double predict_s = 0.0;
  std::size_t next = 0;
  struct Replay {
    std::size_t batch;
    const char* span;  // span names must outlive the recorder
    const char* metric;
  };
  constexpr Replay kReplays[] = {{1, "core.predict.b1", "core.predict_ms.b1"},
                                 {4, "core.predict.b4", "core.predict_ms.b4"},
                                 {16, "core.predict.b16", "core.predict_ms.b16"}};
  for (const Replay& replay : kReplays) {
    const std::size_t batch = replay.batch;
    const int reps = options.smoke ? 2 : static_cast<int>(256 / batch);
    const Scoped replay_span(spans, "replay");
    for (int r = 0; r < reps; ++r) {
      for (std::size_t l = 0; l < batch; ++l) {
        input_clip[l] = next++ % s.clips.size();
        inputs[l] = &s.clips[input_clip[l]];
      }
      {
        const Scoped span(spans, replay.span);
        s.model->predict_batch_into(
            std::span<const data::Sample* const>(inputs.data(), batch),
            std::span<image::Image* const>(output_ptrs.data(), batch), scratch);
      }
      for (std::size_t l = 0; l < batch; ++l) {
        if (!same_image(outputs[l], s.reference[input_clip[l]])) {
          result.fail("batch-" + std::to_string(batch) +
                      " replay differs from its reference");
        }
      }
    }
    const Spans::Total t = spans.total(replay.span, since);
    predict_s += t.seconds;
    result.add(Kind::kLayer, replay.metric, t.mean_s() * 1e3, "ms");
  }
  const double flops = static_cast<double>(counter("gemm.flops") - flops_before);
  result.add(Kind::kLayer, "math.gemm_gflops_per_s",
             predict_s > 0.0 ? flops / predict_s * 1e-9 : 0.0, "GFLOP/s");
}

}  // namespace

void run_serve(const Options& options, Result& result, Spans& spans) {
  const bool high = options.workload == "serve_high";
  const double rate = high ? kOverloadRate : kLowRate;
  result.threads = 3;  // producer, waiter, scheduler

  const KeepAwake awake({0, 1, kSchedulerCpu});  // producer, waiter, scheduler
  // Set-up and the batch compute run on the scheduler's CPU, so that is the
  // one sampled.
  const HostClock clock({kSchedulerCpu});
  const Clock::time_point start = Clock::now();
  std::unique_ptr<ServeState> s = set_up(options, result);
  if (end_set_up(options, clock, kElasticity, start, result)) return;
  result.add(Kind::kInfo, "clips", static_cast<double>(s->clips.size()), "count");

  util::Rng rng(options.seed, 0x5e);
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t fft_misses = counter("fft.plan_cache.miss");
  const std::uint64_t conv_misses = counter("conv.plan_cache.miss");
  const obs::MetricsSnapshot before = registry.snapshot();
  const Phase p = run_phase(*s, rate, options.seconds, rng, spans);
  const obs::MetricsSnapshot after = registry.snapshot();
  s->server->shutdown();

  // Under overload, turning requests away is the admission control doing
  // its job; at low load, nothing should be turned away.
  result.attempted = p.offered;
  if (!high) {
    for (std::uint64_t i = 0; i < p.rejected; ++i) result.fail("request rejected");
  }
  for (std::uint64_t i = 0; i < p.submit_errors + p.wait_errors; ++i) {
    result.fail("request threw");
  }
  for (std::uint64_t i = 0; i < p.mismatched; ++i) {
    result.fail("response differs from its reference");
  }

  const double lag_p99 = quantile(p.lag_ms, 0.99);
  result.valid = lag_p99 <= kMaxLagP99Ms;

  // Throughput is the median over windows of completions, each adjusted by
  // the host clock. Under overload it is completions per wall second, the
  // server's saturated throughput. At low load the server completes what it
  // is offered, so completions per wall second would only restate the
  // offered 100/s; there it is completions per CPU second of the scheduler
  // thread, which moves with what each request costs. Latency is the median
  // request's, each adjusted by the host clock over its own life.
  std::vector<double> raw_rates;
  std::vector<double> rates;
  p.window_rates(high ? p.done_s : p.busy_s, clock, raw_rates, rates);
  std::vector<double> raw_ms;
  std::vector<double> adjusted_ms;
  p.latencies_ms(clock, raw_ms, adjusted_ms);
  result.add(Kind::kEndToEnd, "throughput_per_s", median(rates), "1/s");
  result.add(Kind::kEndToEnd, "latency_p50_ms", median(adjusted_ms), "ms");
  result.add(Kind::kInfo, "raw_throughput_per_s", median(raw_rates), "1/s");
  result.add(Kind::kInfo, "raw_latency_p50_ms", median(raw_ms), "ms");
  const double phase_s = seconds_between(p.start, p.last_done);
  result.add(Kind::kInfo, "completed_per_s",
             phase_s > 0.0 ? static_cast<double>(p.completed) / phase_s : 0.0, "1/s");
  result.add(Kind::kInfo, "host_slowdown", clock.slowdown(p.start, p.last_done), "ratio");
  add_pooled_latency(result, raw_ms);
  result.add(Kind::kInfo, "offered_per_s", rate, "1/s");

  // Layer numbers from the registry are recorded with tracing off too, so
  // they come with every run; the predict replays only with --trace.
  const HistDelta queue_wait = hist_delta(before, after, "serve.queue_wait_us");
  const HistDelta compute = hist_delta(before, after, "serve.compute_us");
  const HistDelta batch = hist_delta(before, after, "serve.batch_size");
  result.add(Kind::kLayer, "serve.queue_wait_p50_ms", queue_wait.quantile(0.5) * 1e-3,
             "ms");
  result.add(Kind::kLayer, "serve.queue_wait_p99_ms", queue_wait.quantile(0.99) * 1e-3,
             "ms");
  result.add(Kind::kLayer, "serve.compute_p50_ms", compute.quantile(0.5) * 1e-3, "ms");
  result.add(Kind::kLayer, "serve.batch_mean", batch.mean(), "count");
  result.add(Kind::kLayer, "serve.peak_queue_depth",
             static_cast<double>(s->server->stats().peak_queue_depth), "count");
  result.add(Kind::kLayer, "client.send_lag_p99_ms", lag_p99, "ms");
  result.add(Kind::kLayer, "serve.sat_rejected_frac",
             high && p.offered > 0
                 ? static_cast<double>(p.rejected) / static_cast<double>(p.offered)
                 : 0.0,
             "ratio");
  result.add(Kind::kLayer, "math.fft_plan_miss",
             static_cast<double>(counter("fft.plan_cache.miss") - fft_misses), "count");
  result.add(Kind::kLayer, "math.conv_plan_miss",
             static_cast<double>(counter("conv.plan_cache.miss") - conv_misses), "count");
  if (options.trace) predict_replays(options, *s, result, spans);
}

}  // namespace lithobench
