// lithobench: one workload per process, measured end to end.
//
//   lithobench --workload chip_golden|chip_learned|serve_low|serve_high
//              [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//              [--out DIR] [--git-sha SHA] [--git-dirty 0|1]
//
// Prints the build fingerprint, every metric as `workload metric value unit`,
// and as its last line one JSON object {correct, attempted, failed, metrics}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1). Writes the same plus the fingerprint to DIR/<workload>.json
// (DIR/<workload>.traced.json and the span trace DIR/<workload>.trace.json
// on traced runs). Exits nonzero when any output check failed. A run whose
// open-loop generator ran late is marked invalid in the result file.
// An untraced run first runs the set-up twice more in child copies of
// itself (--setup-only, which prints the set-up seconds and exits).
// bench/e2e/run.sh builds this binary and drives it.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lithobench.hpp"
#include "math/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace lithobench {

thread_local std::int64_t Spans::current = Spans::kNone;

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t Spans::open(const char* name, Clock::time_point start, std::int64_t parent,
                         std::uint64_t request) {
  if (!enabled_) return kNone;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back({name, ns, -1, parent, request, thread_index()});
  return static_cast<std::int64_t>(records_.size()) - 1;
}

void Spans::close(std::int64_t id, Clock::time_point end) {
  if (id == kNone) return;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].end_ns = ns;
}

std::size_t Spans::mark() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

Spans::Total Spans::total(const std::string& name, std::size_t since) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Total t;
  for (std::size_t i = since; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0 || name != r.name) continue;
    t.seconds += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    ++t.count;
  }
  return t;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"traceEvents\": [");
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"request\": %llu}}",
                 first ? "" : ",", r.name, r.thread,
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr std::uint64_t kChainAdds = 500'000;

double thread_cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Seconds a chain of kChainAdds dependent integer additions takes on the
/// calling thread's core: the loop-carried add retires one per core cycle.
/// Timed in the thread's CPU time, not wall time: a workload thread that
/// wakes on the same CPU (the server's scheduler on each request) may
/// preempt the chain, and its run must not count as the host's slowdown.
double chain_seconds() {
  constexpr std::uint64_t kWarmAdds = 50'000;  // settle after a migration
  std::uint64_t x = 0;
  for (std::uint64_t i = 0; i < kWarmAdds; ++i) {
    x += 1;
    asm volatile("" : "+r"(x));  // keeps every add, in order
  }
  const double start = thread_cpu_seconds();
  for (std::uint64_t i = 0; i < kChainAdds; ++i) {
    x += 1;
    asm volatile("" : "+r"(x));
  }
  return thread_cpu_seconds() - start;
}

}  // namespace

HostClock::HostClock(std::vector<std::size_t> slots)
    : slots_(std::move(slots)), thread_([this] { sample_loop(); }) {}

HostClock::~HostClock() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void HostClock::sample_loop() {
  constexpr double kReferenceSeconds = static_cast<double>(kChainAdds) / (kReferenceGHz * 1e9);
  const auto pause = kSamplePeriod / static_cast<int>(slots_.size());
  std::unique_lock<std::mutex> lock(mutex_);
  for (std::size_t next = 0; !stop_; next = (next + 1) % slots_.size()) {
    lock.unlock();
    pin_to(slots_[next]);
    const double slowdown = chain_seconds() / kReferenceSeconds;
    const Clock::time_point at = Clock::now();
    lock.lock();
    samples_.push_back({at, slowdown});
    wake_.wait_for(lock, pause, [this] { return stop_; });
  }
}

double HostClock::slowdown(Clock::time_point from, Clock::time_point to) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  std::size_t count = 0;
  const Sample* nearest = nullptr;
  const Clock::time_point mid = from + (to - from) / 2;
  for (const Sample& s : samples_) {
    if (s.at >= from && s.at < to) {
      sum += s.slowdown;
      ++count;
    }
    if (nearest == nullptr || std::chrono::abs(s.at - mid) < std::chrono::abs(nearest->at - mid)) {
      nearest = &s;
    }
  }
  if (count > 0) return sum / static_cast<double>(count);
  return nearest == nullptr ? 1.0 : nearest->slowdown;
}

double HostClock::factor(Clock::time_point from, Clock::time_point to,
                         double elasticity) const {
  return std::pow(slowdown(from, to), elasticity);
}

void add_pooled_latency(Result& result, const std::vector<double>& ms) {
  constexpr double kBeyond = 10.0;
  const auto n = static_cast<double>(ms.size());
  const double tail = n > 2.0 * kBeyond ? std::floor((1.0 - kBeyond / n) * 1e3) / 1e3 : 0.5;
  result.add(Kind::kInfo, "pooled_latency_p50_ms", median(ms), "ms");
  result.add(Kind::kInfo, "pooled_latency_tail_ms", quantile(ms, tail), "ms");
  result.add(Kind::kInfo, "pooled_latency_tail_quantile", tail, "ratio");
  result.add(Kind::kInfo, "latency_samples", n, "count");
}

KeepAwake::KeepAwake(const std::vector<std::size_t>& slots) {
  for (const std::size_t slot : slots) {
    threads_.emplace_back([this, slot] {
      pin_to(slot);
      const sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // leaves the core's other hardware thread more room
#endif
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

bool end_set_up(const Options& options, const HostClock& clock, double elasticity,
                Clock::time_point start, Result& result) {
  const Clock::time_point end = Clock::now();
  result.raw_setup_s = seconds_between(start, end);
  result.setup_s = result.raw_setup_s / clock.factor(start, end, elasticity);
  return options.setup_only;
}

void pin_to(std::size_t slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[slot % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter(const char* name) {
  return lithogan::obs::Registry::global().counter_value(name);
}

namespace {

const char* const kWorkloads[] = {"chip_golden", "chip_learned", "serve_low",
                                  "serve_high"};

/// BENCHMARK.json's per_layer list. A traced run reports every entry; a
/// layer the workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"litho.aerial_ms", "ms"},
    {"litho.develop_ms", "ms"},
    {"litho.contours_ms", "ms"},
    {"layout.query_us", "us"},
    {"data.render_us", "us"},
    {"core.predict_ms", "ms"},
    {"core.batch_mean", "count"},
    {"geometry.contour_us", "us"},
    {"core.predict_ms.b1", "ms"},
    {"core.predict_ms.b4", "ms"},
    {"core.predict_ms.b16", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.compute_p50_ms", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.peak_queue_depth", "count"},
    {"math.gemm_gflops_per_s", "GFLOP/s"},
    {"math.fft_plan_miss", "count"},
    {"math.conv_plan_miss", "count"},
    {"util.pool_dispatched", "count"},
    {"util.pool_inlined", "count"},
    {"chip.golden_unattributed_frac", "ratio"},
    {"chip.learned_unattributed_frac", "ratio"},
    {"client.send_lag_p99_ms", "ms"},
    {"serve.sat_rejected_frac", "ratio"},
};

struct Fingerprint {
  std::string git_sha = "unknown";
  bool git_dirty = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "lithobench: %s\nusage: lithobench --workload chip_golden|chip_learned|"
               "serve_low|serve_high [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--setup-only] [--out DIR] [--git-sha SHA] [--git-dirty 0|1]\n",
               why.c_str());
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// All digits, so two runs never print the same rounded time.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over the metrics of kind
/// `only`, or over all of them.
std::string metrics_json(const Result& r, std::optional<Kind> only) {
  std::string out = "{";
  for (const Metric& m : r.metrics) {
    if (only && m.kind != *only) continue;
    out += (out.size() == 1 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

bool correct(const Result& r) { return r.failed == 0; }
const char* json_bool(bool b) { return b ? "true" : "false"; }

std::string fingerprint_json(const Options& o, const Fingerprint& fp, const Result& r) {
  return "{\"compiler\": " + json_string(LITHOBENCH_COMPILER) +
         ", \"build_type\": " + json_string(LITHOBENCH_BUILD_TYPE) +
         ", \"flags\": " + json_string(LITHOBENCH_FLAGS) +
         ", \"simd\": " + json_string(lithogan::math::simd_level()) +
         ", \"git_sha\": " + json_string(fp.git_sha) +
         ", \"git_dirty\": " + json_bool(fp.git_dirty) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"threads\": " + std::to_string(r.threads) +
         ", \"seed\": " + std::to_string(o.seed) + "}";
}

void write_result_file(const std::string& path, const Options& o, const Fingerprint& fp,
                       const Result& r) {
  std::string failures = "[";
  for (const std::string& why : r.failures) {
    failures += (failures.size() == 1 ? "" : ", ") + json_string(why);
  }
  failures += "]";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lithobench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
               "\"smoke\": %s,\n \"fingerprint\": %s,\n \"correct\": %s, "
               "\"valid\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"failures\": %s,\n \"metrics\": %s}\n",
               json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
               json_number(o.seconds).c_str(), o.trace ? 1 : 0, json_bool(o.smoke),
               fingerprint_json(o, fp, r).c_str(), json_bool(correct(r)),
               json_bool(r.valid), static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), failures.c_str(),
               metrics_json(r, std::nullopt).c_str());
  std::fclose(f);
}

/// Repeats the workload's set-up in kSetUpChildren fresh copies of this
/// program (--setup-only), one after another, so that every setup_s sample
/// pays the one-time costs a user's first run pays: the process-wide plan
/// caches and lazy precompute start empty in each. Returns each child's
/// {clock-adjusted, wall} set-up seconds; a child that fails counts in
/// `result`.
std::vector<std::pair<double, double>> set_up_in_children(const Options& o,
                                                          Result& result) {
  constexpr int kSetUpChildren = 2;
  char exe[4096];
  const ssize_t length = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (length <= 0) {
    result.fail("cannot find the lithobench executable");
    return {};
  }
  exe[length] = '\0';
  const std::string seed = std::to_string(o.seed);
  std::vector<const char*> args = {exe,          "--workload", o.workload.c_str(),
                                   "--seed",     seed.c_str(), "--setup-only"};
  if (o.smoke) args.push_back("--smoke");
  args.push_back(nullptr);

  std::vector<std::pair<double, double>> out;
  for (int i = 0; i < kSetUpChildren; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      result.fail("set-up child: pipe failed");
      break;
    }
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execv(exe, const_cast<char* const*>(args.data()));
      _exit(127);
    }
    close(fds[1]);
    std::string text;
    char buf[256];
    for (ssize_t got; pid > 0 && (got = read(fds[0], buf, sizeof buf)) != 0;) {
      if (got > 0) text.append(buf, static_cast<std::size_t>(got));
      else if (errno != EINTR) break;
    }
    close(fds[0]);
    int status = 0;
    double adjusted = 0.0;
    double wall = 0.0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 ||
        std::sscanf(text.c_str(), "%lf %lf", &adjusted, &wall) != 2) {
      result.fail("set-up child failed");
      continue;
    }
    out.emplace_back(adjusted, wall);
  }
  return out;
}

}  // namespace
}  // namespace lithobench

int main(int argc, char** argv) {
  using namespace lithobench;
  Options options;
  Fingerprint fp;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (arg == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--out") {
        out_dir = value;
      } else if (arg == "--git-sha") {
        fp.git_sha = value;
      } else if (arg == "--git-dirty") {
        fp.git_dirty = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), options.workload) ==
      std::end(kWorkloads)) {
    usage("unknown or missing --workload");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    usage("--seconds out of (0, 120]");
  }

  Result result;
  std::vector<double> setups;
  std::vector<double> raw_setups;
  if (!options.trace && !options.setup_only) {
    // Before pinning: a child inherits this thread's CPU set.
    for (const auto& [adjusted, wall] : set_up_in_children(options, result)) {
      setups.push_back(adjusted);
      raw_setups.push_back(wall);
    }
  }

  lithogan::util::set_log_level(lithogan::util::LogLevel::kWarn);
  pin_to(0);  // the first call also records the CPUs to spread over
  Spans spans(options.trace);
  try {
    if (options.workload == "chip_golden") {
      run_chip_golden(options, result, spans);
    } else if (options.workload == "chip_learned") {
      run_chip_learned(options, result, spans);
    } else {
      run_serve(options, result, spans);
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  if (options.setup_only) {
    for (const std::string& why : result.failures) {
      std::fprintf(stderr, "lithobench: set-up: %s\n", why.c_str());
    }
    std::printf("%.17g %.17g\n", result.setup_s, result.raw_setup_s);
    return correct(result) ? 0 : 1;
  }
  if (!options.trace) {
    // The median of this process's set-up and its children's.
    setups.push_back(result.setup_s);
    raw_setups.push_back(result.raw_setup_s);
    result.add(Kind::kEndToEnd, "setup_s", median(setups), "s");
    result.add(Kind::kInfo, "raw_setup_s", median(raw_setups), "s");
  }
  result.add(Kind::kEndToEnd, "peak_rss_mb", peak_rss_mb(), "MiB");
  if (options.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      const bool reported =
          std::any_of(result.metrics.begin(), result.metrics.end(),
                      [&](const Metric& x) { return x.name == m.name; });
      if (!reported) result.add(Kind::kLayer, m.name, 0.0, m.unit);
    }
  }

  const char* w = options.workload.c_str();
  std::printf("# %s seed %llu%s%s fingerprint %s\n", w,
              static_cast<unsigned long long>(options.seed),
              options.trace ? " traced" : "", options.smoke ? " smoke" : "",
              fingerprint_json(options, fp, result).c_str());
  for (const Metric& m : result.metrics) {
    std::printf("%s %s %.6g %s\n", w, m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s ops %llu count\n%s ops_failed %llu count\n", w,
              static_cast<unsigned long long>(result.attempted), w,
              static_cast<unsigned long long>(result.failed));
  for (const std::string& why : result.failures) {
    std::printf("# FAIL %s: %s\n", w, why.c_str());
  }
  if (!result.valid) {
    std::printf("# INVALID %s: the open-loop generator ran late "
                "(client.send_lag_p99_ms)\n",
                w);
  }

  const std::string base = out_dir + "/" + options.workload;
  write_result_file(base + (options.trace ? ".traced.json" : ".json"), options, fp,
                    result);
  if (options.trace && !spans.write_chrome_trace(base + ".trace.json")) {
    std::fprintf(stderr, "lithobench: cannot write %s.trace.json\n", base.c_str());
  }

  const Kind listed = options.trace ? Kind::kLayer : Kind::kEndToEnd;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
      json_bool(correct(result)), static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      metrics_json(result, listed).c_str());
  return correct(result) ? 0 : 1;
}
