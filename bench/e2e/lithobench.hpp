// Shared plumbing of lithobench: options, the result a workload fills in,
// its own span recorder, the host clock and a few order statistics.
//
// lithobench measures every layer from outside: it calls only public APIs
// and wraps its own spans around those calls, so the program under test is
// built and run exactly as a user would run it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/traffic.hpp"

namespace lithogan::chip {
class ChipLayout;
}
namespace lithogan::layout {
struct MaskClip;
}

namespace lithobench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;    ///< length of the timed window
  bool trace = false;       ///< per-layer run instead of the end-to-end run
  bool smoke = false;       ///< tiny sizes, for the schema smoke test
  bool setup_only = false;  ///< stop after set-up and print its time
};

/// Which list a metric belongs to: BENCHMARK.json's end_to_end list (the
/// untraced run's result line), its per_layer list (the traced run's), or
/// context that only goes to the printed table and the result file.
enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kInfo;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the harness itself misbehaved (the open-loop generator ran
  /// late), so its latencies cannot be trusted. Reported beside the result;
  /// unlike a failed output check it does not make the run incorrect.
  bool valid = true;
  std::size_t threads = 1;             ///< threads the workload runs on
  double setup_s = 0.0;                ///< this process's set-up, clock-adjusted
  double raw_setup_s = 0.0;            ///< the same, wall time
  std::vector<std::string> failures;   ///< first few failure reasons
  std::vector<Metric> metrics;

  void add(Kind kind, const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, kind});
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// lithobench's span recorder: name, start, end, parent and (for serve
/// requests) the ticket generation as request id, kept in memory and
/// written as a Chrome trace at exit. Disabled on untraced runs, where
/// every call is a no-op. Thread-safe: serve spans come from the producer
/// and the waiter thread.
class Spans {
 public:
  static constexpr std::int64_t kNone = -1;

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    if (enabled_) records_.reserve(1 << 16);
  }
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Opens a span; returns its id, or kNone when disabled.
  std::int64_t open(const char* name, Clock::time_point start, std::int64_t parent,
                    std::uint64_t request = 0);
  void close(std::int64_t id, Clock::time_point end);

  /// Number of spans recorded so far; totals can be restricted to spans
  /// opened after such a mark.
  std::size_t mark() const;

  struct Total {
    double seconds = 0.0;
    std::size_t count = 0;
    double mean_s() const {
      return count == 0 ? 0.0 : seconds / static_cast<double>(count);
    }
  };
  /// Summed duration and count of the closed spans called `name` opened
  /// at or after `since`.
  Total total(const std::string& name, std::size_t since = 0) const;

  bool write_chrome_trace(const std::string& path) const;

  /// Parent for spans opened by Scoped on this thread.
  static thread_local std::int64_t current;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t request;
    std::uint32_t thread;
  };

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// RAII span nested under the enclosing Scoped span of the same thread.
class Scoped {
 public:
  Scoped(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name, Clock::now(), Spans::current)),
        outer_(Spans::current) {
    if (id_ != Spans::kNone) Spans::current = id_;
  }
  ~Scoped() {
    if (id_ == Spans::kNone) return;
    spans_.close(id_, Clock::now());
    Spans::current = outer_;
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans& spans_;
  std::int64_t id_;
  std::int64_t outer_;
};

/// The q-quantile of `v` as util::percentile takes it; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  return lithogan::util::percentile(v, q);
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Reports wall-time latencies pooled over a run: the median, the highest
/// percentile with at least 10 samples beyond it, that percentile, and the
/// sample count.
void add_pooled_latency(Result& result, const std::vector<double>& ms);

/// How fast the host is running the CPUs a workload uses.
///
/// On a VM whose vCPUs share physical cores with other tenants, the same
/// code runs up to twice as slow in some phases as in others, phases of
/// seconds to an hour, on each vCPU apart (README.md has the probe data). A
/// HostClock thread visits each of the workload's CPUs every kSamplePeriod
/// and times a chain of dependent integer additions there, in its own CPU
/// time. The chain runs at whatever speed the core gives it, whatever the
/// program under test does, so its slowdown against a core at kReferenceGHz
/// measures the host. A
/// measured time follows the slowdown raised to an elasticity below 1,
/// fitted once per workload and fixed in code. Dividing a time by factor(),
/// or multiplying a rate, estimates it on an uncontended reference core.
class HostClock {
 public:
  static constexpr double kReferenceGHz = 3.0;
  static constexpr std::chrono::milliseconds kSamplePeriod{100};  // per CPU

  /// Samples the CPUs pin_to(slot) selects for each of `slots`.
  explicit HostClock(std::vector<std::size_t> slots);
  ~HostClock();
  HostClock(const HostClock&) = delete;
  HostClock& operator=(const HostClock&) = delete;

  /// Mean slowdown of the samples taken in [from, to), or of the sample
  /// nearest to the interval when none was; 1 before the first sample.
  double slowdown(Clock::time_point from, Clock::time_point to) const;
  /// slowdown(from, to) ^ elasticity: divide a time measured over
  /// [from, to) by it, or multiply a rate, to adjust it to the reference.
  double factor(Clock::time_point from, Clock::time_point to, double elasticity) const;

 private:
  struct Sample {
    Clock::time_point at;
    double slowdown;
  };
  void sample_loop();

  std::vector<std::size_t> slots_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;            // guarded by mutex_
  std::vector<Sample> samples_;  // guarded by mutex_
  std::thread thread_;           // last: it uses the members above
};

/// Keeps the CPUs pin_to(slot) selects for each of `slots` from going idle
/// while it lives: one SCHED_IDLE thread spins on each, and any other thread
/// that wakes there preempts it at once. On a VM, a thread that wakes on an
/// idle vCPU waits until the host runs that vCPU again, and the serve
/// producer's wake-up lag grew several-fold with its CPU left idle
/// (README.md). That wait is the host's, not the program's.
class KeepAwake {
 public:
  explicit KeepAwake(const std::vector<std::size_t>& slots);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Ends a workload's set-up, which ran from `start` to now: everything a
/// user pays before the first timed operation, warm pass and reference
/// outputs included. Records it in `result`, adjusted with `elasticity`, and
/// returns true when this process only measures set-up (--setup-only) and
/// should stop here.
bool end_set_up(const Options& options, const HostClock& clock, double elasticity,
                Clock::time_point start, Result& result);

/// Pins the calling thread to the `slot`-th CPU the process started with,
/// wrapping when there are fewer. A thread inherits its creator's CPU set,
/// so pinning just before a library spawns a thread places that thread too.
/// Each busy thread gets its own CPU: left to the kernel, a waking thread
/// often lands on the CPU of the thread that woke it and waits behind it.
void pin_to(std::size_t slot);

/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();

/// Registry counter value (0 when never registered).
std::uint64_t counter(const char* name);

/// Contact `i`'s clip of `extent_nm`, target centered: the frame the chip
/// pipeline's learned path renders. The neighbor query runs in a
/// `layout.query` span; `near` is its scratch.
void contact_clip(const lithogan::chip::ChipLayout& layout, std::uint32_t i,
                  double extent_nm, Spans& spans, std::vector<std::uint32_t>& near,
                  lithogan::layout::MaskClip& clip);

void run_chip_golden(const Options& options, Result& result, Spans& spans);
void run_chip_learned(const Options& options, Result& result, Spans& spans);
void run_serve(const Options& options, Result& result, Spans& spans);

}  // namespace lithobench
