#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lithogan::util {

namespace {
// Worker identity of the calling thread. Pool workers set these on startup;
// the driving thread keeps the defaults (worker 0, not inside a chunk).
thread_local std::size_t tls_worker = 0;
thread_local bool tls_in_chunk = false;

// Idle-to-running transition (spin hit or condition-variable sleep) measured
// by worker_loop but recorded lazily by run_chunks, and only once the worker
// has claimed a chunk. Recording at claim time keeps trace export race-free:
// every span a worker writes is sequenced before its done_chunks increment,
// so the driving thread's parallel_for return orders all worker spans before
// any export it performs. A worker that wakes for an already-drained job
// records nothing — it also contributes no completion the caller could
// synchronize with.
struct PendingWake {
  const char* name = nullptr;  ///< "pool.spin" or "pool.sleep"; null = none
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};
thread_local PendingWake tls_pending_wake;

void flush_pending_wake() {
  if (tls_pending_wake.name == nullptr) return;
  obs::TraceRecorder::instance().record(
      tls_pending_wake.name, tls_pending_wake.start_ns,
      tls_pending_wake.end_ns - tls_pending_wake.start_ns);
  tls_pending_wake.name = nullptr;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Iterations of the bounded spin a worker burns before falling back to the
// condition variable. At ~1 cycle per pause-loop iteration this is a few
// microseconds — the same order as the futex round-trip it tries to avoid.
constexpr int kSpinIterations = 1 << 14;
}  // namespace

std::size_t ThreadPool::current_worker() { return tls_worker; }
bool ThreadPool::in_parallel_region() { return tls_in_chunk; }

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (threads == 0) threads = hw;
  // A wrapped negative (e.g. a CLI "--threads -3" cast to size_t) would
  // otherwise surface as an opaque allocation failure deep in reserve().
  if (threads > kMaxThreads) {
    throw std::invalid_argument("ThreadPool: unreasonable thread count " +
                                std::to_string(threads) + " (max " +
                                std::to_string(kMaxThreads) + ")");
  }
  threads_ = threads;
  concurrency_ = std::min(threads_, hw);
  // Spinning only helps when every worker owns a core; on an oversubscribed
  // pool the spinners steal time-slices from the threads doing real work.
  spin_enabled_ = threads_ <= hw;
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_chunks(Job& job, std::size_t worker) {
  const std::size_t saved_worker = tls_worker;
  const bool saved_in_chunk = tls_in_chunk;
  tls_worker = worker;
  for (;;) {
    const std::size_t chunk = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.chunk_count) break;
    flush_pending_wake();
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      const std::size_t b = job.begin + chunk * job.grain;
      tls_in_chunk = true;
      const obs::Span span("pool.chunk");
      try {
        (*job.fn)(b, std::min(b + job.grain, job.end), worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
        job.cancelled.store(true, std::memory_order_relaxed);
      }
      tls_in_chunk = false;
    }
    const std::size_t done = job.done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == job.chunk_count) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
  tls_worker = saved_worker;
  tls_in_chunk = saved_in_chunk;
}

void ThreadPool::worker_loop(std::size_t worker) {
  obs::TraceRecorder::instance().set_thread_name("pool-worker-" +
                                                 std::to_string(worker));
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    // Timestamp the idle period only under tracing — the export then shows
    // whether a worker picked the job up out of the spin or paid a futex
    // wake-up ("pool.spin" vs "pool.sleep" leading each chunk burst).
    const bool tracing = obs::trace_enabled();
    const std::uint64_t idle_start = tracing ? obs::trace_now_ns() : 0;
    bool spun_in = false;
    // Bounded spin: back-to-back small jobs (a GEMM per conv sample, FFT
    // stages) arrive microseconds apart, and a worker that went to sleep
    // pays a futex round-trip per job. The serial counter is atomic, so the
    // spin needs no lock; job_ itself is still read under the mutex.
    if (spin_enabled_) {
      for (int i = 0; i < kSpinIterations; ++i) {
        if (stop_.load(std::memory_order_relaxed) ||
            job_serial_.load(std::memory_order_relaxed) != seen) {
          spun_in = job_serial_.load(std::memory_order_relaxed) != seen;
          break;
        }
        cpu_relax();
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               job_serial_.load(std::memory_order_relaxed) != seen;
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = job_serial_.load(std::memory_order_relaxed);
      job = job_;
    }
    if (tracing) {
      tls_pending_wake = {spun_in ? "pool.spin" : "pool.sleep", idle_start,
                          obs::trace_now_ns()};
    } else {
      tls_pending_wake.name = nullptr;
    }
    if (job) run_chunks(*job, worker);
    tls_pending_wake.name = nullptr;
  }
}

void ThreadPool::run_inline(std::size_t begin, std::size_t end, std::size_t grain,
                            std::size_t chunks, const ChunkFn& fn) {
  const std::size_t worker = tls_worker;
  const bool saved = tls_in_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t b = begin + c * grain;
    tls_in_chunk = true;
    const obs::Span span("pool.chunk");
    try {
      fn(b, std::min(b + grain, end), worker);
    } catch (...) {
      tls_in_chunk = saved;
      throw;
    }
    tls_in_chunk = saved;
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              std::size_t cost, const ChunkFn& fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + grain - 1) / grain;

  // Serial paths: a single-thread pool, a nested call from inside a chunk
  // (running it inline keeps the pool deadlock-free), a range that does not
  // split, or a job whose estimated cost is too small to amortize waking a
  // worker (including any cost-hinted job when the hardware cannot actually
  // run this pool's threads concurrently). Chunk boundaries match the
  // parallel path so per-chunk computations are identical either way.
  const bool gated =
      cost != kUnknownCost && (concurrency_ <= 1 || cost < dispatch_cost_);
  // Gate accounting: one count per parallel_for call, not per chunk, so the
  // inline/dispatch ratio in metrics snapshots reads as "jobs". The
  // counters are registered once and cached — steady state is one relaxed
  // atomic add per call, independent of tracing.
  static obs::Counter& jobs_inlined =
      obs::Registry::global().counter("threadpool.jobs_inlined");
  static obs::Counter& jobs_dispatched =
      obs::Registry::global().counter("threadpool.jobs_dispatched");
  if (threads_ == 1 || tls_in_chunk || chunks == 1 || gated) {
    jobs_inlined.add();
    const obs::Span span("pool.inline");
    run_inline(begin, end, grain, chunks, fn);
    return;
  }
  jobs_dispatched.add();
  const obs::Span span("pool.dispatch");

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->chunk_count = chunks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    job_serial_.fetch_add(1, std::memory_order_release);
  }
  // Wake only as many workers as there are chunks beyond the caller's own —
  // a 2-chunk job on a 16-thread pool used to notify_all and stampede 15
  // threads at one stolen chunk. Spinning workers notice the serial bump
  // without a notification; sleeping ones each consume one notify_one.
  const std::size_t wake = std::min(chunks - 1, threads_ - 1);
  for (std::size_t w = 0; w < wake; ++w) work_cv_.notify_one();

  // The caller drains chunks as worker 0, then waits for stragglers.
  run_chunks(*job, 0);
  if (spin_enabled_ &&
      job->done_chunks.load(std::memory_order_acquire) != job->chunk_count) {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (job->done_chunks.load(std::memory_order_acquire) == job->chunk_count)
        break;
      cpu_relax();
    }
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->done_chunks.load(std::memory_order_acquire) == job->chunk_count;
    });
    job_.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace lithogan::util
