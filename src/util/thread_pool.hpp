// Persistent worker pool with a chunked parallel_for primitive — the
// execution substrate shared by the math, nn and litho hot paths.
//
// Design constraints (see docs/nn_library.md "Threading and memory model"):
//   * results must not depend on the thread count, so parallel_for only
//     promises that each chunk runs exactly once — callers keep reductions
//     deterministic by writing disjoint outputs or reducing fixed-order
//     partials on the calling thread;
//   * nested parallel_for calls (from inside a chunk) degrade to serial
//     execution on the calling worker instead of deadlocking the pool;
//   * the first exception thrown by a chunk cancels the remaining chunks
//     and is rethrown on the calling thread;
//   * dispatch is cost-gated: callers may pass an estimated work size, and
//     jobs too small to amortize a worker wake-up run inline on the caller.
//     Inline and dispatched execution produce identical chunk boundaries,
//     so the gate can never change results — only where they are computed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lithogan::util {

class ThreadPool {
 public:
  /// fn(chunk_begin, chunk_end, worker): worker is in [0, threads()) and is
  /// stable for the duration of one chunk — use it to index per-thread state.
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Sanity ceiling on the requested thread count; asking for more throws
  /// std::invalid_argument (it is always a bug, typically a wrapped
  /// negative from a CLI flag).
  static constexpr std::size_t kMaxThreads = 1024;

  /// Cost value meaning "no estimate": the job always dispatches to the
  /// pool. Used by callers that cannot cheaply bound their work (and by the
  /// pool tests, which must exercise the cross-thread paths regardless of
  /// job size).
  static constexpr std::size_t kUnknownCost = static_cast<std::size_t>(-1);

  /// Default dispatch gate, in estimated scalar operations. Roughly the
  /// work a core retires in the time one condition-variable wake-up costs
  /// (a few microseconds): jobs estimated below this run inline. Override
  /// per pool with set_dispatch_cost() (0 disables the gate).
  static constexpr std::size_t kDefaultDispatchCost = 1u << 21;  // ~2M ops

  /// `threads` is the total parallelism: the calling thread (worker 0) plus
  /// threads-1 pool workers. 0 means std::thread::hardware_concurrency().
  /// Throws std::invalid_argument if threads > kMaxThreads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return threads_; }

  /// Threads of this pool that the hardware can actually run concurrently:
  /// min(threads(), hardware_concurrency). An 8-thread pool on a 1-core
  /// container has concurrency() == 1 — dispatching cost-estimated work
  /// there is pure overhead (the OS only time-slices), so the gate
  /// serializes it.
  std::size_t concurrency() const { return concurrency_; }

  /// Dispatch gate threshold in estimated scalar ops (see kDefaultDispatchCost).
  std::size_t dispatch_cost() const { return dispatch_cost_; }
  void set_dispatch_cost(std::size_t cost) { dispatch_cost_ = cost; }

  /// Splits [begin, end) into chunks of at most `grain` elements and runs
  /// them across the pool (the caller participates). Chunk-to-worker
  /// assignment is dynamic; chunk boundaries depend only on (begin, end,
  /// grain). Must be called from one thread at a time (the pool is owned by
  /// a single driving thread); calls from inside a running chunk execute
  /// serially on that worker.
  ///
  /// `cost` is the caller's estimate of the TOTAL work in the range, in
  /// arbitrary "scalar operation" units (e.g. 2*m*n*k for a GEMM, elements
  /// times a per-element weight for pointwise loops). Jobs with a known
  /// cost below dispatch_cost(), or on a pool whose concurrency() is 1,
  /// run inline on the calling thread with identical chunk boundaries.
  /// Pass kUnknownCost (the overload without `cost`) to always dispatch.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    std::size_t cost, const ChunkFn& fn);
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const ChunkFn& fn) {
    parallel_for(begin, end, grain, kUnknownCost, fn);
  }

  /// Worker index of the calling thread: its pool index when called from a
  /// chunk, 0 otherwise. Serial fallbacks use this so nested code touches
  /// the same per-thread state as its enclosing chunk.
  static std::size_t current_worker();

  /// True while the calling thread is executing a chunk (used by the
  /// nested-call serial fallback).
  static bool in_parallel_region();

 private:
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t chunk_count = 0;
    const ChunkFn* fn = nullptr;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> done_chunks{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker);
  /// Runs chunks of `job` until none are left; returns after contributing
  /// its last done_chunks increment.
  void run_chunks(Job& job, std::size_t worker);
  /// Runs every chunk of the range on the calling thread, preserving the
  /// chunk boundaries (and the nested-region bookkeeping) of the parallel
  /// path.
  void run_inline(std::size_t begin, std::size_t end, std::size_t grain,
                  std::size_t chunks, const ChunkFn& fn);

  std::size_t threads_;
  std::size_t concurrency_ = 1;    ///< min(threads_, hardware cores)
  std::size_t dispatch_cost_ = kDefaultDispatchCost;
  bool spin_enabled_ = false;      ///< workers spin briefly before sleeping
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;      ///< current job; workers hold refs while draining
  /// Bumped per job so workers detect new work. Atomic so the bounded
  /// spin-before-sleep in worker_loop can poll it without taking the lock;
  /// publication of job_ itself still happens under mutex_.
  std::atomic<std::uint64_t> job_serial_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace lithogan::util
