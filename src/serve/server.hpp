// Online serving with dynamic micro-batching over the InferencePlan.
//
// A Server owns one scheduler thread and a bounded MPSC request queue.
// Producers submit individual clips; the scheduler coalesces whatever is
// in flight into one LithoGan::predict_batch_into call under a dual
// trigger — dispatch as soon as `max_batch` requests are waiting, or as
// soon as the oldest waiting request has aged `max_wait_us` microseconds,
// whichever comes first. Batching converts idle kernel width into
// throughput (the plan's per-call overhead amortizes across the batch)
// while the timeout bounds the latency cost a lone request pays for it.
//
// Admission is bounded: when `queue_capacity` requests are already
// waiting, submit() raises RejectedError (try_submit() returns nullopt)
// instead of growing without bound — open-loop producers see backpressure
// as a typed error they can count, not as creeping latency.
//
// Completion is ticket-based: submit() returns a Ticket, wait() blocks
// until that request's batch has been served and returns the resist image
// plus its queue latency. Results occupy pool slots until claimed, so a
// producer that abandons tickets eventually exhausts the pool (slot
// exhaustion is also RejectedError).
//
// Concurrency contract: any number of threads may submit/wait
// concurrently; the model is touched only by the scheduler thread, and
// the dispatch loop is allocation-free in steady state (preallocated
// gather arrays + PredictScratch + warm slot images). Served outputs are
// byte-identical to a direct predict_batch on the same clips — batching
// never changes results (the plan is batch-invariant).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/lithogan.hpp"
#include "data/sample.hpp"
#include "image/image.hpp"
#include "util/error.hpp"

namespace lithogan::serve {

/// Raised by submit() when admission control turns a request away (queue
/// full or result-slot pool exhausted). The caller may retry later.
class RejectedError : public util::Error {
 public:
  explicit RejectedError(const std::string& what) : util::Error(what) {}
};

/// Raised by submit()/try_submit() once shutdown has begun: the server no
/// longer accepts work (already-accepted requests still complete).
class StoppedError : public util::Error {
 public:
  explicit StoppedError(const std::string& what) : util::Error(what) {}
};

struct Config {
  std::size_t max_batch = 16;       ///< B: dispatch when this many wait
  std::uint64_t max_wait_us = 500;  ///< T: or when the oldest is this stale
  std::size_t queue_capacity = 256; ///< waiting requests before rejection
};

/// Completion handle for one submitted request. Value type; a ticket is
/// claimed exactly once by wait() — reuse or forgery throws.
struct Ticket {
  std::uint32_t slot = 0;
  std::uint64_t gen = 0;
};

struct Response {
  image::Image resist;     ///< final resist image, == predict_batch output
  double latency_us = 0.0; ///< submit() to batch completion
  std::size_t batch = 0;   ///< size of the batch this request rode in
};

/// Monotonic accounting, readable at any time via stats().
struct Stats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;   ///< admission rejections (not stops)
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;    ///< predict_batch_into dispatches
  std::size_t queue_depth = 0;  ///< currently waiting (instantaneous)
  std::size_t peak_queue_depth = 0;
};

class Server {
 public:
  /// The model must outlive the server. The server compiles the model's
  /// serving plans up front, so the first dispatch is not a compile stall.
  explicit Server(core::LithoGan& model, Config config = {});

  /// Joins the scheduler after draining accepted work (shutdown()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one clip. `sample` is referenced, not copied — it must stay
  /// alive and unmodified until wait() returns for this ticket. Throws
  /// util::InvalidArgument when its mask is not the model's
  /// mask_channels x image_size x image_size (not counted as a
  /// rejection), RejectedError when full, StoppedError after shutdown.
  Ticket submit(const data::Sample& sample);

  /// Non-throwing admission: nullopt instead of RejectedError. Still
  /// throws util::InvalidArgument on a wrong-shaped mask and StoppedError
  /// after shutdown.
  std::optional<Ticket> try_submit(const data::Sample& sample);

  /// Blocks until the ticket's request has been served; returns the
  /// result and frees the ticket's slot. Each ticket is claimable exactly
  /// once; a stale, double-claimed or forged ticket throws
  /// util::InvalidArgument.
  Response wait(const Ticket& ticket);

  /// Stops admission, serves every already-accepted request (the dual
  /// trigger short-circuits — no final max_wait_us stall) and joins the
  /// scheduler. Idempotent. Unclaimed results remain claimable by wait().
  void shutdown();

  Stats stats() const;
  const Config& config() const { return config_; }

 private:
  enum class SlotState : std::uint8_t { kFree, kQueued, kRunning, kDone };

  /// One request's full lifecycle storage. The resist image is slot-owned
  /// and stays warm across reuse (wait() copies out), keeping the
  /// dispatch writeback allocation-free. `gen` doubles as the request's
  /// trace correlation ID: it is unique per request for the server's
  /// lifetime, so the submit-side flow-start and scheduler-side
  /// flow-finish spans share it.
  struct Slot {
    std::uint64_t gen = 0;
    SlotState state = SlotState::kFree;
    const data::Sample* sample = nullptr;
    image::Image resist;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point dispatched;  ///< batch gather time
    double latency_us = 0.0;
    std::size_t batch = 0;
  };

  Ticket submit_locked(const data::Sample& sample, std::unique_lock<std::mutex>& lock);
  void scheduler_main();

  core::LithoGan& model_;
  Config config_;

  mutable std::mutex mutex_;
  std::condition_variable sched_cv_;  ///< wakes the scheduler (work/stop)
  std::condition_variable done_cv_;   ///< wakes waiters (batch completed)

  // Slot pool: queue_capacity waiting + max_batch running can coexist, so
  // the pool holds both; anything beyond that is admission-rejected.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< stack of free pool indices

  // FIFO ring of waiting slot indices (bounded by queue_capacity).
  std::vector<std::uint32_t> pending_;
  std::size_t pending_head_ = 0;
  std::size_t pending_size_ = 0;

  // Scheduler-owned gather arrays and model scratch, preallocated to
  // max_batch so the dispatch loop never allocates.
  std::vector<const data::Sample*> batch_samples_;
  std::vector<image::Image*> batch_out_;
  std::vector<std::uint32_t> batch_slots_;
  core::PredictScratch scratch_;

  std::uint64_t next_gen_ = 1;
  bool stopping_ = false;
  Stats stats_;
  std::thread scheduler_;
};

}  // namespace lithogan::serve
