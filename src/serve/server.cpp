#include "serve/server.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lithogan::serve {

namespace {

/// Batch-size ladder: powers of two up to the plan's chunk size; the
/// overflow bucket catches anything a larger-B config produces.
std::vector<double> batch_size_buckets() { return {1, 2, 4, 8, 16, 32, 64}; }

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Admission shape check. The scheduler stacks every batch into one
/// tensor, so a clip of another shape would throw on the scheduler thread
/// and take the process down; it is turned away here instead, before it
/// takes a slot.
void require_model_shape(const data::Sample& sample, const core::LithoGanConfig& cfg) {
  const image::Image& mask = sample.mask_rgb;
  LITHOGAN_REQUIRE(mask.channels() == cfg.mask_channels &&
                       mask.height() == cfg.image_size && mask.width() == cfg.image_size,
                   "serve sample mask is " + std::to_string(mask.channels()) + "x" +
                       std::to_string(mask.height()) + "x" + std::to_string(mask.width()) +
                       ", the model takes " + std::to_string(cfg.mask_channels) + "x" +
                       std::to_string(cfg.image_size) + "x" +
                       std::to_string(cfg.image_size));
}

}  // namespace

Server::Server(core::LithoGan& model, Config config)
    : model_(model), config_(config) {
  LITHOGAN_REQUIRE(config_.max_batch > 0, "serve::Config::max_batch must be positive");
  LITHOGAN_REQUIRE(config_.queue_capacity > 0,
                   "serve::Config::queue_capacity must be positive");

  const std::size_t pool = config_.queue_capacity + config_.max_batch;
  slots_.resize(pool);
  free_slots_.reserve(pool);
  for (std::size_t i = pool; i > 0; --i) {
    free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  pending_.resize(config_.queue_capacity);
  batch_samples_.resize(config_.max_batch);
  batch_out_.resize(config_.max_batch);
  batch_slots_.resize(config_.max_batch);

  // Compile the serving plans before accepting traffic: plan build is the
  // one legitimately allocating phase.
  model_.serving_precision();

  scheduler_ = std::thread([this] { scheduler_main(); });
}

Server::~Server() { shutdown(); }

Ticket Server::submit_locked(const data::Sample& sample,
                             std::unique_lock<std::mutex>& lock) {
  static obs::Counter& accepted = obs::Registry::global().counter("serve.accepted");
  static obs::Gauge& depth = obs::Registry::global().gauge("queue.depth");

  const std::uint32_t slot_id = free_slots_.back();
  free_slots_.pop_back();
  Slot& slot = slots_[slot_id];
  slot.gen = next_gen_++;
  slot.state = SlotState::kQueued;
  slot.sample = &sample;
  slot.enqueued = std::chrono::steady_clock::now();

  // Flow start on the producer's track: gen correlates this span with the
  // scheduler-side serve.complete flow-finish, so Perfetto draws the
  // request as one arc across threads. Recording is ring-local — no
  // allocation, no extra locking.
  obs::Span submit_span("serve.submit", slot.gen, obs::Flow::kStart);
  submit_span.arg("queue_depth", static_cast<double>(pending_size_ + 1));

  pending_[(pending_head_ + pending_size_) % pending_.size()] = slot_id;
  ++pending_size_;
  ++stats_.accepted;
  stats_.queue_depth = pending_size_;
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, pending_size_);
  accepted.add();
  depth.set(static_cast<double>(pending_size_));

  const Ticket ticket{slot_id, slot.gen};
  lock.unlock();
  sched_cv_.notify_one();
  return ticket;
}

Ticket Server::submit(const data::Sample& sample) {
  static obs::Counter& rejected = obs::Registry::global().counter("serve.rejected");
  require_model_shape(sample, model_.config());
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw StoppedError("serve::Server is shut down");
  if (pending_size_ >= pending_.size() || free_slots_.empty()) {
    ++stats_.rejected;
    rejected.add();
    throw RejectedError(pending_size_ >= pending_.size()
                            ? "serve queue full (" +
                                  std::to_string(config_.queue_capacity) + " waiting)"
                            : "serve slot pool exhausted (unclaimed results?)");
  }
  return submit_locked(sample, lock);
}

std::optional<Ticket> Server::try_submit(const data::Sample& sample) {
  static obs::Counter& rejected = obs::Registry::global().counter("serve.rejected");
  require_model_shape(sample, model_.config());
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) throw StoppedError("serve::Server is shut down");
  if (pending_size_ >= pending_.size() || free_slots_.empty()) {
    ++stats_.rejected;
    rejected.add();
    return std::nullopt;
  }
  return submit_locked(sample, lock);
}

Response Server::wait(const Ticket& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  LITHOGAN_REQUIRE(ticket.slot < slots_.size(), "serve ticket slot out of range");
  Slot& slot = slots_[ticket.slot];
  LITHOGAN_REQUIRE(slot.state != SlotState::kFree && slot.gen == ticket.gen,
                   "stale or already-claimed serve ticket");
  done_cv_.wait(lock, [&] { return slot.state == SlotState::kDone; });

  static obs::Histogram& copy_out_us = obs::Registry::global().histogram(
      "serve.copy_out_us", obs::default_us_buckets());

  Response response;
  // Copy rather than move: the slot keeps its warm image buffer, so the
  // next dispatch into this slot allocates nothing. The copy happens on
  // the waiter's thread, outside the zero-alloc dispatch loop.
  const auto copy_begin = std::chrono::steady_clock::now();
  response.resist = slot.resist;
  copy_out_us.observe(elapsed_us(copy_begin, std::chrono::steady_clock::now()));
  response.latency_us = slot.latency_us;
  response.batch = slot.batch;

  slot.state = SlotState::kFree;
  slot.sample = nullptr;
  free_slots_.push_back(ticket.slot);
  return response;
}

void Server::shutdown() {
  std::thread to_join;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Claim the thread under the lock so concurrent shutdown() calls
    // cannot both join it.
    to_join = std::move(scheduler_);
  }
  sched_cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

Stats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Server::scheduler_main() {
  static obs::Counter& completed = obs::Registry::global().counter("serve.completed");
  static obs::Counter& batches = obs::Registry::global().counter("serve.batches");
  static obs::Gauge& depth = obs::Registry::global().gauge("queue.depth");
  static obs::Histogram& latency_us = obs::Registry::global().histogram(
      "serve.latency_us", obs::default_us_buckets());
  static obs::Histogram& queue_wait_us = obs::Registry::global().histogram(
      "serve.queue_wait_us", obs::default_us_buckets());
  static obs::Histogram& compute_us = obs::Registry::global().histogram(
      "serve.compute_us", obs::default_us_buckets());
  static obs::Histogram& batch_size = obs::Registry::global().histogram(
      "serve.batch_size", batch_size_buckets());
  obs::TraceRecorder::instance().set_thread_name("serve-scheduler");

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    sched_cv_.wait(lock, [&] { return stopping_ || pending_size_ > 0; });
    if (pending_size_ == 0) {
      if (stopping_) return;
      continue;
    }

    // Dual trigger: sleep until the batch fills or the oldest waiting
    // request's deadline passes. stopping_ short-circuits so shutdown
    // drains without paying a final max_wait_us.
    const auto deadline = slots_[pending_[pending_head_]].enqueued +
                          std::chrono::microseconds(config_.max_wait_us);
    sched_cv_.wait_until(lock, deadline, [&] {
      return stopping_ || pending_size_ >= config_.max_batch;
    });

    const std::size_t n = std::min(pending_size_, config_.max_batch);
    // One clock read bounds the whole batch's queue-wait: every request in
    // the batch stops waiting at gather time, not at its own loop
    // iteration.
    const auto gathered = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t slot_id = pending_[pending_head_];
      pending_head_ = (pending_head_ + 1) % pending_.size();
      Slot& slot = slots_[slot_id];
      slot.state = SlotState::kRunning;
      slot.dispatched = gathered;
      batch_slots_[i] = slot_id;
      batch_samples_[i] = slot.sample;
      batch_out_[i] = &slot.resist;
    }
    pending_size_ -= n;
    stats_.queue_depth = pending_size_;
    depth.set(static_cast<double>(pending_size_));

    lock.unlock();
    {
      obs::Span span("serve.dispatch");
      span.arg("batch", static_cast<double>(n));
      model_.predict_batch_into(
          std::span<const data::Sample* const>(batch_samples_.data(), n),
          std::span<image::Image* const>(batch_out_.data(), n), scratch_);
    }
    const auto now = std::chrono::steady_clock::now();
    lock.lock();

    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[batch_slots_[i]];
      slot.state = SlotState::kDone;
      const double queue_wait = elapsed_us(slot.enqueued, slot.dispatched);
      const double compute = elapsed_us(slot.dispatched, now);
      slot.latency_us = elapsed_us(slot.enqueued, now);
      slot.batch = n;
      latency_us.observe(slot.latency_us);
      queue_wait_us.observe(queue_wait);
      compute_us.observe(compute);
      // Flow finish: a tiny span carrying the request's latency
      // decomposition, correlated back to its serve.submit flow start.
      obs::Span complete("serve.complete", slot.gen, obs::Flow::kFinish);
      complete.arg("queue_wait_us", queue_wait);
      complete.arg("compute_us", compute);
      complete.arg("batch", static_cast<double>(n));
    }
    batch_size.observe(static_cast<double>(n));
    stats_.completed += n;
    ++stats_.batches;
    completed.add(n);
    batches.add();
    done_cv_.notify_all();
  }
}

}  // namespace lithogan::serve
