#include "serve/open_loop.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "util/error.hpp"
#include "util/timer.hpp"
#include "util/traffic.hpp"

namespace lithogan::serve {

OpenLoopResult run_open_loop(Server& server, std::span<const data::Sample> samples,
                             double qps, double duration_s, util::Rng& rng) {
  LITHOGAN_REQUIRE(!samples.empty(), "run_open_loop needs at least one sample");
  LITHOGAN_REQUIRE(qps > 0.0, "run_open_loop needs a positive offered rate");
  OpenLoopResult out;
  out.batch_hist.assign(server.config().max_batch + 1, 0);
  const std::uint64_t rejected_before = server.stats().rejected;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Ticket> inflight;
  bool producing = true;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(qps * duration_s * 2.0) + 16);

  std::thread waiter([&] {
    for (;;) {
      Ticket ticket;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || !producing; });
        if (inflight.empty()) return;
        ticket = inflight.front();
        inflight.pop_front();
      }
      const Response r = server.wait(ticket);
      latencies.push_back(r.latency_us);
      ++out.batch_hist[std::min(r.batch, out.batch_hist.size() - 1)];
    }
  });

  // A submit that throws (a stopped server, a clip of the wrong shape)
  // ends the arrivals; the waiter still drains what was accepted before
  // the error propagates.
  std::exception_ptr error;
  util::Timer clock;
  try {
    const auto t0 = std::chrono::steady_clock::now();
    double next_arrival_s = 0.0;
    std::size_t clip = 0;
    while (clock.elapsed_seconds() < duration_s) {
      next_arrival_s += util::poisson_gap_s(rng, qps);
      std::this_thread::sleep_until(t0 + std::chrono::duration<double>(next_arrival_s));
      if (const auto ticket = server.try_submit(samples[clip])) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          inflight.push_back(*ticket);
        }
        cv.notify_one();
      }
      clip = (clip + 1) % samples.size();
    }
  } catch (...) {
    error = std::current_exception();
  }
  out.elapsed_s = clock.elapsed_seconds();
  {
    const std::lock_guard<std::mutex> lock(mu);
    producing = false;
  }
  cv.notify_all();
  waiter.join();
  if (error) std::rethrow_exception(error);

  out.completed = latencies.size();
  out.rejected = server.stats().rejected - rejected_before;
  out.p50_us = util::percentile(latencies, 0.50);
  out.p95_us = util::percentile(latencies, 0.95);
  out.p99_us = util::percentile(latencies, 0.99);
  return out;
}

}  // namespace lithogan::serve
