// Open-loop Poisson client for serve::Server: the one load generator that
// litho_serve, litho_chip --mode serve and the runtime gates share.
//
// A producer (the calling thread) draws exponential inter-arrival gaps from
// the caller's Rng and try_submits clips round-robin for `duration_s`,
// whatever the server's backlog — so a slow server shows up as latency and
// rejections, not as a politely reduced arrival rate. A waiter thread
// claims every accepted ticket as soon as it is issued, so unclaimed
// results never pile up in the server's slot pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/sample.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace lithogan::serve {

struct OpenLoopResult {
  double elapsed_s = 0.0;        ///< length of the arrival window as run
  std::uint64_t completed = 0;   ///< accepted requests, all served and claimed
  std::uint64_t rejected = 0;    ///< admission rejections during the run
  double p50_us = 0.0;           ///< served-latency percentiles
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// [b] = requests that rode in a batch of b; max_batch + 1 entries.
  std::vector<std::uint64_t> batch_hist;

  /// Completed requests per second of arrival window.
  double throughput() const {
    return elapsed_s > 0.0 ? static_cast<double>(completed) / elapsed_s : 0.0;
  }
};

/// Offers `samples` round-robin to `server` at Poisson arrivals of rate
/// `qps` for `duration_s` seconds, then waits for every accepted request.
/// Arrivals are drawn from `rng`, so the same seed replays the same
/// arrival process. `samples` must be non-empty and outlive the call.
OpenLoopResult run_open_loop(Server& server, std::span<const data::Sample> samples,
                             double qps, double duration_s, util::Rng& rng);

}  // namespace lithogan::serve
