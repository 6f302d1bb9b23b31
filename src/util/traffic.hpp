// Shared open-loop traffic plumbing for the serving-style binaries
// (serve::run_open_loop behind litho_serve and litho_chip --mode serve;
// lithobench takes its percentile): the Poisson arrival draw, the
// order-statistic percentile, and the common CLI flag block (offered load,
// duration, scheduler knobs, seed), so each new load generator stops
// growing its own copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"

namespace lithogan::util {

/// Knobs every open-loop load generator shares. Field defaults are the
/// flag defaults unless a caller passes its own to add_traffic_flags.
struct TrafficOptions {
  double qps = 100.0;           ///< offered load, requests per second
  double duration_s = 3.0;      ///< traffic duration
  std::size_t batch = 16;       ///< scheduler max batch size B
  std::size_t wait_us = 2000;   ///< scheduler max wait T for the oldest request
  std::size_t queue_cap = 256;  ///< admission-control queue capacity
  std::size_t threads = 1;      ///< worker threads
  std::uint64_t seed = 42;      ///< traffic RNG seed
};

/// Registers --qps, --duration-s, --batch, --wait-us, --queue-cap,
/// --threads and --seed with `defaults` as the default values.
void add_traffic_flags(CliParser& cli, const TrafficOptions& defaults = {});

/// Reads the flags registered by add_traffic_flags back into a
/// TrafficOptions (clamping qps >= 1 and duration >= 0.1 as the serving
/// demo always has).
TrafficOptions read_traffic_flags(const CliParser& cli);

/// One exponential inter-arrival gap (seconds) of a Poisson process at
/// `rate_per_s`: -ln(1 - U) / rate.
double poisson_gap_s(Rng& rng, double rate_per_s);

/// The q-th percentile as the floor(q * (n-1))-th order statistic, via
/// nth_element — partially reorders `v`. 0 when empty.
double percentile(std::vector<double>& v, double q);

}  // namespace lithogan::util
