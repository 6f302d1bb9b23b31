// Machine-readable benchmark output shared by the engineering benches.
//
// Each bench binary appends BenchRecords as it runs and dumps them to a
// BENCH_<name>.json file next to the working directory on exit, so perf
// regressions can be tracked by diffing two JSON files instead of scraping
// console tables. The schema is one object
//   {host: {cpus, simd}, records: [...]}
// where each record is
//   {op, shape, threads, ns_per_iter, gflops_per_s, speedup_vs_1t}.
// gflops_per_s is 0 where no meaningful FLOP count exists (e.g. end-to-end
// flows). speedup_vs_1t is this record's 1-thread baseline time (first
// record with the same op+shape at threads == 1) divided by its own time —
// >1 means scaling helps — and 0 when no baseline was benched. The host
// block pins what machine a trajectory was measured on, so cross-machine
// diffs are recognizable as such. A trailing "metrics" block snapshots the
// process-wide obs::Registry counters that explain perf deltas: FFT and
// conv plan cache hits/misses, the thread pool's inline-vs-dispatch
// decisions, and trace-ring wraparound losses (trace.spans_dropped) so a
// bench run that overflowed its span rings is visibly flagged.
#pragma once

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "math/gemm.hpp"
#include "obs/json_verify.hpp"
#include "obs/metrics.hpp"

namespace lithogan::bench {

struct BenchRecord {
  std::string op;     ///< operation name, e.g. "gemm" or "rigorous_sim"
  std::string shape;  ///< problem shape, e.g. "256" or "4x16x64x64"
  std::size_t threads = 1;
  double ns_per_iter = 0.0;
  double gflops_per_s = 0.0;
};

/// 1-thread ns_per_iter for (op, shape), or 0 if none was benched.
inline double baseline_1t(const std::vector<BenchRecord>& records,
                          const BenchRecord& r) {
  for (const BenchRecord& b : records) {
    if (b.threads == 1 && b.op == r.op && b.shape == r.shape) return b.ns_per_iter;
  }
  return 0.0;
}

/// Writes `records` to `path` (schema above). op/shape must not contain
/// characters needing JSON escaping (they are controlled identifiers).
/// Returns false if the file could not be written.
///
/// Merge semantics: when `path` already holds a bench JSON, the result is a
/// single document with ONE host block — new records replace existing rows
/// with the same (op, shape, threads) key and every other existing row is
/// kept (speedup_vs_1t is recomputed over the merged set). So a filtered
/// re-run (say, one micro_nn benchmark) updates its rows in place instead
/// of clobbering the rest of the file.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  obs::json::Value existing;
  if (std::FILE* in = std::fopen(path.c_str(), "rb")) {
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) text.append(buf, n);
    std::fclose(in);
    try {
      existing = obs::json::parse(text);
    } catch (const obs::json::ParseError&) {
      existing = obs::json::Value();  // malformed predecessor: start fresh
    }
  }

  const auto key = [](const BenchRecord& r) {
    return r.op + '|' + r.shape + '|' + std::to_string(r.threads);
  };
  std::set<std::string> new_keys;
  for (const BenchRecord& r : records) {
    new_keys.insert(key(r));
  }
  std::vector<BenchRecord> merged;
  if (const obs::json::Value* old = existing.get("records"); old && old->is_array()) {
    for (const auto& entry : old->array) {
      if (!entry->is_object()) continue;
      BenchRecord b;
      if (const auto* v = entry->get("op")) b.op = v->string;
      if (const auto* v = entry->get("shape")) b.shape = v->string;
      if (const auto* v = entry->get("threads")) {
        b.threads = static_cast<std::size_t>(v->number);
      }
      if (const auto* v = entry->get("ns_per_iter")) b.ns_per_iter = v->number;
      if (const auto* v = entry->get("gflops_per_s")) b.gflops_per_s = v->number;
      if (new_keys.count(key(b)) == 0) {
        merged.push_back(std::move(b));
      }
    }
  }
  merged.insert(merged.end(), records.begin(), records.end());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"host\": {\"cpus\": %u, \"simd\": \"%s\"},\n  \"records\": [\n",
               std::thread::hardware_concurrency(), math::simd_level());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const BenchRecord& r = merged[i];
    const double base = baseline_1t(merged, r);
    const double speedup =
        (base > 0.0 && r.ns_per_iter > 0.0) ? base / r.ns_per_iter : 0.0;
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"shape\": \"%s\", \"threads\": %zu, "
                 "\"ns_per_iter\": %.3f, \"gflops_per_s\": %.3f, "
                 "\"speedup_vs_1t\": %.3f}%s\n",
                 r.op.c_str(), r.shape.c_str(), r.threads, r.ns_per_iter,
                 r.gflops_per_s, speedup, i + 1 < merged.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  obs::Registry& reg = obs::Registry::global();
  std::fprintf(f,
               "  \"metrics\": {\"fft.plan_cache.hit\": %llu, "
               "\"fft.plan_cache.miss\": %llu, \"conv.plan_cache.hit\": %llu, "
               "\"conv.plan_cache.miss\": %llu, "
               "\"threadpool.jobs_inlined\": %llu, "
               "\"threadpool.jobs_dispatched\": %llu, "
               "\"trace.spans_dropped\": %llu, "
               "\"infer.weight_bytes\": %.0f}\n}\n",
               static_cast<unsigned long long>(reg.counter_value("fft.plan_cache.hit")),
               static_cast<unsigned long long>(reg.counter_value("fft.plan_cache.miss")),
               static_cast<unsigned long long>(reg.counter_value("conv.plan_cache.hit")),
               static_cast<unsigned long long>(reg.counter_value("conv.plan_cache.miss")),
               static_cast<unsigned long long>(reg.counter_value("threadpool.jobs_inlined")),
               static_cast<unsigned long long>(
                   reg.counter_value("threadpool.jobs_dispatched")),
               static_cast<unsigned long long>(
                   reg.counter_value("trace.spans_dropped")),
               reg.gauge("infer.weight_bytes").value());
  return std::fclose(f) == 0;
}

}  // namespace lithogan::bench
