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
  std::string dtype = "f32";  ///< weight/compute dtype of this row
  /// Regression direction of ns_per_iter for cross-run comparison: "lower"
  /// (the default — a time, bigger is worse) or "higher" (a rate such as
  /// contacts/s stored in ns_per_iter's slot, smaller is worse). The op
  /// name states the unit for "higher" records. tools/bench_compare flips
  /// its regression test per record based on this field.
  std::string dir = "lower";
};

/// 1-thread ns_per_iter for (op, shape), or 0 if none was benched.
inline double baseline_1t(const std::vector<BenchRecord>& records,
                          const BenchRecord& r) {
  for (const BenchRecord& b : records) {
    if (b.threads == 1 && b.op == r.op && b.shape == r.shape) return b.ns_per_iter;
  }
  return 0.0;
}

namespace detail {

/// Re-serializes a parsed JSON value (used to carry another bench's
/// top-level blocks through a merge unchanged).
inline void dump_value(std::FILE* f, const obs::json::Value& v) {
  using Kind = obs::json::Value::Kind;
  switch (v.kind) {
    case Kind::kNull:
      std::fprintf(f, "null");
      break;
    case Kind::kBool:
      std::fprintf(f, v.boolean ? "true" : "false");
      break;
    case Kind::kNumber:
      std::fprintf(f, "%.10g", v.number);
      break;
    case Kind::kString:
      std::fprintf(f, "\"%s\"", v.string.c_str());
      break;
    case Kind::kArray: {
      std::fprintf(f, "[");
      bool first = true;
      for (const auto& e : v.array) {
        std::fprintf(f, first ? "" : ", ");
        dump_value(f, *e);
        first = false;
      }
      std::fprintf(f, "]");
      break;
    }
    case Kind::kObject: {
      std::fprintf(f, "{");
      bool first = true;
      for (const auto& [key, value] : v.object) {
        std::fprintf(f, "%s\"%s\": ", first ? "" : ", ", key.c_str());
        dump_value(f, *value);
        first = false;
      }
      std::fprintf(f, "}");
      break;
    }
  }
}

inline std::string record_key(const std::string& op, const std::string& shape,
                              std::size_t threads, const std::string& dtype) {
  return op + '|' + shape + '|' + std::to_string(threads) + '|' +
         (dtype.empty() ? "f32" : dtype);
}

}  // namespace detail

/// Writes `records` to `path` (schema above). op/shape must not contain
/// characters needing JSON escaping (they are controlled identifiers).
/// Returns false if the file could not be written.
///
/// Merge semantics: when `path` already holds a bench JSON, the result is a
/// single document with ONE host block — new records replace existing rows
/// with the same (op, shape, threads, dtype) key, every other existing row
/// is kept (speedup_vs_1t is recomputed over the merged set), and top-level
/// blocks another bench wrote (e.g. "serve") are carried through untouched.
/// So several benches pointed at one file — or one bench re-run — compose
/// instead of clobbering or duplicating the host block. `extra_name` /
/// `extra_json` optionally attach one caller-owned top-level block
/// (extra_json must be a complete JSON value); it replaces any previous
/// block of the same name.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records,
                             const std::string& extra_name = std::string(),
                             const std::string& extra_json = std::string()) {
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

  std::set<std::string> new_keys;
  for (const BenchRecord& r : records) {
    new_keys.insert(detail::record_key(r.op, r.shape, r.threads, r.dtype));
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
      if (const auto* v = entry->get("dtype")) b.dtype = v->string;
      if (b.dtype.empty()) b.dtype = "f32";
      if (const auto* v = entry->get("ns_per_iter")) b.ns_per_iter = v->number;
      if (const auto* v = entry->get("gflops_per_s")) b.gflops_per_s = v->number;
      if (const auto* v = entry->get("dir")) b.dir = v->string;
      if (b.dir.empty()) b.dir = "lower";
      if (new_keys.count(detail::record_key(b.op, b.shape, b.threads, b.dtype)) == 0) {
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
                 "\"dtype\": \"%s\", \"dir\": \"%s\", \"ns_per_iter\": %.3f, "
                 "\"gflops_per_s\": %.3f, \"speedup_vs_1t\": %.3f}%s\n",
                 r.op.c_str(), r.shape.c_str(), r.threads,
                 r.dtype.empty() ? "f32" : r.dtype.c_str(),
                 r.dir.empty() ? "lower" : r.dir.c_str(), r.ns_per_iter,
                 r.gflops_per_s, speedup, i + 1 < merged.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (existing.is_object()) {
    for (const auto& [key, value] : existing.object) {
      if (key == "host" || key == "records" || key == "metrics" || key == extra_name) {
        continue;
      }
      std::fprintf(f, "  \"%s\": ", key.c_str());
      detail::dump_value(f, *value);
      std::fprintf(f, ",\n");
    }
  }
  if (!extra_name.empty() && !extra_json.empty()) {
    std::fprintf(f, "  \"%s\": %s,\n", extra_name.c_str(), extra_json.c_str());
  }
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
