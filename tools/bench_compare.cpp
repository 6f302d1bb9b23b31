// Regression diff for two BENCH_*.json files (bench/bench_json.hpp
// schema). Rows are matched by their (op, shape, threads) key — the n-th
// row of a repeated key with the n-th row of that key on the other side,
// since micro_nn labels its serial and one-worker runs both threads=1 — and
// a matched row regresses when the candidate's ns_per_iter exceeds the
// baseline's by more than --max-regress-pct percent. Unmatched rows on either side are
// reported but never fail the comparison — benches grow and retire
// shapes, and a key that disappeared is a coverage change, not a
// slowdown. Host blocks are printed when they differ so a cross-machine
// diff is recognizable as such.
//
//   bench_compare --base BENCH_micro_nn.json --candidate BENCH_micro_nn.new.json
//                 --max-regress-pct 10
//
// Exit codes: 0 = no regression, 1 = at least one matched row regressed,
// 2 = usage/parse error. --selftest runs the comparison logic against
// in-memory documents and needs no files.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_verify.hpp"
#include "util/cli.hpp"

using lithogan::obs::json::Value;

namespace {

struct BenchDoc {
  std::string host;  ///< "cpus=N simd=..." summary for mismatch reporting
  /// ns_per_iter keyed by op|shape|threads, with "#n" on the n-th repeat.
  std::map<std::string, double> rows;
};

BenchDoc parse_bench(const Value& root, const std::string& label) {
  if (root.kind != Value::Kind::kObject) {
    throw std::runtime_error(label + ": top level is not an object");
  }
  BenchDoc doc;
  if (const Value* host = root.get("host"); host != nullptr && host->is_object()) {
    std::ostringstream os;
    if (const Value* cpus = host->get("cpus")) os << "cpus=" << cpus->number;
    if (const Value* simd = host->get("simd")) os << " simd=" << simd->string;
    doc.host = os.str();
  }
  const Value* records = root.get("records");
  if (records == nullptr || !records->is_array()) {
    throw std::runtime_error(label + ": missing records array");
  }
  std::map<std::string, int> repeats;
  for (const auto& entry : records->array) {
    if (!entry->is_object()) continue;
    const Value* op = entry->get("op");
    const Value* shape = entry->get("shape");
    const Value* threads = entry->get("threads");
    const Value* ns = entry->get("ns_per_iter");
    if (op == nullptr || shape == nullptr || threads == nullptr || ns == nullptr) {
      continue;
    }
    std::string key = op->string + '|' + shape->string + '|' +
                      std::to_string(static_cast<long long>(threads->number));
    if (const int n = ++repeats[key]; n > 1) key += '#' + std::to_string(n);
    doc.rows[key] = ns->number;
  }
  return doc;
}

struct CompareResult {
  std::size_t matched = 0;
  std::size_t base_only = 0;
  std::size_t candidate_only = 0;
  std::vector<std::string> regressions;  ///< human-readable, one per bad row
};

/// Core comparison: a matched row regresses when the candidate's
/// ns_per_iter exceeds base * (1 + pct/100). Rows with a non-positive
/// baseline are skipped — a 0 row is a placeholder, and a ratio against it
/// is meaningless.
CompareResult compare(const BenchDoc& base, const BenchDoc& candidate,
                      double max_regress_pct) {
  CompareResult result;
  const double limit = 1.0 + max_regress_pct / 100.0;
  for (const auto& [key, base_ns] : base.rows) {
    const auto it = candidate.rows.find(key);
    if (it == candidate.rows.end()) {
      ++result.base_only;
      continue;
    }
    ++result.matched;
    if (base_ns <= 0.0) continue;
    const double ratio = it->second / base_ns;
    if (ratio > limit) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s: %.0f -> %.0f ns/iter (%+.1f%%, budget %.1f%%)",
                    key.c_str(), base_ns, it->second, (ratio - 1.0) * 100.0,
                    max_regress_pct);
      result.regressions.push_back(buf);
    }
  }
  for (const auto& [key, ns] : candidate.rows) {
    if (base.rows.find(key) == base.rows.end()) ++result.candidate_only;
  }
  return result;
}

Value parse_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return lithogan::obs::json::parse(ss.str());
}

int selftest() {
  const auto doc = [](const char* text) {
    return parse_bench(lithogan::obs::json::parse(text), "selftest");
  };
  const BenchDoc base = doc(
      "{\"host\": {\"cpus\": 1, \"simd\": \"scalar\"}, \"records\": ["
      "{\"op\": \"gemm\", \"shape\": \"256\", \"threads\": 1,"
      " \"ns_per_iter\": 1000.0},"
      "{\"op\": \"gemm\", \"shape\": \"512\", \"threads\": 1,"
      " \"ns_per_iter\": 8000.0},"
      "{\"op\": \"gemm\", \"shape\": \"512\", \"threads\": 1,"
      " \"ns_per_iter\": 2000.0},"
      "{\"op\": \"conv\", \"shape\": \"64\", \"threads\": 2,"
      " \"ns_per_iter\": 500.0},"
      "{\"op\": \"retired\", \"shape\": \"1\", \"threads\": 1,"
      " \"ns_per_iter\": 10.0}]}");
  const BenchDoc cand = doc(
      "{\"host\": {\"cpus\": 1, \"simd\": \"scalar\"}, \"records\": ["
      "{\"op\": \"gemm\", \"shape\": \"256\", \"threads\": 1,"
      " \"ns_per_iter\": 1040.0},"  // +4%: within a 5% budget, over a 2% one
      "{\"op\": \"gemm\", \"shape\": \"512\", \"threads\": 1,"
      " \"ns_per_iter\": 7000.0},"  // improvement: never a regression
      "{\"op\": \"gemm\", \"shape\": \"512\", \"threads\": 1,"
      " \"ns_per_iter\": 2500.0},"  // the repeat, +25%: judged on its own
      "{\"op\": \"conv\", \"shape\": \"64\", \"threads\": 2,"
      " \"ns_per_iter\": 800.0},"   // +60%: regression under any sane budget
      "{\"op\": \"new\", \"shape\": \"9\", \"threads\": 1,"
      " \"ns_per_iter\": 3.0}]}");

  const auto check = [](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench_compare selftest FAIL: %s\n", what);
      std::exit(1);
    }
  };
  CompareResult loose = compare(base, cand, 100.0);
  check(loose.matched == 4, "matched count (a repeated key matches twice)");
  check(loose.base_only == 1 && loose.candidate_only == 1, "unmatched counts");
  check(loose.regressions.empty(), "no regressions at +100%");
  CompareResult tight = compare(base, cand, 5.0);
  check(tight.regressions.size() == 2, "two regressions at 5% (conv, gemm 512 repeat)");
  check(tight.regressions[0].find("conv|64|2") != std::string::npos &&
            tight.regressions[1].find("gemm|512|1#2") != std::string::npos,
        "regressions name the conv row and the second gemm 512 row");
  CompareResult strict = compare(base, cand, 2.0);
  check(strict.regressions.size() == 3, "three regressions at 2%");
  check(compare(base, base, 0.0).regressions.empty(), "self-compare is clean");
  std::printf("bench_compare selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  lithogan::util::CliParser cli(
      "Diff two BENCH_*.json files and fail on throughput regressions.");
  cli.add_flag("base", "", "baseline bench JSON")
      .add_flag("candidate", "", "candidate bench JSON to judge against the baseline")
      .add_flag("max-regress-pct", "10",
                "allowed ns_per_iter growth per matched (op,shape,threads) row, "
                "in percent")
      .add_flag("selftest", "0", "run the in-memory comparison selftest and exit");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.usage().c_str());
    return 2;
  }
  if (cli.get_int("selftest") != 0) return selftest();
  const std::string base_path = cli.get("base");
  const std::string cand_path = cli.get("candidate");
  if (base_path.empty() || cand_path.empty()) {
    std::fprintf(stderr, "bench_compare: both --base and --candidate are required\n");
    return 2;
  }
  try {
    const BenchDoc base = parse_bench(parse_file(base_path), base_path);
    const BenchDoc cand = parse_bench(parse_file(cand_path), cand_path);
    if (!base.host.empty() && base.host != cand.host) {
      std::printf("note: host mismatch (base %s, candidate %s) — deltas may be "
                  "machine, not code\n",
                  base.host.c_str(), cand.host.c_str());
    }
    const CompareResult result =
        compare(base, cand, cli.get_double("max-regress-pct"));
    std::printf("bench_compare: %zu matched rows (%zu base-only, %zu "
                "candidate-only)\n",
                result.matched, result.base_only, result.candidate_only);
    if (result.matched == 0) {
      std::fprintf(stderr, "bench_compare: no comparable rows between %s and %s\n",
                   base_path.c_str(), cand_path.c_str());
      return 2;
    }
    for (const std::string& r : result.regressions) {
      std::printf("REGRESSION %s\n", r.c_str());
    }
    if (!result.regressions.empty()) {
      std::fprintf(stderr, "bench_compare: %zu regression(s)\n",
                   result.regressions.size());
      return 1;
    }
    std::printf("bench_compare: OK\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: FAIL: %s\n", e.what());
    return 2;
  }
  return 0;
}
