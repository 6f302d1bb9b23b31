// Folds a Chrome trace-event JSON file (the --trace output of any
// instrumented binary) into one row per span name: how many spans, their
// self time and their total time, largest self time first. A span's self
// time is its duration minus the durations of the spans nested directly
// inside it on the same thread, so the self column sums to the traced time
// with no span counted twice.
//
//   trace_report --trace out.json [--within chip.tile]
//
// --within NAME keeps only the spans called NAME and the spans nested
// inside one of them, and adds a column of self time per NAME span (per
// tile, for chip.tile). It fails when the trace holds no span called NAME.
// On any thread, two spans that overlap without one nesting inside the
// other are a malformed trace, and the tool fails on them too.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json_verify.hpp"
#include "util/cli.hpp"
#include "util/fileio.hpp"

using lithogan::obs::json::Value;

namespace {

struct SpanEvent {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< summed durations of the directly nested spans
  bool within = false;
};

struct Row {
  std::size_t count = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
};

double number(const Value& e, const char* key) {
  const Value* v = e.get(key);
  if (v == nullptr || !v->is_number()) {
    throw std::runtime_error(std::string("span event without a numeric \"") + key + "\"");
  }
  return v->number;
}

/// The trace writes ts and dur in microseconds with three decimals, so
/// rounding to nanoseconds recovers the recorded integers exactly.
std::int64_t to_ns(double us) { return std::llround(us * 1e3); }

/// Complete ("X") events grouped by thread.
std::map<std::pair<std::int64_t, std::int64_t>, std::vector<SpanEvent>> read_spans(
    const std::string& path) {
  const Value root = lithogan::obs::json::parse(lithogan::util::read_file(path));
  const Value* events = root.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error(path + ": no traceEvents array");
  }
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<SpanEvent>> threads;
  for (const auto& ptr : events->array) {
    const Value& e = *ptr;
    const Value* ph = e.get("ph");
    if (ph == nullptr || !ph->is_string() || ph->string != "X") continue;
    const Value* name = e.get("name");
    if (name == nullptr || !name->is_string()) {
      throw std::runtime_error("span event without a name");
    }
    SpanEvent s;
    s.name = name->string;
    s.start_ns = to_ns(number(e, "ts"));
    s.end_ns = s.start_ns + to_ns(number(e, "dur"));
    threads[{std::llround(number(e, "pid")), std::llround(number(e, "tid"))}].push_back(
        std::move(s));
  }
  return threads;
}

/// Links each thread's spans into their nesting: sorted by start (the
/// longer span first on a tie), each span's parent is the innermost open
/// span that has not ended by its start. Adds each span's duration to its
/// parent's child time and marks the spans that lie inside a span called
/// `within`. Throws on a span that starts inside another and ends after it.
void nest(std::vector<SpanEvent>& spans, const std::string& within) {
  std::sort(spans.begin(), spans.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.end_ns > b.end_ns;
  });
  std::vector<SpanEvent*> open;
  for (SpanEvent& s : spans) {
    while (!open.empty() && open.back()->end_ns <= s.start_ns) open.pop_back();
    SpanEvent* parent = open.empty() ? nullptr : open.back();
    if (parent != nullptr && s.end_ns > parent->end_ns) {
      throw std::runtime_error("spans overlap without nesting: " + parent->name + " [" +
                               std::to_string(parent->start_ns) + ", " +
                               std::to_string(parent->end_ns) + ") ns and " + s.name +
                               " [" + std::to_string(s.start_ns) + ", " +
                               std::to_string(s.end_ns) + ") ns");
    }
    if (parent != nullptr) parent->child_ns += s.end_ns - s.start_ns;
    s.within =
        within.empty() || s.name == within || (parent != nullptr && parent->within);
    open.push_back(&s);
  }
}

void report(const std::string& path, const std::string& within) {
  auto threads = read_spans(path);
  std::map<std::string, Row> rows;
  for (auto& [thread, spans] : threads) {
    nest(spans, within);
    for (const SpanEvent& s : spans) {
      if (!s.within) continue;
      Row& row = rows[s.name];
      ++row.count;
      row.total_ns += s.end_ns - s.start_ns;
      row.self_ns += s.end_ns - s.start_ns - s.child_ns;
    }
  }
  std::size_t per = 0;
  if (!within.empty()) {
    const auto it = rows.find(within);
    if (it == rows.end()) throw std::runtime_error("no span called " + within);
    per = it->second.count;
  }

  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::int64_t self_sum = 0;
  for (const auto& [name, row] : sorted) self_sum += row.self_ns;

  std::printf("%s: %zu thread(s)", path.c_str(), threads.size());
  if (per > 0) std::printf(", %zu %s span(s)", per, within.c_str());
  std::printf("\n%-28s %8s %12s %12s %7s", "span", "count", "self ms", "total ms",
              "self %");
  if (per > 0) std::printf(" %14s", "self ms / each");
  std::printf("\n");
  for (const auto& [name, row] : sorted) {
    const double self_ms = static_cast<double>(row.self_ns) / 1e6;
    std::printf("%-28s %8zu %12.3f %12.3f %6.1f%%", name.c_str(), row.count, self_ms,
                static_cast<double>(row.total_ns) / 1e6,
                self_sum > 0 ? 100.0 * static_cast<double>(row.self_ns) /
                                   static_cast<double>(self_sum)
                             : 0.0);
    if (per > 0) std::printf(" %14.3f", self_ms / static_cast<double>(per));
    std::printf("\n");
  }
  std::printf("%-28s %8s %12.3f", "self total", "",
              static_cast<double>(self_sum) / 1e6);
  if (per > 0) {
    std::printf(" %12s %7s %14.3f", "", "",
                static_cast<double>(self_sum) / 1e6 / static_cast<double>(per));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  lithogan::util::CliParser cli(
      "Fold a --trace file into per-span-name count, self ms and total ms.");
  cli.add_flag("trace", "", "Chrome trace-event JSON file to read")
      .add_flag("within", "",
                "keep only spans called NAME and the spans nested inside them");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.usage().c_str());
    return 2;
  }
  const std::string trace = cli.get("trace");
  if (trace.empty()) {
    std::fprintf(stderr, "trace_report: pass --trace FILE\n");
    return 2;
  }
  try {
    report(trace, cli.get("within"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_report: FAIL: %s\n", e.what());
    return 1;
  }
  return 0;
}
