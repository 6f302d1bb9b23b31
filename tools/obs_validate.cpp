// Schema validator for the observability outputs, used by the obs-smoke
// ctest entries: parses a Chrome trace-event JSON file and/or a metrics
// JSONL file with the in-tree parser (src/obs/json_verify.hpp) and checks
// the invariants the exporters promise:
//
//   trace:   top-level {"traceEvents": [...]}; every event has a string
//            "ph"; "X" events carry name/pid/tid/ts/dur with ts/dur >= 0;
//            "s"/"f" flow records carry name/cat/id/pid/tid/ts; at least
//            one "M" thread_name metadata record exists, so Perfetto
//            shows named tracks.
//   flow:    request flows in a trace are well-formed — every flow-finish
//            ("f") shares its correlation id with a flow-start ("s") that
//            precedes it, i.e. every completed request's submit and
//            complete spans carry one id. Flow-starts without a finish are
//            tolerated: requests in flight at export time and spans lost
//            to ring wraparound legitimately leave an unmatched start.
//            --flow-min N additionally requires >= N fully-matched flows.
//   metrics: every line is one object with a "host" block ({cpus, simd})
//            and "counters"/"gauges"/"histograms" objects; histogram
//            bucket-count arrays are one longer than their bounds
//            (overflow bucket).
//   exporter-jsonl: every line is one delta window from obs::Exporter —
//            consecutive indices from 0, end_ms >= start_ms, counter
//            deltas/rates >= 0, monotone window quantiles p50 <= p95 <=
//            p99, and the last line is the drain window (final: true).
//
//   obs_validate --trace out.json --flow out.json --metrics out.jsonl
//                --exporter-jsonl windows.jsonl
//
// Exits nonzero with a message on the first violation.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json_verify.hpp"
#include "util/cli.hpp"

using lithogan::obs::json::Value;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

const Value& field(const Value& obj, const char* key, const std::string& where) {
  const Value* v = obj.get(key);
  require(v != nullptr, where + ": missing \"" + key + "\"");
  return *v;
}

void validate_trace(const std::string& path) {
  const Value root = lithogan::obs::json::parse(read_file(path));
  require(root.kind == Value::Kind::kObject, "trace: top level is not an object");
  const Value& events = field(root, "traceEvents", "trace");
  require(events.kind == Value::Kind::kArray, "trace: traceEvents is not an array");

  std::size_t complete = 0;
  std::size_t flows = 0;
  std::size_t thread_names = 0;
  for (std::size_t i = 0; i < events.array.size(); ++i) {
    const Value& e = *events.array[i];
    const std::string where = "trace event " + std::to_string(i);
    require(e.kind == Value::Kind::kObject, where + ": not an object");
    const Value& ph = field(e, "ph", where);
    require(ph.kind == Value::Kind::kString, where + ": ph is not a string");
    if (ph.string == "X") {
      ++complete;
      require(field(e, "name", where).kind == Value::Kind::kString,
              where + ": name is not a string");
      for (const char* k : {"pid", "tid", "ts", "dur"}) {
        const Value& n = field(e, k, where);
        require(n.kind == Value::Kind::kNumber,
                where + ": " + k + " is not a number");
        require(n.number >= 0.0, where + ": " + k + " is negative");
      }
    } else if (ph.string == "s" || ph.string == "f") {
      ++flows;
      require(field(e, "name", where).kind == Value::Kind::kString,
              where + ": name is not a string");
      require(field(e, "cat", where).kind == Value::Kind::kString,
              where + ": cat is not a string");
      require(field(e, "id", where).kind == Value::Kind::kString,
              where + ": id is not a string");
      for (const char* k : {"pid", "tid", "ts"}) {
        const Value& n = field(e, k, where);
        require(n.kind == Value::Kind::kNumber && n.number >= 0.0,
                where + ": " + k + " is not a non-negative number");
      }
    } else if (ph.string == "M") {
      const Value& name = field(e, "name", where);
      require(name.kind == Value::Kind::kString, where + ": name is not a string");
      if (name.string == "thread_name") ++thread_names;
    } else {
      throw std::runtime_error(where + ": unexpected ph \"" + ph.string + "\"");
    }
  }
  require(thread_names >= 1, "trace: no thread_name metadata record");
  std::printf("trace OK: %s (%zu complete events, %zu flow records, "
              "%zu named tracks)\n",
              path.c_str(), complete, flows, thread_names);
}

/// One correlation id's flow records: earliest start and latest/earliest
/// finish timestamps seen.
struct FlowGroup {
  std::size_t starts = 0;
  std::size_t finishes = 0;
  double max_start_ts = 0.0;
  double min_finish_ts = 0.0;
};

void validate_flow(const std::string& path, std::int64_t min_matched) {
  const Value root = lithogan::obs::json::parse(read_file(path));
  require(root.kind == Value::Kind::kObject, "flow: top level is not an object");
  const Value& events = field(root, "traceEvents", "flow");
  require(events.kind == Value::Kind::kArray, "flow: traceEvents is not an array");

  std::map<std::string, FlowGroup> groups;
  for (std::size_t i = 0; i < events.array.size(); ++i) {
    const Value& e = *events.array[i];
    const std::string where = "flow event " + std::to_string(i);
    if (e.kind != Value::Kind::kObject) continue;
    const Value* ph = e.get("ph");
    if (ph == nullptr || ph->kind != Value::Kind::kString) continue;
    if (ph->string != "s" && ph->string != "f") continue;
    const Value& id = field(e, "id", where);
    require(id.kind == Value::Kind::kString, where + ": id is not a string");
    const Value& ts = field(e, "ts", where);
    require(ts.kind == Value::Kind::kNumber, where + ": ts is not a number");
    FlowGroup& g = groups[id.string];
    if (ph->string == "s") {
      if (g.starts == 0 || ts.number > g.max_start_ts) g.max_start_ts = ts.number;
      ++g.starts;
    } else {
      if (g.finishes == 0 || ts.number < g.min_finish_ts) g.min_finish_ts = ts.number;
      ++g.finishes;
    }
  }

  std::size_t matched = 0;
  std::size_t unmatched_starts = 0;
  for (const auto& [id, g] : groups) {
    // A finish with no start means the correlation id was never stamped on
    // the submit side — broken propagation, not a benign drop.
    require(g.finishes == 0 || g.starts > 0,
            "flow id " + id + ": flow-finish with no flow-start");
    if (g.starts > 0 && g.finishes > 0) {
      require(g.max_start_ts <= g.min_finish_ts,
              "flow id " + id + ": flow-finish precedes its flow-start");
      ++matched;
    } else if (g.starts > 0) {
      ++unmatched_starts;  // in flight at export, or finish lost to wraparound
    }
  }
  require(static_cast<std::int64_t>(matched) >= min_matched,
          "flow: only " + std::to_string(matched) + " matched flows, need >= " +
              std::to_string(min_matched));
  std::printf("flow OK: %s (%zu matched request flows, %zu in-flight/unmatched "
              "starts)\n",
              path.c_str(), matched, unmatched_starts);
}

void validate_exporter_jsonl(const std::string& path) {
  std::ifstream is(path);
  require(static_cast<bool>(is), "cannot open " + path);
  std::string line;
  std::size_t lines = 0;
  bool last_final = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::string where = "exporter window " + std::to_string(lines);
    const Value root = lithogan::obs::json::parse(line);
    require(root.kind == Value::Kind::kObject, where + ": not an object");

    const Value& w = field(root, "window", where);
    require(w.kind == Value::Kind::kObject, where + ": window is not an object");
    const Value& index = field(w, "index", where);
    require(index.kind == Value::Kind::kNumber &&
                index.number == static_cast<double>(lines),
            where + ": window indices are not consecutive from 0");
    const Value& start_ms = field(w, "start_ms", where);
    const Value& end_ms = field(w, "end_ms", where);
    require(start_ms.kind == Value::Kind::kNumber &&
                end_ms.kind == Value::Kind::kNumber,
            where + ": start_ms/end_ms are not numbers");
    require(end_ms.number >= start_ms.number, where + ": end_ms < start_ms");
    const Value& final_flag = field(w, "final", where);
    require(final_flag.kind == Value::Kind::kBool, where + ": final is not a bool");
    last_final = final_flag.boolean;

    const Value& counters = field(root, "counters", where);
    require(counters.kind == Value::Kind::kObject,
            where + ": counters is not an object");
    for (const auto& [name, cp] : counters.object) {
      const std::string cw = where + " counter " + name;
      require(cp->kind == Value::Kind::kObject, cw + ": not an object");
      for (const char* k : {"delta", "rate_per_s"}) {
        const Value& n = field(*cp, k, cw);
        require(n.kind == Value::Kind::kNumber && n.number >= 0.0,
                cw + ": " + k + " is not a non-negative number");
      }
    }
    const Value& gauges = field(root, "gauges", where);
    require(gauges.kind == Value::Kind::kObject, where + ": gauges is not an object");
    for (const auto& [name, gp] : gauges.object) {
      require(gp->kind == Value::Kind::kNumber || gp->kind == Value::Kind::kNull,
              where + " gauge " + name + ": not a number");
    }
    const Value& histograms = field(root, "histograms", where);
    require(histograms.kind == Value::Kind::kObject,
            where + ": histograms is not an object");
    for (const auto& [name, hp] : histograms.object) {
      const std::string hw = where + " histogram " + name;
      require(hp->kind == Value::Kind::kObject, hw + ": not an object");
      const Value& count = field(*hp, "count", hw);
      require(count.kind == Value::Kind::kNumber && count.number >= 0.0,
              hw + ": count is not a non-negative number");
      require(field(*hp, "sum", hw).kind == Value::Kind::kNumber,
              hw + ": sum is not a number");
      double q[3] = {0, 0, 0};
      const char* keys[3] = {"p50", "p95", "p99"};
      for (int k = 0; k < 3; ++k) {
        const Value& n = field(*hp, keys[k], hw);
        require(n.kind == Value::Kind::kNumber, hw + ": " + keys[k] + " is not a number");
        q[k] = n.number;
      }
      require(q[0] <= q[1] && q[1] <= q[2], hw + ": window quantiles not monotone");
    }
    ++lines;
  }
  require(lines >= 1, "exporter-jsonl: file has no window lines");
  require(last_final, "exporter-jsonl: last window is not the drain window "
                      "(final: true) — shutdown did not drain");
  std::printf("exporter-jsonl OK: %s (%zu windows, drained)\n", path.c_str(), lines);
}

void validate_metrics(const std::string& path) {
  std::ifstream is(path);
  require(static_cast<bool>(is), "cannot open " + path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::string where = "metrics line " + std::to_string(lines);
    const Value root = lithogan::obs::json::parse(line);
    require(root.kind == Value::Kind::kObject, where + ": not an object");

    const Value& host = field(root, "host", where);
    require(host.kind == Value::Kind::kObject, where + ": host is not an object");
    require(field(host, "cpus", where).kind == Value::Kind::kNumber,
            where + ": host.cpus is not a number");
    require(field(host, "simd", where).kind == Value::Kind::kString,
            where + ": host.simd is not a string");

    for (const char* section : {"counters", "gauges", "histograms"}) {
      require(field(root, section, where).kind == Value::Kind::kObject,
              where + ": " + section + " is not an object");
    }
    const Value& histograms = *root.get("histograms");
    for (const auto& [name, hp] : histograms.object) {
      const Value& h = *hp;
      const std::string hw = where + " histogram " + name;
      require(h.kind == Value::Kind::kObject, hw + ": not an object");
      const Value& bounds = field(h, "bounds", hw);
      const Value& counts = field(h, "counts", hw);
      require(bounds.kind == Value::Kind::kArray && counts.kind == Value::Kind::kArray,
              hw + ": bounds/counts are not arrays");
      require(counts.array.size() == bounds.array.size() + 1,
              hw + ": counts must be bounds + overflow bucket");
    }
  }
  require(lines >= 1, "metrics: file has no snapshot lines");
  std::printf("metrics OK: %s (%zu snapshot lines)\n", path.c_str(), lines);
}

}  // namespace

int main(int argc, char** argv) {
  lithogan::util::CliParser cli("Validate observability outputs (trace JSON, metrics JSONL).");
  cli.add_flag("trace", "", "Chrome trace-event JSON file to validate")
      .add_flag("flow", "",
                "trace JSON whose request flows to validate (correlation-ID "
                "matching between flow-starts and flow-finishes)")
      .add_flag("flow-min", "0", "minimum fully-matched request flows for --flow")
      .add_flag("metrics", "", "metrics JSONL file to validate")
      .add_flag("exporter-jsonl", "",
                "windowed-exporter JSONL file to validate (obs::Exporter)");
  if (!cli.parse(argc, argv)) {
    std::printf("%s", cli.usage().c_str());
    return 2;
  }
  try {
    const std::string trace = cli.get("trace");
    const std::string flow = cli.get("flow");
    const std::string metrics = cli.get("metrics");
    const std::string exporter_jsonl = cli.get("exporter-jsonl");
    if (trace.empty() && flow.empty() && metrics.empty() && exporter_jsonl.empty()) {
      std::fprintf(stderr,
                   "obs_validate: nothing to do (pass --trace, --flow, --metrics "
                   "and/or --exporter-jsonl)\n");
      return 2;
    }
    if (!trace.empty()) validate_trace(trace);
    if (!flow.empty()) validate_flow(flow, cli.get_int("flow-min"));
    if (!metrics.empty()) validate_metrics(metrics);
    if (!exporter_jsonl.empty()) validate_exporter_jsonl(exporter_jsonl);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_validate: FAIL: %s\n", e.what());
    return 1;
  }
  return 0;
}
