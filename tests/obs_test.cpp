// Observability layer tests: span recording semantics (nesting, ring
// wraparound, mid-run toggling), Chrome trace-event export well-formedness
// (parsed with the in-tree JSON verifier), registry atomicity under the
// thread pool (tier2 / TSan), and the key product guarantee — tracing a
// run_batch changes nothing about its results.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "geometry/primitives.hpp"
#include "litho/simulator.hpp"
#include "obs/json_verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/exec_context.hpp"
#include "util/thread_pool.hpp"

namespace obs = lithogan::obs;
namespace util = lithogan::util;
namespace litho = lithogan::litho;
namespace geometry = lithogan::geometry;

namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// RAII guard: every test leaves tracing disabled and the rings empty so
/// tests stay order-independent.
struct TraceSandbox {
  TraceSandbox() {
    obs::set_trace_enabled(false);
    obs::TraceRecorder::instance().clear();
  }
  ~TraceSandbox() {
    obs::set_trace_enabled(false);
    obs::TraceRecorder::instance().clear();
  }
};

struct ParsedEvent {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  double tid = -1.0;
};

/// All "X" events from a Chrome trace file, in file order.
std::vector<ParsedEvent> parse_complete_events(const std::string& path) {
  const obs::json::Value root = obs::json::parse(read_file(path));
  EXPECT_TRUE(root.is_object());
  const obs::json::Value* events = root.get("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  std::vector<ParsedEvent> out;
  for (const auto& ep : events->array) {
    const obs::json::Value& e = *ep;
    const obs::json::Value* ph = e.get("ph");
    if (ph == nullptr || ph->string != "X") continue;
    ParsedEvent p;
    p.name = e.get("name")->string;
    p.ts = e.get("ts")->number;
    p.dur = e.get("dur")->number;
    p.tid = e.get("tid")->number;
    out.push_back(p);
  }
  return out;
}

}  // namespace

TEST(ObsTrace, SpanNestingAndOrdering) {
  TraceSandbox sandbox;
  obs::set_trace_enabled(true);
  {
    const obs::Span outer("outer");
    {
      const obs::Span inner("inner");
    }
    {
      const obs::Span inner2("inner2");
    }
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::TraceRecorder::instance().total_events(), 3u);

  const std::string path = temp_path("obs_nesting_trace.json");
  ASSERT_TRUE(obs::TraceRecorder::instance().write_chrome_trace(path));
  const auto events = parse_complete_events(path);
  ASSERT_EQ(events.size(), 3u);

  // Rings hold spans in completion order: inner before inner2 before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "inner2");
  EXPECT_EQ(events[2].name, "outer");

  // Nesting: both inner spans lie inside [outer.ts, outer.ts + outer.dur],
  // and inner2 starts no earlier than inner ends.
  const ParsedEvent& outer = events[2];
  for (const ParsedEvent* inner : {&events[0], &events[1]}) {
    EXPECT_GE(inner->ts, outer.ts);
    EXPECT_LE(inner->ts + inner->dur, outer.ts + outer.dur);
    EXPECT_EQ(inner->tid, outer.tid);
  }
  EXPECT_GE(events[1].ts, events[0].ts + events[0].dur);
}

TEST(ObsTrace, RingBufferWraparound) {
  TraceSandbox sandbox;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  const std::size_t extra = 123;
  for (std::size_t i = 0; i < obs::TraceRecorder::kRingCapacity + extra; ++i) {
    rec.record("wrap", i, 1);
  }
  EXPECT_EQ(rec.total_events(), obs::TraceRecorder::kRingCapacity);
  EXPECT_EQ(rec.total_dropped(), extra);

  // The export retains the newest kRingCapacity spans: the oldest surviving
  // start must be exactly `extra` (spans 0..extra-1 were overwritten).
  const std::string path = temp_path("obs_wrap_trace.json");
  ASSERT_TRUE(rec.write_chrome_trace(path));
  const auto events = parse_complete_events(path);
  ASSERT_EQ(events.size(), obs::TraceRecorder::kRingCapacity);
  double min_ts = 1e300;
  for (const ParsedEvent& e : events) min_ts = std::min(min_ts, e.ts);
  EXPECT_DOUBLE_EQ(min_ts, static_cast<double>(extra) / 1e3);
}

TEST(ObsTrace, ToggleMidRun) {
  TraceSandbox sandbox;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();

  // Disabled at construction: never records, even if enabled before the
  // destructor runs.
  {
    const obs::Span span("never");
    obs::set_trace_enabled(true);
  }
  EXPECT_EQ(rec.total_events(), 0u);

  // Enabled at construction: records even if disabled mid-span, so toggling
  // cannot produce half-open events.
  {
    const obs::Span span("always");
    obs::set_trace_enabled(false);
  }
  EXPECT_EQ(rec.total_events(), 1u);

  // A second enable keeps appending to the same ring.
  obs::set_trace_enabled(true);
  { const obs::Span span("again"); }
  obs::set_trace_enabled(false);
  EXPECT_EQ(rec.total_events(), 2u);
}

TEST(ObsTrace, ChromeExportIsWellFormedJson) {
  TraceSandbox sandbox;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.set_thread_name("main");
  obs::set_trace_enabled(true);
  { const obs::Span span("plain"); }
  { const obs::Span span("needs \"escaping\"\\"); }
  obs::set_trace_enabled(false);

  const std::string path = temp_path("obs_export_trace.json");
  ASSERT_TRUE(rec.write_chrome_trace(path));

  // Must parse as JSON, with thread_name metadata naming this track "main"
  // and both spans present (escaped name round-trips).
  const obs::json::Value root = obs::json::parse(read_file(path));
  const obs::json::Value* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_main_meta = false;
  for (const auto& ep : events->array) {
    const obs::json::Value& e = *ep;
    if (e.get("ph")->string != "M") continue;
    EXPECT_EQ(e.get("name")->string, "thread_name");
    const obs::json::Value* args = e.get("args");
    ASSERT_NE(args, nullptr);
    if (args->get("name")->string == "main") saw_main_meta = true;
  }
  EXPECT_TRUE(saw_main_meta);

  const auto complete = parse_complete_events(path);
  ASSERT_EQ(complete.size(), 2u);
  EXPECT_EQ(complete[0].name, "plain");
  EXPECT_EQ(complete[1].name, "needs \"escaping\"\\");
}

// Request telemetry: a correlated span exports its args and correlation ID
// in "args", plus matching "s"/"f" flow records sharing one hex id — the
// raw material Perfetto chains into a per-request arc.
TEST(ObsTrace, CorrelationArgsAndFlowExport) {
  TraceSandbox sandbox;
  obs::set_trace_enabled(true);
  {
    obs::Span start("submit", 0xabcdu, obs::Flow::kStart);
    start.arg("queue_depth", 3.0);
  }
  {
    obs::Span finish("complete", 0xabcdu, obs::Flow::kFinish);
    finish.arg("queue_wait_us", 120.5);
    finish.arg("compute_us", 64.0);
  }
  { const obs::Span plain("uncorrelated"); }
  obs::set_trace_enabled(false);

  const std::string path = temp_path("obs_flow_trace.json");
  ASSERT_TRUE(obs::TraceRecorder::instance().write_chrome_trace(path));
  const obs::json::Value root = obs::json::parse(read_file(path));
  const obs::json::Value* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);

  std::string start_id;
  std::string finish_id;
  bool saw_submit_args = false;
  bool saw_complete_args = false;
  bool plain_has_args = false;
  for (const auto& ep : events->array) {
    const obs::json::Value& e = *ep;
    const std::string ph = e.get("ph")->string;
    if (ph == "s") start_id = e.get("id")->string;
    if (ph == "f") {
      finish_id = e.get("id")->string;
      // The flow-finish binds to the enclosing slice at its end.
      ASSERT_NE(e.get("bp"), nullptr);
      EXPECT_EQ(e.get("bp")->string, "e");
    }
    if (ph != "X") continue;
    const std::string name = e.get("name")->string;
    const obs::json::Value* args = e.get("args");
    if (name == "submit") {
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->get("corr")->string, "0xabcd");
      EXPECT_DOUBLE_EQ(args->get("queue_depth")->number, 3.0);
      saw_submit_args = true;
    } else if (name == "complete") {
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->get("queue_wait_us")->number, 120.5);
      EXPECT_DOUBLE_EQ(args->get("compute_us")->number, 64.0);
      saw_complete_args = true;
    } else if (name == "uncorrelated") {
      plain_has_args = args != nullptr;
    }
  }
  EXPECT_TRUE(saw_submit_args);
  EXPECT_TRUE(saw_complete_args);
  EXPECT_FALSE(plain_has_args);  // uncorrelated, argless spans stay lean
  EXPECT_EQ(start_id, "0xabcd");
  EXPECT_EQ(finish_id, "0xabcd");
}

// Args past TraceEvent::kMaxArgs are dropped, never overflowed.
TEST(ObsTrace, ArgOverflowIsDropped) {
  TraceSandbox sandbox;
  obs::set_trace_enabled(true);
  {
    obs::Span span("crowded", 7u, obs::Flow::kNone);
    span.arg("a", 1.0);
    span.arg("b", 2.0);
    span.arg("c", 3.0);
    span.arg("dropped", 4.0);
    span.arg("very_long_key_exceeding_capacity", 5.0);
  }
  obs::set_trace_enabled(false);
  const std::string path = temp_path("obs_argcap_trace.json");
  ASSERT_TRUE(obs::TraceRecorder::instance().write_chrome_trace(path));
  const obs::json::Value root = obs::json::parse(read_file(path));
  for (const auto& ep : root.get("traceEvents")->array) {
    if (ep->get("ph")->string != "X") continue;
    const obs::json::Value* args = ep->get("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->get("c"), nullptr);
    EXPECT_EQ(args->get("dropped"), nullptr);
    // corr + 3 args = 4 keys total.
    EXPECT_EQ(args->object.size(), 4u);
  }
}

// Ring wraparound surfaces as a live counter, not just an at-exit log.
TEST(ObsTrace, SpansDroppedCounter) {
  TraceSandbox sandbox;
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  const std::uint64_t before =
      obs::Registry::global().counter_value("trace.spans_dropped");
  const std::size_t extra = 7;
  for (std::size_t i = 0; i < obs::TraceRecorder::kRingCapacity + extra; ++i) {
    rec.record("drop", i, 1);
  }
  EXPECT_EQ(obs::Registry::global().counter_value("trace.spans_dropped") - before,
            extra);
}

TEST(ObsMetrics, RegistryBasics) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("obs_test.basic");
  const std::uint64_t before = c.value();
  c.add(3);
  EXPECT_EQ(reg.counter_value("obs_test.basic"), before + 3);
  EXPECT_EQ(reg.counter_value("obs_test.never_registered"), 0u);
  // Same name, same kind: the identical object. Different kind: an error.
  EXPECT_EQ(&reg.counter("obs_test.basic"), &c);
  EXPECT_THROW(reg.gauge("obs_test.basic"), std::logic_error);

  obs::Histogram& h = reg.histogram("obs_test.hist_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);

  // Snapshot parses as one JSON object with the documented sections, and
  // histogram counts carry the overflow bucket.
  const obs::json::Value snap = obs::json::parse(reg.snapshot_json("test-simd"));
  ASSERT_TRUE(snap.is_object());
  ASSERT_NE(snap.get("host"), nullptr);
  EXPECT_EQ(snap.get("host")->get("simd")->string, "test-simd");
  const obs::json::Value* hist = snap.get("histograms")->get("obs_test.hist_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->get("counts")->array.size(), hist->get("bounds")->array.size() + 1);
}

TEST(ObsMetrics, HistogramQuantiles) {
  obs::Histogram h({10.0, 20.0, 50.0, 100.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram

  // 10 samples in (10, 20]: every quantile interpolates inside that bucket.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  // First bucket interpolates up from 0.
  obs::Histogram lo({10.0, 20.0});
  for (int i = 0; i < 4; ++i) lo.observe(5.0);
  EXPECT_DOUBLE_EQ(lo.quantile(0.5), 5.0);
  // Overflow clamps to the last bound instead of inventing a value.
  obs::Histogram hi({10.0, 20.0});
  hi.observe(1000.0);
  EXPECT_DOUBLE_EQ(hi.quantile(0.99), 20.0);
  // Mixed distribution: 50 in the first bucket, 50 in the second; p50
  // lands exactly on the first bucket's upper bound and p75 halfway into
  // the second.
  obs::Histogram mix({10.0, 20.0});
  for (int i = 0; i < 50; ++i) mix.observe(5.0);
  for (int i = 0; i < 50; ++i) mix.observe(15.0);
  EXPECT_DOUBLE_EQ(mix.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(mix.quantile(0.75), 15.0);
  // us ladder is strictly increasing (Histogram ctor throws otherwise).
  EXPECT_NO_THROW(obs::Histogram(obs::default_us_buckets()));
}

// tier2: run under -DLITHOGAN_SANITIZE=thread to prove counter/histogram
// updates from pool workers are race-free; unsanitized it asserts counts are
// exact (no lost increments).
TEST(ObsMetrics, CounterAtomicityUnderThreadPool) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& counter = reg.counter("obs_test.pool_increments");
  obs::Histogram& hist = reg.histogram("obs_test.pool_ms", {0.5, 5.0});
  const std::uint64_t c0 = counter.value();
  const std::uint64_t h0 = hist.count();

  constexpr std::size_t kItems = 100000;
  util::ThreadPool pool(4);
  pool.parallel_for(0, kItems, 1024, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) {
      counter.add();
      hist.observe(static_cast<double>(i % 10));
    }
  });
  EXPECT_EQ(counter.value() - c0, kItems);
  EXPECT_EQ(hist.count() - h0, kItems);
}

// The product guarantee: tracing observes, never perturbs. A traced
// clip-parallel run_batch must produce byte-identical fields to an
// untraced one.
TEST(ObsTrace, TracedRunBatchIsByteIdentical) {
  TraceSandbox sandbox;
  litho::ProcessConfig process = litho::ProcessConfig::n10();
  process.grid.pixels = 64;
  process.optical.source_rings = 1;
  process.optical.source_points_per_ring = 4;

  const double c = process.grid.extent_nm / 2.0;
  const double s = process.contact_size_nm;
  std::vector<std::vector<geometry::Rect>> clips;
  for (int k = 0; k < 4; ++k) {
    clips.push_back({geometry::Rect::from_center(
        {c + 20.0 * k, c - 15.0 * k}, s, s)});
  }

  util::ExecContext exec(2);
  process.exec = &exec;

  litho::Simulator untraced(process);
  const auto baseline = untraced.run_batch(clips);

  obs::set_trace_enabled(true);
  litho::Simulator traced(process);
  const auto observed = traced.run_batch(clips);
  obs::set_trace_enabled(false);

  ASSERT_EQ(baseline.size(), observed.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const auto& a = baseline[i];
    const auto& b = observed[i];
    ASSERT_EQ(a.develop.values.size(), b.develop.values.size());
    EXPECT_EQ(std::memcmp(a.latent.values.data(), b.latent.values.data(),
                          a.latent.values.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(a.develop.values.data(), b.develop.values.data(),
                          a.develop.values.size() * sizeof(double)),
              0);
    EXPECT_EQ(a.contours.size(), b.contours.size());
  }
  // The traced run actually recorded spans (sim.clip at minimum).
  EXPECT_GT(obs::TraceRecorder::instance().total_events(), 0u);
}
