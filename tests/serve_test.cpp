// Gates on the serving layer (serve::Server):
//   * served outputs are byte-identical to a direct predict_batch on the
//     same clips — dynamic batching must not change results;
//   * request/response matching holds under concurrent producers;
//   * the dual trigger dispatches on batch-full and on oldest-age timeout;
//   * admission control rejects with a typed error when the queue is full,
//     and shutdown drains accepted work cleanly;
//   * a clip whose shape the model does not take is refused at admission,
//     and the requests around it are still served;
//   * tickets are claimable exactly once (stale/double claims throw).
// Labelled tier2 so the TSan sweep covers the scheduler/producer races.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/render.hpp"
#include "image/ops.hpp"
#include "obs/json_verify.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace lc = lithogan::core;
namespace ld = lithogan::data;
namespace li = lithogan::image;
namespace ls = lithogan::serve;
namespace lu = lithogan::util;

namespace {

struct QuietLogs {
  QuietLogs() { lu::set_log_level(lu::LogLevel::kWarn); }
} const quiet_logs;

lc::LithoGanConfig test_config() {
  lc::LithoGanConfig cfg = lc::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 6;
  cfg.max_channels = 24;
  return cfg;
}

std::vector<ld::Sample> synthetic_samples(std::size_t count, std::size_t size,
                                          unsigned seed) {
  lu::Rng rng(seed);
  std::vector<ld::Sample> samples;
  const auto s2 = static_cast<double>(size) / 2.0;
  for (std::size_t i = 0; i < count; ++i) {
    ld::Sample s;
    s.clip_id = "serve-" + std::to_string(i);
    s.resist_pixel_nm = 128.0 / static_cast<double>(size);
    const double half = static_cast<double>(size) / 8.0 + rng.uniform(-1.0, 1.0);
    const double dx = rng.uniform(-2.0, 2.0);
    const double dy = rng.uniform(-2.0, 2.0);
    s.mask_rgb = li::Image(3, size, size);
    li::fill_rect(s.mask_rgb, 1, {{s2 - half, s2 - half}, {s2 + half, s2 + half}}, 1.0f);
    li::fill_rect(s.mask_rgb, 0,
                  {{s2 + 4 * dx - 2, s2 + 4 * dy - 2}, {s2 + 4 * dx + 2, s2 + 4 * dy + 2}},
                  1.0f);
    s.resist = li::Image(1, size, size);
    li::fill_rect(s.resist, 0,
                  {{s2 - half + dx, s2 - half + dy}, {s2 + half + dx, s2 + half + dy}},
                  1.0f);
    s.center_px = ld::pattern_center(s.resist);
    samples.push_back(std::move(s));
  }
  return samples;
}

/// RAII guard: leaves tracing disabled and the rings empty (same contract
/// as the obs_test sandbox) so trace assertions are order-independent.
struct TraceSandbox {
  TraceSandbox() {
    lithogan::obs::set_trace_enabled(false);
    lithogan::obs::TraceRecorder::instance().clear();
  }
  ~TraceSandbox() {
    lithogan::obs::set_trace_enabled(false);
    lithogan::obs::TraceRecorder::instance().clear();
  }
};

void expect_images_equal(const li::Image& a, const li::Image& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(float)),
            0)
      << "images differ bitwise";
}

}  // namespace

TEST(Serve, ServedMatchesDirectPredictBatch) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kDualLearning);
  const auto samples = synthetic_samples(12, cfg.image_size, 7);
  const auto direct = model.predict_batch(samples);

  ls::Config sc;
  sc.max_batch = 4;
  sc.max_wait_us = 200;
  ls::Server server(model, sc);
  std::vector<ls::Ticket> tickets;
  for (const auto& s : samples) tickets.push_back(server.submit(s));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const ls::Response r = server.wait(tickets[i]);
    expect_images_equal(direct[i], r.resist);
    EXPECT_GE(r.batch, 1u);
    EXPECT_GE(r.latency_us, 0.0);
  }
  const ls::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, samples.size());
  EXPECT_EQ(stats.completed, samples.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Serve, RequestResponseMatchingUnderConcurrentProducers) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kDualLearning);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 8;
  const auto samples = synthetic_samples(kThreads * kPerThread, cfg.image_size, 21);
  const auto direct = model.predict_batch(samples);

  ls::Config sc;
  sc.max_batch = 8;
  sc.max_wait_us = 300;
  sc.queue_capacity = 64;
  ls::Server server(model, sc);

  std::vector<std::thread> producers;
  std::vector<std::string> failures(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const std::size_t i = t * kPerThread + k;
        const ls::Ticket ticket = server.submit(samples[i]);
        const ls::Response r = server.wait(ticket);
        // Responses must match the request that produced them, not just
        // any request: compare against the direct result for clip i.
        if (r.resist != direct[i]) {
          failures[t] = "thread " + std::to_string(t) + " clip " +
                        std::to_string(i) + " got a mismatched response";
          return;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;

  const ls::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, kThreads * kPerThread);
  EXPECT_EQ(stats.completed, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(Serve, DispatchesWhenBatchFills) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto samples = synthetic_samples(4, cfg.image_size, 3);

  ls::Config sc;
  sc.max_batch = 4;
  sc.max_wait_us = 5'000'000;  // 5 s: a timeout dispatch would hang the test
  ls::Server server(model, sc);
  std::vector<ls::Ticket> tickets;
  for (const auto& s : samples) tickets.push_back(server.submit(s));
  for (const auto& t : tickets) {
    // The batch trigger must fire long before the 5 s deadline, and all
    // four requests ride in one batch.
    EXPECT_EQ(server.wait(t).batch, 4u);
  }
}

TEST(Serve, DispatchesLoneRequestOnTimeout) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto samples = synthetic_samples(1, cfg.image_size, 5);

  ls::Config sc;
  sc.max_batch = 16;  // never fills
  sc.max_wait_us = 2000;
  ls::Server server(model, sc);
  const ls::Response r = server.wait(server.submit(samples[0]));
  EXPECT_EQ(r.batch, 1u);
  // The request waited out (at least) the batching deadline.
  EXPECT_GE(r.latency_us, static_cast<double>(sc.max_wait_us));
}

TEST(Serve, BackpressureRejectionAndCleanShutdown) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto samples = synthetic_samples(6, cfg.image_size, 11);
  const auto direct = model.predict_batch(samples);

  ls::Config sc;
  sc.max_batch = 64;           // larger than capacity: the batch never fills
  sc.max_wait_us = 5'000'000;  // and the deadline is far away,
  sc.queue_capacity = 4;       // so the queue deterministically fills.
  ls::Server server(model, sc);

  std::vector<ls::Ticket> tickets;
  for (std::size_t i = 0; i < 4; ++i) tickets.push_back(server.submit(samples[i]));
  EXPECT_THROW(server.submit(samples[4]), ls::RejectedError);
  EXPECT_EQ(server.try_submit(samples[5]), std::nullopt);
  EXPECT_EQ(server.stats().rejected, 2u);
  EXPECT_EQ(server.stats().queue_depth, 4u);

  // Shutdown must short-circuit the 5 s deadline and serve the four
  // in-flight requests before joining.
  server.shutdown();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const ls::Response r = server.wait(tickets[i]);
    expect_images_equal(direct[i], r.resist);
    EXPECT_EQ(r.batch, 4u);
  }
  EXPECT_THROW(server.submit(samples[0]), ls::StoppedError);
  EXPECT_THROW(server.try_submit(samples[0]), ls::StoppedError);
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST(Serve, RejectsWrongShapeAtAdmission) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto samples = synthetic_samples(2, cfg.image_size, 19);
  const auto direct = model.predict_batch(samples);
  ld::Sample wrong_size = synthetic_samples(1, cfg.image_size + 1, 23)[0];
  ld::Sample wrong_channels = samples[1];
  wrong_channels.mask_rgb = li::Image(1, cfg.image_size, cfg.image_size);

  ls::Config sc;
  sc.max_batch = 4;
  sc.max_wait_us = 200;
  ls::Server server(model, sc);
  const ls::Ticket before = server.submit(samples[0]);
  // Refused before a slot is taken: a typed error for the caller, not a
  // throw on the scheduler thread that would kill the process.
  EXPECT_THROW(server.submit(wrong_size), lu::InvalidArgument);
  EXPECT_THROW(server.try_submit(wrong_size), lu::InvalidArgument);
  EXPECT_THROW(server.submit(wrong_channels), lu::InvalidArgument);
  const ls::Ticket after = server.submit(samples[1]);

  expect_images_equal(direct[0], server.wait(before).resist);
  expect_images_equal(direct[1], server.wait(after).resist);
  const ls::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);  // a caller bug, not backpressure
}

TEST(Serve, TracedServingIsByteIdenticalAndFlowsMatch) {
  namespace obs = lithogan::obs;
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto samples = synthetic_samples(8, cfg.image_size, 17);
  const auto direct = model.predict_batch(samples);  // untraced reference

  TraceSandbox sandbox;
  obs::set_trace_enabled(true);
  ls::Config sc;
  sc.max_batch = 4;
  sc.max_wait_us = 200;
  {
    ls::Server server(model, sc);
    std::vector<ls::Ticket> tickets;
    for (const auto& s : samples) tickets.push_back(server.submit(s));
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      // Arming request telemetry must not change a single output byte.
      expect_images_equal(direct[i], server.wait(tickets[i]).resist);
    }
    server.shutdown();  // joins the scheduler: rings quiescent for export
  }
  obs::set_trace_enabled(false);

  const std::string path = testing::TempDir() + "serve_flow_trace.json";
  ASSERT_TRUE(obs::TraceRecorder::instance().write_chrome_trace(path));
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  const obs::json::Value root = obs::json::parse(ss.str());
  const obs::json::Value* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);

  // Every request journey is one flow: a producer-side "s" and a
  // scheduler-side "f" sharing its correlation id (gens are unique, so
  // id collisions cannot fake a match).
  std::map<std::string, int> starts;
  std::map<std::string, int> finishes;
  for (const auto& ep : events->array) {
    const obs::json::Value& e = *ep;
    const std::string ph = e.get("ph")->string;
    if (ph == "s") ++starts[e.get("id")->string];
    if (ph == "f") ++finishes[e.get("id")->string];
  }
  EXPECT_EQ(starts.size(), samples.size());
  EXPECT_EQ(finishes.size(), samples.size());
  for (const auto& [id, n] : finishes) {
    EXPECT_EQ(n, 1) << id;
    EXPECT_EQ(starts.count(id), 1u) << "flow-finish without start: " << id;
  }
}

TEST(Serve, TicketsClaimableExactlyOnce) {
  const lc::LithoGanConfig cfg = test_config();
  lc::LithoGan model(cfg, lc::Mode::kPlainCgan);
  const auto samples = synthetic_samples(1, cfg.image_size, 13);

  ls::Config sc;
  sc.max_batch = 1;
  ls::Server server(model, sc);
  const ls::Ticket ticket = server.submit(samples[0]);
  (void)server.wait(ticket);
  EXPECT_THROW(server.wait(ticket), lu::InvalidArgument);  // double claim
  ls::Ticket forged;
  forged.slot = 9999;
  EXPECT_THROW(server.wait(forged), lu::InvalidArgument);  // out of range
  forged.slot = 0;
  forged.gen = 424242;
  EXPECT_THROW(server.wait(forged), lu::InvalidArgument);  // generation mismatch
}
