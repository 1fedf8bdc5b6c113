// The telemetry layer's two contracts (DESIGN.md §4.3):
//
//  1. Mechanics — ring buffers wrap instead of blocking, concurrent writers
//     from real pool threads never tear the export, the Chrome trace and the
//     metrics snapshot are valid JSON, and the histogram bucket math is exact
//     at the power-of-two boundaries.
//
//  2. Inertness — flipping the recorder on must be invisible in results:
//     state roots, digests, and every deterministic BlockReport field are
//     bit-identical with telemetry on or off, for every executor at every
//     OS-thread count. The recorder observes the wall clock only; this suite
//     is the executable form of that argument.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/baselines/two_phase_locking.h"
#include "src/chain/chain_runner.h"
#include "src/core/parallel_evm.h"
#include "src/exec/thread_pool.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/workload/block_gen.h"
#include "tests/report_testing.h"

namespace pevm {
namespace {

// --- Minimal JSON validator (no external deps): accepts exactly one value. --

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::string_view(lit).size();
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    if (depth_ > 64) {
      return false;
    }
    SkipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      ++depth_;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == close) {
        ++pos_;
        --depth_;
        return true;
      }
      for (;;) {
        if (close == '}') {
          SkipWs();
          if (!String()) {
            return false;
          }
          SkipWs();
          if (pos_ >= s_.size() || s_[pos_++] != ':') {
            return false;
          }
        }
        if (!Value()) {
          return false;
        }
        SkipWs();
        if (pos_ >= s_.size()) {
          return false;
        }
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == close) {
          ++pos_;
          --depth_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonValidator(s).Valid(); }

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, 2.5, -3e4], "b": {"c": "x\"y"}, "d": true})"));
  EXPECT_TRUE(IsValidJson("[]"));
  EXPECT_FALSE(IsValidJson(R"({"a": )"));
  EXPECT_FALSE(IsValidJson(R"({"a": 1} extra)"));
  EXPECT_FALSE(IsValidJson(R"({"buc{"lo": 1}]})"));  // The truncation shape.
}

// --- Trace recorder mechanics. --------------------------------------------

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(true);
    telemetry::Reset();
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::Reset();
    telemetry::SetRingCapacity(1 << 15);  // Restore the default for later tests.
  }
};

TEST_F(TelemetryTest, RingWrapsAndCountsDroppedEvents) {
  size_t applied = telemetry::SetRingCapacity(10);  // Rounds up to 16.
  EXPECT_EQ(applied, 16u);
  // A fresh thread registers a fresh (small) ring; the emitting thread is the
  // buffer's only writer, per the design.
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      telemetry::EmitInstant("wrap.event", "i", static_cast<uint64_t>(i));
    }
  });
  t.join();
  EXPECT_EQ(telemetry::DroppedEvents(), 100u - 16u);
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Only the newest `capacity` events survive; the oldest surviving one is #84.
  EXPECT_EQ(json.find("\"i\": 83"), std::string::npos);
  EXPECT_NE(json.find("\"i\": 84"), std::string::npos);
  EXPECT_NE(json.find("\"i\": 99"), std::string::npos);
}

TEST_F(TelemetryTest, ConcurrentPoolWritersProduceValidJson) {
  {
    ThreadPool pool(8);
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(256, [](size_t i) {
        telemetry::Span span("pool.work");
        telemetry::EmitInstant("pool.tick", "i", i);
      });
    }
  }
  // 7 workers + the caller all emitted; every buffer must export cleanly.
  EXPECT_GE(telemetry::RegisteredThreads(), 8u);
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_NE(json.find("\"pool.work\""), std::string::npos);
#if !defined(PEVM_TELEMETRY_DISABLED)
  // Worker threads name themselves through the (compilable-out) macro.
  EXPECT_NE(json.find("\"pool-worker\""), std::string::npos);
#endif
}

TEST_F(TelemetryTest, ExportWhileWritingStaysValidJson) {
  // The exporter reads rings concurrently with a live writer: a torn slot may
  // garble one entry's *values* but must never break the JSON structure.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      telemetry::EmitSpan("race.span", telemetry::NowNs(), telemetry::NowNs(), "i", i++);
    }
  });
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(IsValidJson(telemetry::ChromeTraceJson()));
  }
  stop.store(true);
  writer.join();
}

TEST_F(TelemetryTest, DisabledRecorderBuffersNothing) {
  telemetry::SetEnabled(false);
  telemetry::Reset();
  {
    PEVM_TRACE_SPAN("off.span");
    PEVM_TRACE_INSTANT("off.instant");
    PEVM_TRACE_COUNTER("off.counter", 7);
  }
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json));
  EXPECT_EQ(json.find("off.span"), std::string::npos);
  EXPECT_EQ(json.find("off.instant"), std::string::npos);
  EXPECT_EQ(telemetry::DroppedEvents(), 0u);
}

TEST_F(TelemetryTest, ThreadNamesAppearInExport) {
  std::thread t([] {
    telemetry::SetThreadName("my-named-thread");
    telemetry::EmitInstant("named.event");
  });
  t.join();
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_NE(json.find("\"my-named-thread\""), std::string::npos);
}

TEST_F(TelemetryTest, RenamingAfterTheFirstEventUpdatesTheExport) {
  std::thread t([] {
    telemetry::EmitInstant("unnamed.event");
    telemetry::SetThreadName("renamed-thread");
  });
  t.join();
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_NE(json.find("\"renamed-thread\""), std::string::npos);
}

// Naming a thread allocates nothing: its ring (~1.5 MB at the default
// capacity) appears with the thread's first event and takes the name then.
// Every pool, stage, prefetch and serving thread names itself and the registry
// keeps each ring for the life of the process, so with tracing off, runner
// churn must not register a single ring.
TEST(TraceRingTest, ChainRunnerChurnWithTracingOffRegistersNoRings) {
  telemetry::SetEnabled(false);
  WorkloadConfig config;
  config.seed = 4040;
  config.transactions_per_block = 8;
  config.users = 64;  // A small genesis keeps each runner's trie seeding cheap.
  config.tokens = 2;
  config.pools = 1;
  config.funds = 1;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  Block block = gen.MakeBlock();
  const size_t registered = telemetry::RegisteredThreads();
  for (int i = 0; i < 100; ++i) {
    ChainOptions options;
    options.exec.os_threads = 4;
    options.exec.prefetch_depth = 2;  // Adds the prefetch-driver thread.
    options.speculate = true;         // Adds the spec stage and its pool.
    ChainRunner runner(options, genesis);
    ASSERT_TRUE(runner.Submit(block));
    ASSERT_EQ(runner.Finish().blocks_committed, 1u);
  }
  EXPECT_EQ(telemetry::RegisteredThreads(), registered);
}

// --- Metrics registry. ----------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundariesAreExact) {
  // Bucket i holds values of bit width i: 0→{0}, 1→{1}, 2→{2,3}, 3→{4..7}...
  EXPECT_EQ(telemetry::Histogram::BucketLo(0), 0u);
  EXPECT_EQ(telemetry::Histogram::BucketHi(0), 0u);
  EXPECT_EQ(telemetry::Histogram::BucketLo(1), 1u);
  EXPECT_EQ(telemetry::Histogram::BucketHi(1), 1u);
  EXPECT_EQ(telemetry::Histogram::BucketLo(4), 8u);
  EXPECT_EQ(telemetry::Histogram::BucketHi(4), 15u);
  EXPECT_EQ(telemetry::Histogram::BucketLo(64), uint64_t{1} << 63);
  EXPECT_EQ(telemetry::Histogram::BucketHi(64), UINT64_MAX);

  telemetry::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(8);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 14u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 0u);
  EXPECT_EQ(h.bucket_count(4), 1u);
}

TEST(MetricsTest, QuantilesInterpolateWithinTheSelectedBucket) {
  telemetry::Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // Empty.
  for (int i = 0; i < 100; ++i) {
    h.Observe(1000);  // Bucket 10: [512, 1023].
  }
  double p50 = h.Quantile(0.50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_GE(h.Quantile(0.99), p50);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(MetricsTest, RegistryReturnsStableReferencesAndValidJson) {
  auto& c = telemetry::GetCounter("test.counter");
  EXPECT_EQ(&c, &telemetry::GetCounter("test.counter"));
  c.Add(41);
  c.Add();
  EXPECT_EQ(c.value(), 42u);
  telemetry::GetGauge("test.gauge").Set(-7);
  telemetry::GetHistogram("test.hist").Observe(1'000'000);

  std::string json = telemetry::MetricsJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"test.counter\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);

  telemetry::ClearMetrics();
  EXPECT_EQ(telemetry::GetCounter("test.counter").value(), 0u);
  EXPECT_EQ(telemetry::GetGauge("test.gauge").value(), 0);
  EXPECT_EQ(telemetry::GetHistogram("test.hist").count(), 0u);
}

// --- Inertness: telemetry on/off is invisible in results. ------------------

struct InertnessResult {
  BlockRun run;
  uint64_t digest = 0;  // Final WorldState digest.
};

class InertnessTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 777;
    config.transactions_per_block = 100;
    config.users = 500;
    config.tokens = 5;
    config.pools = 3;
    WorkloadGenerator gen(config);
    genesis_ = gen.MakeGenesis();
    for (int b = 0; b < 2; ++b) {
      blocks_.push_back(gen.MakeBlock());
    }
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::Reset();
  }

  template <typename MakeExec>
  InertnessResult Run(MakeExec make, bool telemetry_on) {
    telemetry::SetEnabled(telemetry_on);
    telemetry::Reset();
    ExecOptions options;
    options.threads = 8;
    options.os_threads = GetParam();
    auto executor = make(options);
    WorldState state = genesis_;
    InertnessResult result;
    result.run = RunBlocks(state, blocks_, [&](const Block& block, WorldState& s) {
      return executor->Execute(block, s);
    });
    result.run.roots = {state.StateRoot()};
    result.digest = state.Digest();
    return result;
  }

  template <typename MakeExec>
  void ExpectInert(MakeExec make, const char* name) {
    SCOPED_TRACE(testing::Message() << name << " os_threads=" << GetParam());
    InertnessResult off = Run(make, /*telemetry_on=*/false);
    InertnessResult on = Run(make, /*telemetry_on=*/true);
    EXPECT_EQ(off.digest, on.digest);
    ExpectSameDeterministicRun(off.run, on.run);
  }

  WorldState genesis_;
  std::vector<Block> blocks_;
};

TEST_P(InertnessTest, AllExecutorsProduceIdenticalResultsWithTracingOnOrOff) {
  ExpectInert([](const ExecOptions& o) { return std::make_unique<SerialExecutor>(o); },
              "serial");
  ExpectInert(
      [](const ExecOptions& o) { return std::make_unique<TwoPhaseLockingExecutor>(o); },
      "2pl");
  ExpectInert([](const ExecOptions& o) { return std::make_unique<OccExecutor>(o); }, "occ");
  ExpectInert([](const ExecOptions& o) { return std::make_unique<BlockStmExecutor>(o); },
              "block-stm");
  ExpectInert([](const ExecOptions& o) { return std::make_unique<ParallelEvmExecutor>(o); },
              "parallelevm");
}

TEST_P(InertnessTest, PrefetchPipelineIsInertUnderTracing) {
  // The racy background engine plus simulated storage latency is the
  // instrumentation-densest path (sim.cold_read fires per miss).
  ExpectInert(
      [](const ExecOptions& o) {
        ExecOptions with_prefetch = o;
        with_prefetch.prefetch_depth = 8;
        with_prefetch.storage.cold_read_ns = 1'000;
        with_prefetch.storage.warm_read_ns = 100;
        return std::make_unique<ParallelEvmExecutor>(with_prefetch);
      },
      "parallelevm+prefetch");
}

TEST_P(InertnessTest, TracingActuallyRecordedDuringTheOnRuns) {
  // Guard against vacuity: the inertness comparison means nothing if the "on"
  // run never wrote an event.
#if defined(PEVM_TELEMETRY_DISABLED)
  GTEST_SKIP() << "instrumentation sites compiled out (-DPEVM_TELEMETRY=OFF)";
#endif
  telemetry::SetEnabled(true);
  telemetry::Reset();
  ExecOptions options;
  options.threads = 8;
  options.os_threads = GetParam();
  ParallelEvmExecutor executor(options);
  WorldState state = genesis_;
  executor.Execute(blocks_.front(), state);
  std::string json = telemetry::ChromeTraceJson();
  EXPECT_NE(json.find("\"exec.read_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"exec.commit_loop\""), std::string::npos);
  EXPECT_TRUE(IsValidJson(json));
}

INSTANTIATE_TEST_SUITE_P(OsThreads, InertnessTest, ::testing::Values(1, 4, 16),
                         [](const auto& info) {
                           return "os_threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace pevm
