// The tentpole guarantee of the real-thread read phase: the OS-thread count
// is invisible in results. The same blocks must produce identical state roots
// and an identical DeterministicBlockReport whether the thread pool runs 1, 4,
// or 16 OS threads — only the wall-clock fields may differ. Also exercises the
// ThreadPool directly.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/baselines/block_stm.h"
#include "src/baselines/occ.h"
#include "src/baselines/serial.h"
#include "src/core/parallel_evm.h"
#include "src/core/scheduled.h"
#include "src/exec/thread_pool.h"
#include "src/workload/block_gen.h"
#include "tests/report_testing.h"

namespace pevm {
namespace {

struct RunResult {
  BlockRun run;
  uint64_t digest = 0;  // Final WorldState digest.
};

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 4242;
    config.transactions_per_block = 150;
    config.users = 900;
    config.tokens = 5;
    config.pools = 3;
    gen_.emplace(config);
    genesis_ = gen_->MakeGenesis();
    for (int b = 0; b < 2; ++b) {
      blocks_.push_back(gen_->MakeBlock());
    }
  }

  template <typename Run>
  RunResult Execute(Run run, int os_threads) {
    ExecOptions options;
    options.threads = 8;
    options.os_threads = os_threads;
    WorldState state = genesis_;
    RunResult result;
    result.run = RunBlocks(state, blocks_, [&](const Block& block, WorldState& s) {
      return run(block, s, options);
    });
    result.run.roots = {state.StateRoot()};
    result.digest = state.Digest();
    return result;
  }

  template <typename Run>
  void ExpectThreadCountInvisible(Run run) {
    RunResult base = Execute(run, /*os_threads=*/1);
    // The contention workload must actually exercise the conflict/redo paths,
    // or the determinism claim is vacuous. (A scheduled validator reports
    // redo_success but no conflicts for an honest schedule.)
    int conflicts = 0;
    for (const BlockReport& r : base.run.reports) {
      conflicts += r.conflicts + r.redo_success;
    }
    EXPECT_GT(conflicts, 0);
    for (int os_threads : {4, 16}) {
      SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads);
      RunResult other = Execute(run, os_threads);
      EXPECT_EQ(base.digest, other.digest);
      ExpectSameDeterministicRun(base.run, other.run);
    }
  }

  std::optional<WorkloadGenerator> gen_;
  WorldState genesis_;
  std::vector<Block> blocks_;
};

TEST_F(DeterminismTest, ParallelEvmIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return ParallelEvmExecutor(options).Execute(block, state);
  });
}

TEST_F(DeterminismTest, OccIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return OccExecutor(options).Execute(block, state);
  });
}

TEST_F(DeterminismTest, BlockStmIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return BlockStmExecutor(options).Execute(block, state);
  });
}

// The same invariance with the async prefetch pipeline live: a racy
// background engine plus simulated storage latency must leave every
// deterministic field, the prefetch hit/miss/wasted counters included,
// untouched by the OS-thread count.
TEST_F(DeterminismTest, ParallelEvmWithPrefetchIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    ExecOptions o = options;
    o.prefetch_depth = 8;
    o.storage.cold_read_ns = 1'000;
    o.storage.warm_read_ns = 100;
    return ParallelEvmExecutor(o).Execute(block, state);
  });
}

TEST_F(DeterminismTest, BlockStmWithPrefetchIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    ExecOptions o = options;
    o.prefetch_depth = 8;
    return BlockStmExecutor(o).Execute(block, state);
  });
}

TEST_F(DeterminismTest, OccWithPrefetchIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    ExecOptions o = options;
    o.prefetch_depth = 8;
    return OccExecutor(o).Execute(block, state);
  });
}

// Prefetch depth itself must be invisible in results: every depth > 0
// produces the same roots and deterministic report as depth 1, and apart from
// the prefetch counters depth 0 does too.
TEST_F(DeterminismTest, PrefetchDepthIsInvisibleInResults) {
  auto run_depth = [&](int depth) {
    return Execute(
        [depth](const Block& block, WorldState& state, const ExecOptions& options) {
          ExecOptions o = options;
          o.prefetch_depth = depth;
          return ParallelEvmExecutor(o).Execute(block, state);
        },
        /*os_threads=*/4);
  };
  RunResult shallow = run_depth(1);
  for (const BlockReport& report : shallow.run.reports) {
    // Counters account the predicted-set quality, not how much of it the
    // engine got to in time, so they engage at every depth.
    EXPECT_GT(report.prefetch_hits + report.prefetch_misses, 0u);
  }
  for (int depth : {8, 64}) {
    SCOPED_TRACE(testing::Message() << "depth " << depth);
    RunResult deep = run_depth(depth);
    EXPECT_EQ(shallow.digest, deep.digest);
    ExpectSameDeterministicRun(shallow.run, deep.run);
  }
  RunResult off = run_depth(0);
  EXPECT_EQ(shallow.digest, off.digest);
  ExpectSameDeterministicRun(off.run, WithoutPrefetchCounters(shallow.run));
}

// The code cache joins the determinism contract: both modes — the shared
// cache's superinstruction logging and kOff's per-op logging — are OS-thread
// count invariant in every deterministic field, oplog_entries and redo
// counters included.
TEST_F(DeterminismTest, CodeCacheModeIsOsThreadCountInvariant) {
  for (CodeCacheMode mode : {CodeCacheMode::kShared, CodeCacheMode::kOff}) {
    SCOPED_TRACE(testing::Message() << "mode=" << static_cast<int>(mode));
    ExpectThreadCountInvisible([mode](const Block& block, WorldState& state,
                                      const ExecOptions& options) {
      ExecOptions o = options;
      o.code_cache.mode = mode;
      return ParallelEvmExecutor(o).Execute(block, state);
    });
  }
}

TEST_F(DeterminismTest, ProposerIsOsThreadCountInvariant) {
  ExpectThreadCountInvisible([](const Block& block, WorldState& state,
                                const ExecOptions& options) {
    return ProposeBlock(block, state, options).report;
  });
}

TEST_F(DeterminismTest, ScheduledValidatorIsOsThreadCountInvariant) {
  // The validator follows a fixed schedule produced once by the proposer.
  std::vector<BlockSchedule> schedules;
  {
    ExecOptions options;
    options.threads = 8;
    WorldState state = genesis_;
    for (const Block& block : blocks_) {
      schedules.push_back(ProposeBlock(block, state, options).schedule);
    }
  }
  size_t next = 0;
  ExpectThreadCountInvisible([&](const Block& block, WorldState& state,
                                 const ExecOptions& options) {
    const BlockSchedule& schedule = schedules[next++ % schedules.size()];
    return ExecuteWithSchedule(block, schedule, state, options);
  });
}

TEST_F(DeterminismTest, ParallelReadPhaseMatchesSerialExecution) {
  ExecOptions options;
  options.threads = 8;
  options.os_threads = 16;
  WorldState s_serial = genesis_;
  WorldState s_pevm = genesis_;
  SerialExecutor serial(options);
  ParallelEvmExecutor pevm(options);
  for (const Block& block : blocks_) {
    serial.Execute(block, s_serial);
    pevm.Execute(block, s_pevm);
  }
  EXPECT_EQ(HexEncode(s_serial.StateRoot()), HexEncode(s_pevm.StateRoot()));
}

// The comparison helper itself: wall-clock fields are ignored, and a change to
// any deterministic field, a root or a receipt is a failure.
TEST(ReportTestingTest, ComparesRootsAndTheDeterministicPartOnly) {
  BlockRun base;
  base.roots = {Hash256{}};
  base.reports.resize(2);
  base.reports[1].receipts.resize(3);
  BlockRun wall = base;
  wall.reports[0].wall_ns = 7;
  wall.reports[1].prefetch_wall_ns = 9;
  ExpectSameDeterministicRun(base, wall);

  BlockRun counter = base;
  counter.reports[1].lock_aborts = 1;
  EXPECT_NONFATAL_FAILURE(ExpectSameDeterministicRun(base, counter), "lock_aborts=1");
  BlockRun receipt = base;
  receipt.reports[1].receipts[2].gas_used = 21'000;
  EXPECT_NONFATAL_FAILURE(ExpectSameDeterministicRun(base, receipt), "first differing receipt: #2");
  BlockRun root = base;
  root.roots[0][0] = 1;
  EXPECT_NONFATAL_FAILURE(ExpectSameDeterministicRun(base, root), "state root #0");
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int width : {1, 2, 7, 16}) {
    ThreadPool pool(width);
    EXPECT_EQ(pool.threads(), width);
    constexpr size_t kN = 10'000;
    std::vector<std::atomic<int>> visits(kN);
    pool.ParallelFor(kN, [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " width " << width;
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int job = 0; job < 50; ++job) {
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50u * (99u * 100u / 2u));
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ResolveWidthPassesThroughAndCaps) {
  EXPECT_EQ(ThreadPool::ResolveWidth(3), 3);
  int resolved = ThreadPool::ResolveWidth(0);
  EXPECT_GE(resolved, 1);
  EXPECT_LE(resolved, 16);
}

}  // namespace
}  // namespace pevm
