// Tests for the §7 proposer/validator split: schedule generation, scheduled
// validator execution equivalence, the validation-cost saving, and detection
// of lying schedules (paranoid mode).
#include <gtest/gtest.h>

#include "src/baselines/serial.h"
#include "src/core/parallel_evm.h"
#include "src/core/scheduled.h"
#include "src/workload/block_gen.h"
#include "tests/report_testing.h"

namespace pevm {
namespace {

class ScheduledTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 77;
    config.transactions_per_block = 100;
    config.users = 1200;
    config.tokens = 6;
    config.pools = 3;
    gen_.emplace(config);
    genesis_ = gen_->MakeGenesis();
    block_ = gen_->MakeBlock();
    options_.threads = 8;
  }

  std::optional<WorkloadGenerator> gen_;
  WorldState genesis_;
  Block block_;
  ExecOptions options_;
};

TEST_F(ScheduledTest, ProposerMatchesPlainParallelEvm) {
  WorldState s1 = genesis_;
  WorldState s2 = genesis_;
  ParallelEvmExecutor pevm(options_);
  BlockReport plain = pevm.Execute(block_, s1);
  ProposalResult proposal = ProposeBlock(block_, s2, options_);
  EXPECT_EQ(s1.Digest(), s2.Digest());
  ExpectSameDeterministicRun({{s1.StateRoot()}, {plain}}, {{s2.StateRoot()}, {proposal.report}});
  ASSERT_EQ(proposal.schedule.transactions.size(), block_.transactions.size());
}

TEST_F(ScheduledTest, ScheduleClassifiesEveryOutcome) {
  WorldState state = genesis_;
  ProposalResult proposal = ProposeBlock(block_, state, options_);
  int clean = 0;
  int redo = 0;
  int fallback = 0;
  for (const TxSchedule& plan : proposal.schedule.transactions) {
    switch (plan.plan) {
      case TxSchedule::Plan::kClean:
        EXPECT_TRUE(plan.conflict_keys.empty());
        ++clean;
        break;
      case TxSchedule::Plan::kRedo:
        EXPECT_FALSE(plan.conflict_keys.empty());
        ++redo;
        break;
      case TxSchedule::Plan::kFallback:
        ++fallback;
        break;
    }
  }
  EXPECT_EQ(redo, proposal.report.redo_success);
  EXPECT_EQ(fallback, proposal.report.full_reexecutions);
  EXPECT_GT(clean, 0);
  EXPECT_GT(redo, 0);  // The hot-spot workload must exercise the redo plan.
}

TEST_F(ScheduledTest, ValidatorReproducesProposerState) {
  WorldState proposer_state = genesis_;
  ProposalResult proposal = ProposeBlock(block_, proposer_state, options_);
  WorldState validator_state = genesis_;
  BlockReport validator = ExecuteWithSchedule(block_, proposal.schedule, validator_state,
                                              options_);
  EXPECT_EQ(proposer_state.Digest(), validator_state.Digest());
  EXPECT_EQ(HexEncode(proposer_state.StateRoot()), HexEncode(validator_state.StateRoot()));
  EXPECT_EQ(validator.redo_success, proposal.report.redo_success);
}

TEST_F(ScheduledTest, ValidatorIsFasterThanUnscheduledExecution) {
  WorldState s1 = genesis_;
  ProposalResult proposal = ProposeBlock(block_, s1, options_);
  WorldState s2 = genesis_;
  ParallelEvmExecutor pevm(options_);
  BlockReport plain = pevm.Execute(block_, s2);
  WorldState s3 = genesis_;
  BlockReport scheduled = ExecuteWithSchedule(block_, proposal.schedule, s3, options_);
  // The validator skips read-set validation for clean transactions and SSA
  // logging for everything but redo transactions.
  EXPECT_LT(scheduled.makespan_ns, plain.makespan_ns);
}

TEST_F(ScheduledTest, ParanoidModeMatchesTrustingMode) {
  WorldState s1 = genesis_;
  ProposalResult proposal = ProposeBlock(block_, s1, options_);
  WorldState s2 = genesis_;
  WorldState s3 = genesis_;
  BlockReport trusting = ExecuteWithSchedule(block_, proposal.schedule, s2, options_);
  BlockReport paranoid = ExecuteWithSchedule(block_, proposal.schedule, s3, options_,
                                             /*paranoid=*/true);
  EXPECT_EQ(s2.Digest(), s3.Digest());
  EXPECT_EQ(paranoid.conflicts, 0);  // An honest schedule has no deviations.
  (void)trusting;
}

TEST_F(ScheduledTest, ParanoidModeRepairsLyingSchedule) {
  WorldState proposer_state = genesis_;
  ProposalResult proposal = ProposeBlock(block_, proposer_state, options_);
  // Corrupt the schedule: claim every redo transaction was clean.
  BlockSchedule lying = proposal.schedule;
  int corrupted = 0;
  for (TxSchedule& plan : lying.transactions) {
    if (plan.plan == TxSchedule::Plan::kRedo) {
      plan.plan = TxSchedule::Plan::kClean;
      plan.conflict_keys.clear();
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0);
  WorldState validator_state = genesis_;
  BlockReport report = ExecuteWithSchedule(block_, lying, validator_state, options_,
                                           /*paranoid=*/true);
  // Paranoid validation caught every lie and still produced the right state.
  EXPECT_EQ(report.conflicts, corrupted);
  EXPECT_EQ(proposer_state.Digest(), validator_state.Digest());
}

TEST_F(ScheduledTest, LyingScheduleWithoutParanoiaChangesTheRoot) {
  // The production defense: a trusting validator applies the lie, but the
  // resulting state root no longer matches the proposer's — the block is
  // rejected at a higher layer.
  WorldState proposer_state = genesis_;
  ProposalResult proposal = ProposeBlock(block_, proposer_state, options_);
  BlockSchedule lying = proposal.schedule;
  bool corrupted = false;
  for (TxSchedule& plan : lying.transactions) {
    if (plan.plan == TxSchedule::Plan::kRedo) {
      plan.plan = TxSchedule::Plan::kClean;
      plan.conflict_keys.clear();
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  WorldState validator_state = genesis_;
  ExecuteWithSchedule(block_, lying, validator_state, options_);
  EXPECT_NE(proposer_state.Digest(), validator_state.Digest());
}

TEST_F(ScheduledTest, EmptyScheduleFallsBackSerially) {
  // A missing/short schedule degrades to serial re-execution, never to a
  // wrong state.
  WorldState s1 = genesis_;
  SerialExecutor serial(options_);
  serial.Execute(block_, s1);
  WorldState s2 = genesis_;
  BlockSchedule empty;
  ExecuteWithSchedule(block_, empty, s2, options_);
  EXPECT_EQ(s1.Digest(), s2.Digest());
}

}  // namespace
}  // namespace pevm
