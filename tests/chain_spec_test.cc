// Cross-block speculation battery: with ChainOptions::speculate on, the chain
// runner launches block N+1's read phase against block N's uncommitted write
// overlay and validates every speculative record at the block boundary. The
// determinism contract says all of that is wall-clock only — so this suite
// runs randomized multi-block chains through the executors with speculation
// on and off and demands bit-identical per-block roots, final world states
// and every deterministic BlockReport field (receipts included, output and
// stats and all), plus serial-oracle root agreement for both runs.
//
// The BoundaryValidationTest suite below is the deterministic counterpart:
// hand-built airdrop / hot-owner / stale-output / control-path-flip shapes
// where block N writes exactly the keys block N+1 reads, driven through
// ValidateBoundary directly (no pipeline timing involved), asserting 100%
// stale-read detection and that redo-repaired records are bit-identical to a
// fresh speculation against the committed state.
//
// Repro flags (hence the custom main): a failing scenario prints its absolute
// seed; re-run just that scenario with
//   ./tests/chain_spec_test --seed=<seed> --blocks=1
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/serial.h"
#include "src/chain/chain_runner.h"
#include "src/workload/block_gen.h"
#include "src/workload/contracts.h"
#include "tests/report_testing.h"

namespace pevm {

// Flag-overridable battery shape, mirroring differential_test: scenarios use
// absolute seeds [g_seed, g_seed + g_blocks); narrowed repro runs skip the
// coverage vacuity checks. Set from main(), hence external linkage.
constexpr uint64_t kDefaultSeed = 91'000;
constexpr int kDefaultBlocks = 200;
uint64_t g_seed = kDefaultSeed;
int g_blocks = kDefaultBlocks;

namespace {

constexpr ExecutorKind kAllExecutors[] = {
    ExecutorKind::kSerial,   ExecutorKind::kTwoPhaseLocking, ExecutorKind::kOcc,
    ExecutorKind::kBlockStm, ExecutorKind::kParallelEvm,
};

// --- Randomized cross-block differential battery. ---------------------------

struct ChainScenario {
  WorkloadConfig config;
  int blocks = 2;
  // When set, the middle block is a MakeErc20ConflictBlock hot-spot pile-up,
  // so consecutive blocks share hot keys (the cross-block stale-read shape).
  bool conflict_chain = false;
  int conflict_txs = 0;
  double conflict_ratio = 0.0;
};

// Shape depends only on the absolute seed so any scenario reproduces
// standalone via --seed (with the default base, s walks 0..199).
ChainScenario MakeChainScenario(uint64_t seed) {
  ChainScenario scenario;
  WorkloadConfig& config = scenario.config;
  config.seed = seed;
  int s = static_cast<int>(seed % 1'000);
  config.transactions_per_block = 16 + (s % 3) * 12;  // 16 / 28 / 40
  config.users = 90 + (s % 5) * 40;                   // 90 .. 250
  config.tokens = 2 + s % 4;
  config.pools = 1 + s % 3;
  config.funds = 1 + s % 2;
  config.erc20_transfer_frac = 0.15 + 0.08 * (s % 5);
  config.erc20_transfer_from_frac = 0.05 + 0.03 * (s % 4);
  config.amm_swap_frac = 0.10 + 0.07 * (s % 3);
  config.crowdfund_frac = (s % 6 == 0) ? 0.15 : 0.05;
  config.failing_tx_frac = (s % 10 == 3) ? 0.25 : 0.02;
  scenario.blocks = 2 + s % 3;  // 2 .. 4
  if (s % 5 == 4) {
    scenario.conflict_chain = true;
    scenario.conflict_txs = 24 + (s % 3) * 8;
    scenario.conflict_ratio = 0.5 * (s % 3);  // 0.0, 0.5, 1.0
  }
  return scenario;
}

struct ChainCase {
  WorldState genesis;
  std::vector<Block> blocks;
  std::vector<Hash256> oracle_roots;  // Serial replay, from-scratch roots.
  WorldState oracle_final;
};

ChainCase MakeChainCase(const ChainScenario& scenario) {
  WorkloadGenerator gen(scenario.config);
  ChainCase chain;
  chain.genesis = gen.MakeGenesis();
  for (int b = 0; b < scenario.blocks; ++b) {
    bool conflict = scenario.conflict_chain && b == scenario.blocks / 2;
    chain.blocks.push_back(conflict ? gen.MakeErc20ConflictBlock(scenario.conflict_txs,
                                                                 scenario.conflict_ratio)
                                    : gen.MakeBlock());
  }
  WorldState state = chain.genesis;
  SerialExecutor oracle(ExecOptions{});
  for (const Block& block : chain.blocks) {
    oracle.Execute(block, state);
    chain.oracle_roots.push_back(state.StateRoot());
  }
  chain.oracle_final = std::move(state);
  return chain;
}

struct ChainRun {
  ChainReport report;
  WorldState final_state;
};

ChainRun RunChain(const ChainCase& chain, ExecutorKind kind, int os_threads, bool speculate) {
  ChainOptions options;
  options.executor = kind;
  options.exec.threads = 8;
  options.exec.os_threads = os_threads;
  options.queue_depth = 3;
  options.speculate = speculate;
  ChainRunner runner(options, chain.genesis);
  for (const Block& block : chain.blocks) {
    EXPECT_TRUE(runner.Submit(block));
  }
  ChainRun run;
  run.report = runner.Finish();
  run.final_state = runner.state();
  return run;
}

void ExpectRootsMatchOracle(const ChainReport& report, const ChainCase& chain,
                            const std::string& label) {
  ASSERT_EQ(report.roots.size(), chain.oracle_roots.size()) << label;
  for (size_t b = 0; b < chain.oracle_roots.size(); ++b) {
    ASSERT_EQ(HexEncode(report.roots[b]), HexEncode(chain.oracle_roots[b]))
        << label << " block " << b;
  }
}

TEST(ChainSpecDifferentialTest, SpeculationIsBitInvisibleAcrossRandomChains) {
  uint64_t total_blocks_speculated = 0;
  uint64_t total_txs_launched = 0;
  std::set<std::pair<ExecutorKind, int>> coverage;

  for (int b = 0; b < g_blocks; ++b) {
    uint64_t seed = g_seed + static_cast<uint64_t>(b);
    SCOPED_TRACE(testing::Message() << "scenario seed " << seed << " (repro: ./tests/"
                                    << "chain_spec_test --seed=" << seed << " --blocks=1)");
    ChainScenario scenario = MakeChainScenario(seed);
    ChainCase chain = MakeChainCase(scenario);
    int s = static_cast<int>(seed % 1'000);

    // Every 5th seed runs the full 5-executor x {1,4,16}-thread matrix; the
    // rest run a rotating slice so the battery stays fast.
    std::vector<ExecutorKind> kinds;
    std::vector<int> thread_counts;
    if (s % 5 == 0) {
      kinds.assign(std::begin(kAllExecutors), std::end(kAllExecutors));
      thread_counts = {1, 4, 16};
    } else {
      kinds = {ExecutorKind::kParallelEvm};
      if (s % 2 == 0) {
        kinds.push_back(ExecutorKind::kOcc);
      }
      thread_counts = {std::vector<int>{1, 4, 16}[s % 3]};
    }

    for (ExecutorKind kind : kinds) {
      for (int os_threads : thread_counts) {
        std::string label = std::string(ExecutorKindName(kind)) + " os_threads=" +
                            std::to_string(os_threads);
        SCOPED_TRACE(label);
        coverage.emplace(kind, os_threads);
        ChainRun off = RunChain(chain, kind, os_threads, /*speculate=*/false);
        ChainRun on = RunChain(chain, kind, os_threads, /*speculate=*/true);

        ExpectRootsMatchOracle(off.report, chain, label + " spec=off");
        ExpectRootsMatchOracle(on.report, chain, label + " spec=on");
        ASSERT_EQ(off.final_state, chain.oracle_final) << label << " spec=off";
        ASSERT_EQ(on.final_state, chain.oracle_final) << label << " spec=on";
        ExpectSameDeterministicRun({off.report.roots, off.report.block_reports},
                                   {on.report.roots, on.report.block_reports});

        // Speculation-off runs must not even start the stage.
        EXPECT_EQ(off.report.speculation.blocks_speculated, 0u);
        EXPECT_EQ(off.report.spec.blocks, 0u);
        const SpecStats& spec = on.report.speculation;
        // Every launched record is accounted for at the boundary.
        EXPECT_EQ(spec.seeds_clean + spec.seeds_redo_repaired + spec.seeds_dropped,
                  spec.txs_launched);
        total_blocks_speculated += spec.blocks_speculated;
        total_txs_launched += spec.txs_launched;
      }
    }
  }

  // Vacuity guards (full default battery only): the stage must actually run
  // and launch work for the seedable executors, and the matrix must cover
  // every executor x thread-count combination.
  if (g_seed == kDefaultSeed && g_blocks == kDefaultBlocks) {
    EXPECT_GT(total_blocks_speculated, 100u);
    EXPECT_GT(total_txs_launched, 1'000u);
    EXPECT_EQ(coverage.size(), std::size(kAllExecutors) * 3u);
  }
}

// --- Deterministic adversarial boundary shapes. -----------------------------
//
// No pipeline, no timing: speculate block N+1's transactions against the
// pre-state (the worst case — every overlay read happened before any of block
// N's writes landed), commit block N, then drive ValidateBoundary directly.

const Address kToken = Address::FromId(0x70CE);
const Address kCoinbase = Address::FromId(0xC0FFEE);
constexpr uint64_t kOwnerId = 0x2000;

Transaction TokenCall(uint64_t from_id, Bytes data, uint64_t nonce = 0) {
  Transaction tx;
  tx.from = Address::FromId(from_id);
  tx.to = kToken;
  tx.gas_limit = 200'000;
  tx.gas_price = U256(1);
  tx.nonce = nonce;
  tx.data = std::move(data);
  return tx;
}

// Token world: everyone ether-funded, `owner` holds a large token balance,
// listed users hold `user_tokens` each.
WorldState TokenWorld(const std::vector<uint64_t>& user_ids, uint64_t user_tokens) {
  WorldState state;
  state.SetCode(kToken, BuildErc20Code());
  state.SetBalance(Address::FromId(kOwnerId), U256::Exp(U256(10), U256(18)));
  state.SetStorage(kToken, Erc20BalanceSlot(Address::FromId(kOwnerId)), U256(1'000'000));
  for (uint64_t id : user_ids) {
    state.SetBalance(Address::FromId(id), U256::Exp(U256(10), U256(18)));
    if (user_tokens > 0) {
      state.SetStorage(kToken, Erc20BalanceSlot(Address::FromId(id)), U256(user_tokens));
    }
  }
  return state;
}

Block MakeN(std::vector<Transaction> txs) {
  Block block;
  block.context.coinbase = kCoinbase;
  block.transactions = std::move(txs);
  return block;
}

// Speculates every transaction of hypothetical block N+1 against `pre`.
std::vector<std::optional<Speculation>> SpeculatePre(const WorldState& pre,
                                                     const BlockContext& context,
                                                     const std::vector<Transaction>& next) {
  std::vector<std::optional<Speculation>> specs(next.size());
  for (size_t i = 0; i < next.size(); ++i) {
    specs[i] = SpeculateTransaction(pre, context, next[i], /*with_log=*/true);
  }
  return specs;
}

void ExpectSeedBitIdenticalToFresh(const Speculation& seed, const WorldState& committed,
                                   const BlockContext& context, const Transaction& tx,
                                   const std::string& label) {
  Speculation fresh = SpeculateTransaction(committed, context, tx, /*with_log=*/true);
  EXPECT_EQ(seed.receipt, fresh.receipt) << label;  // Full ==: output + stats included.
  EXPECT_EQ(seed.reads, fresh.reads) << label;
  EXPECT_EQ(seed.writes, fresh.writes) << label;
  EXPECT_EQ(seed.log.entries.size(), fresh.log.entries.size()) << label;
  EXPECT_EQ(seed.log.redoable, fresh.log.redoable) << label;
}

// Airdrop: block N's owner credits exactly the balances block N+1's senders
// debit. Every speculative record is stale; every one is redo-repairable
// (same control path: the users' pre-airdrop balances already cover their
// onward transfers).
TEST(BoundaryValidationTest, AirdropStaleReadsAllDetectedAndRedoRepaired) {
  std::vector<uint64_t> users = {0x1000, 0x1001, 0x1002, 0x1003};
  std::vector<uint64_t> targets = {0x1100, 0x1101, 0x1102, 0x1103};
  std::vector<uint64_t> everyone = users;
  everyone.insert(everyone.end(), targets.begin(), targets.end());
  WorldState pre = TokenWorld(everyone, /*user_tokens=*/500);

  std::vector<Transaction> airdrop;
  for (size_t i = 0; i < users.size(); ++i) {
    airdrop.push_back(TokenCall(
        kOwnerId, Erc20TransferCall(Address::FromId(users[i]), U256(100)), /*nonce=*/i));
  }
  Block block_n = MakeN(std::move(airdrop));

  std::vector<Transaction> next;
  for (size_t i = 0; i < users.size(); ++i) {
    next.push_back(
        TokenCall(users[i], Erc20TransferCall(Address::FromId(targets[i]), U256(50))));
  }

  std::vector<std::optional<Speculation>> specs = SpeculatePre(pre, block_n.context, next);
  WorldState committed = pre;
  SerialExecutor(ExecOptions{}).Execute(block_n, committed);

  BoundaryOutcome outcome = ValidateBoundary(std::move(specs), committed);
  EXPECT_EQ(outcome.validated, next.size());
  EXPECT_EQ(outcome.clean, 0u);  // 100% stale detection: no record passes clean.
  EXPECT_EQ(outcome.redo_repaired, next.size());
  EXPECT_EQ(outcome.dropped, 0u);  // ...and none needed the fallback path.
  EXPECT_GE(outcome.stale_keys, next.size());
  for (size_t i = 0; i < next.size(); ++i) {
    ASSERT_TRUE(outcome.seeds.specs[i].has_value()) << "tx " << i;
    ExpectSeedBitIdenticalToFresh(*outcome.seeds.specs[i], committed, block_n.context, next[i],
                                  "tx " + std::to_string(i));
  }
}

// Hot owner: block N's last transaction writes exactly the key (the owner's
// balance) block N+1's first transaction reads. A disjoint second transaction
// rides along and must validate clean.
TEST(BoundaryValidationTest, HotOwnerTransferFromRepairsAtBoundary) {
  std::vector<uint64_t> users = {0x1001, 0x1002, 0x1003, 0x1004};
  WorldState pre = TokenWorld(users, /*user_tokens=*/400);
  const Address owner = Address::FromId(kOwnerId);
  pre.SetStorage(kToken, Erc20AllowanceSlot(owner, Address::FromId(0x1001)), U256(5'000));
  pre.SetStorage(kToken, Erc20AllowanceSlot(owner, Address::FromId(0x1002)), U256(5'000));

  Block block_n = MakeN({TokenCall(
      0x1001, Erc20TransferFromCall(owner, Address::FromId(0x1001), U256(1'000)))});

  std::vector<Transaction> next;
  // Reads the owner balance block N just drained: stale, redo-repairable.
  next.push_back(
      TokenCall(0x1002, Erc20TransferFromCall(owner, Address::FromId(0x1002), U256(2'000))));
  // Touches only accounts block N never wrote: must validate clean.
  next.push_back(TokenCall(0x1003, Erc20TransferCall(Address::FromId(0x1004), U256(10))));

  std::vector<std::optional<Speculation>> specs = SpeculatePre(pre, block_n.context, next);
  WorldState committed = pre;
  SerialExecutor(ExecOptions{}).Execute(block_n, committed);

  BoundaryOutcome outcome = ValidateBoundary(std::move(specs), committed);
  EXPECT_EQ(outcome.validated, 2u);
  EXPECT_EQ(outcome.clean, 1u);
  EXPECT_EQ(outcome.redo_repaired, 1u);
  EXPECT_EQ(outcome.dropped, 0u);
  EXPECT_GE(outcome.stale_keys, 1u);
  for (size_t i = 0; i < next.size(); ++i) {
    ASSERT_TRUE(outcome.seeds.specs[i].has_value()) << "tx " << i;
    ExpectSeedBitIdenticalToFresh(*outcome.seeds.specs[i], committed, block_n.context, next[i],
                                  "tx " + std::to_string(i));
  }
}

// Storage-dependent return output: a balanceOf speculated before the balance
// changed must come back from the boundary with its receipt output rebuilt
// from the patched log (the PatchedReturnOutput provenance path), not the
// stale bytes it captured.
TEST(BoundaryValidationTest, StorageDependentReturnOutputIsPatchedByRedo) {
  WorldState pre = TokenWorld({0x1001, 0x1002}, /*user_tokens=*/0);
  const Address owner = Address::FromId(kOwnerId);

  Block block_n =
      MakeN({TokenCall(kOwnerId, Erc20TransferCall(Address::FromId(0x1002), U256(123)))});
  std::vector<Transaction> next = {TokenCall(0x1001, Erc20BalanceOfCall(owner))};

  std::vector<std::optional<Speculation>> specs = SpeculatePre(pre, block_n.context, next);
  ASSERT_TRUE(specs[0].has_value());
  Bytes stale_output = specs[0]->receipt.output;  // The pre-state balance.

  WorldState committed = pre;
  SerialExecutor(ExecOptions{}).Execute(block_n, committed);

  BoundaryOutcome outcome = ValidateBoundary(std::move(specs), committed);
  EXPECT_EQ(outcome.clean, 0u);
  EXPECT_EQ(outcome.redo_repaired, 1u);
  EXPECT_EQ(outcome.dropped, 0u);
  ASSERT_TRUE(outcome.seeds.specs[0].has_value());
  EXPECT_NE(outcome.seeds.specs[0]->receipt.output, stale_output);
  ExpectSeedBitIdenticalToFresh(*outcome.seeds.specs[0], committed, block_n.context, next[0],
                                "balanceOf");
}

// Control-path flip: block N drains the sender below the speculated transfer
// amount, so a fresh execution takes a different path (the transfer fails).
// The redo's constraint guard must catch this and drop the record — repairing
// it would forge a success receipt.
TEST(BoundaryValidationTest, ControlPathFlipIsDroppedNotMisrepaired) {
  WorldState pre = TokenWorld({0x1001, 0x1002, 0x1003}, /*user_tokens=*/100);
  const Address victim = Address::FromId(0x1001);
  pre.SetStorage(kToken, Erc20AllowanceSlot(victim, Address::FromId(0x1002)), U256(1'000));

  // Block N: a spender drains the victim 100 -> 50.
  Block block_n = MakeN(
      {TokenCall(0x1002, Erc20TransferFromCall(victim, Address::FromId(0x1002), U256(50)))});
  // Block N+1: the victim tries to send 90 — fine against the pre-state (100
  // >= 90), impossible against the committed state (50 < 90).
  std::vector<Transaction> next = {
      TokenCall(0x1001, Erc20TransferCall(Address::FromId(0x1003), U256(90)))};

  std::vector<std::optional<Speculation>> specs = SpeculatePre(pre, block_n.context, next);
  WorldState committed = pre;
  SerialExecutor(ExecOptions{}).Execute(block_n, committed);

  BoundaryOutcome outcome = ValidateBoundary(std::move(specs), committed);
  EXPECT_EQ(outcome.validated, 1u);
  EXPECT_EQ(outcome.clean, 0u);
  EXPECT_EQ(outcome.redo_repaired, 0u);
  EXPECT_EQ(outcome.dropped, 1u);
  EXPECT_FALSE(outcome.seeds.specs[0].has_value());  // Nothing leaked downstream.
}

// Disengaged entries (the hot-key gate held them back) must pass through
// untouched, and plain (log-free) records — what OCC-style executors seed —
// must survive clean validation but drop on any conflict.
TEST(BoundaryValidationTest, PlainRecordsReuseCleanAndDropOnAnyConflict) {
  WorldState pre = TokenWorld({0x1001, 0x1002, 0x1003, 0x1004}, /*user_tokens=*/500);

  Block block_n =
      MakeN({TokenCall(kOwnerId, Erc20TransferCall(Address::FromId(0x1001), U256(100)))});
  std::vector<Transaction> next = {
      // Reads the balance block N wrote: stale -> plain records must drop.
      TokenCall(0x1001, Erc20TransferCall(Address::FromId(0x1002), U256(50))),
      // Disjoint from block N: clean reuse.
      TokenCall(0x1003, Erc20TransferCall(Address::FromId(0x1004), U256(50))),
      // Held back by the gate: never engaged.
  };

  std::vector<std::optional<Speculation>> specs(3);
  for (size_t i = 0; i < next.size(); ++i) {
    specs[i] = SpeculateTransaction(pre, block_n.context, next[i], /*with_log=*/false);
  }
  WorldState committed = pre;
  SerialExecutor(ExecOptions{}).Execute(block_n, committed);

  BoundaryOutcome outcome = ValidateBoundary(std::move(specs), committed);
  EXPECT_EQ(outcome.validated, 2u);  // The disengaged slot is not inspected.
  EXPECT_EQ(outcome.clean, 1u);
  EXPECT_EQ(outcome.redo_repaired, 0u);  // No log, nothing to repair.
  EXPECT_EQ(outcome.dropped, 1u);
  EXPECT_FALSE(outcome.seeds.specs[0].has_value());
  ASSERT_TRUE(outcome.seeds.specs[1].has_value());
  EXPECT_FALSE(outcome.seeds.specs[2].has_value());
}

}  // namespace
}  // namespace pevm

// Custom main: gtest_main would reject the repro flags.
int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      pevm::g_seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--blocks=", 0) == 0) {
      pevm::g_blocks = std::stoi(arg.substr(9));
    } else {
      std::fprintf(stderr, "unknown flag: %s (supported: --seed=N --blocks=M)\n", arg.c_str());
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
