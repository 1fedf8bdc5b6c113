// Google-benchmark microbenchmarks for the substrates: 256-bit arithmetic,
// Keccak-256, MPT insertion/rooting, incremental state commitment, EVM
// interpretation with and without SSA log generation (the real-time
// counterpart of the paper's 4.5% overhead), and the redo phase on the
// paper's §3.2 scenario.
#include <benchmark/benchmark.h>

#include "src/baselines/serial.h"
#include "src/chain/commit.h"
#include "src/core/redo.h"
#include "src/core/ssa_builder.h"
#include "src/exec/apply.h"
#include "src/state/state_view.h"
#include "src/support/keccak.h"
#include "src/support/u256.h"
#include "src/trie/mpt.h"
#include "src/workload/block_gen.h"
#include "src/workload/contracts.h"

namespace pevm {
namespace {

const Address kOwner = Address::FromId(0xAAA);
const Address kSpender = Address::FromId(0xD0D);
const Address kRecipient = Address::FromId(0xB0B);
const Address kToken = Address::FromId(0x70CE);

void BM_U256_Add(benchmark::State& state) {
  U256 a(123456789, 987654321, 555, 777);
  U256 b(1, 2, 3, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
  }
}
BENCHMARK(BM_U256_Add);

void BM_U256_Mul(benchmark::State& state) {
  U256 a(123456789, 987654321, 555, 777);
  U256 b(1, 2, 3, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_U256_Mul);

void BM_U256_Div(benchmark::State& state) {
  U256 a = U256::Exp(U256(7), U256(90));
  U256 b = U256::Exp(U256(3), U256(40));
  for (auto _ : state) {
    benchmark::DoNotOptimize(U256::Div(a, b));
  }
}
BENCHMARK(BM_U256_Div);

void BM_Keccak256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(32)->Arg(64)->Arg(1024);

void BM_MptInsertAndRoot(benchmark::State& state) {
  for (auto _ : state) {
    MerklePatriciaTrie trie;
    for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
      std::array<uint8_t, 32> key = U256(i * 0x9e3779b9).ToBigEndian();
      trie.Put(BytesView(key.data(), key.size()), Bytes{1, 2, 3});
    }
    benchmark::DoNotOptimize(trie.RootHash());
  }
}
BENCHMARK(BM_MptInsertAndRoot)->Arg(64)->Arg(512);

// The commit layer alone ("re-root ns per dirty entry"): one hot-spot block's
// state diff (500-user genesis, ~1.3k journal entries) replayed into a seeded
// IncrementalStateTrie, then re-rooted. Re-applying the same diff dirties the
// same spines every iteration, so each one does a block's worth of commit
// work on the serial (os_threads = 1) committer the chain runner defaults to.
void BM_IncrementalCommit(benchmark::State& state) {
  WorkloadConfig config;
  config.users = 500;
  WorkloadGenerator generator(config);
  const WorldState genesis = generator.MakeGenesis();
  WorldState post = genesis;
  SerialExecutor executor{ExecOptions{}};
  post.BeginDiff();
  executor.Execute(generator.MakeBlock(), post);
  const StateDiff diff = post.TakeDiff();
  IncrementalStateTrie trie(genesis);
  for (auto _ : state) {
    trie.ApplyDiff(diff);
    benchmark::DoNotOptimize(trie.Root());
  }
  state.counters["diff_entries"] = static_cast<double>(diff.size());
  state.counters["time_per_entry"] = benchmark::Counter(
      static_cast<double>(state.iterations() * diff.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IncrementalCommit)->Unit(benchmark::kMicrosecond);

struct Erc20Fixture {
  WorldState state;
  BlockContext block;
  Transaction tx;

  Erc20Fixture() {
    state.SetCode(kToken, BuildErc20Code());
    state.SetStorage(kToken, Erc20BalanceSlot(kOwner), U256::Exp(U256(10), U256(18)));
    state.SetBalance(kOwner, U256::Exp(U256(10), U256(18)));
    tx.from = kOwner;
    tx.to = kToken;
    tx.data = Erc20TransferCall(kRecipient, U256(5));
    tx.gas_limit = 150'000;
    tx.gas_price = U256(1);
  }
};

void BM_Erc20Transfer(benchmark::State& state) {
  Erc20Fixture fx;
  for (auto _ : state) {
    StateView view(fx.state);
    benchmark::DoNotOptimize(ApplyTransaction(view, fx.block, fx.tx));
  }
}
BENCHMARK(BM_Erc20Transfer);

void BM_Erc20TransferWithSsaLog(benchmark::State& state) {
  Erc20Fixture fx;
  for (auto _ : state) {
    StateView view(fx.state);
    SsaBuilder builder;
    benchmark::DoNotOptimize(ApplyTransaction(view, fx.block, fx.tx, &builder));
    benchmark::DoNotOptimize(builder.TakeLog());
  }
}
BENCHMARK(BM_Erc20TransferWithSsaLog);

void BM_RedoPaperScenario(benchmark::State& state) {
  // The §3.2 scenario: repair tx2's balances[A] conflict via the redo phase.
  WorldState genesis;
  genesis.SetCode(kToken, BuildErc20Code());
  genesis.SetStorage(kToken, Erc20BalanceSlot(kOwner), U256(1'000'000));
  genesis.SetStorage(kToken, Erc20AllowanceSlot(kOwner, kSpender), ~U256{});
  genesis.SetBalance(kSpender, U256::Exp(U256(10), U256(18)));
  BlockContext block;
  Transaction tx2;
  tx2.from = kSpender;
  tx2.to = kToken;
  tx2.data = Erc20TransferFromCall(kOwner, kRecipient, U256(20));
  tx2.gas_limit = 200'000;
  tx2.gas_price = U256(1);

  StateView view(genesis);
  SsaBuilder builder;
  ApplyTransaction(view, block, tx2, &builder);
  TxLog log = builder.TakeLog();
  StateKey conflict_key = StateKey::Storage(kToken, Erc20BalanceSlot(kOwner));
  WorldState committed = genesis;
  committed.Set(conflict_key, U256(999'000));

  for (auto _ : state) {
    TxLog copy = log;
    ConflictMap conflicts{{conflict_key, U256(999'000)}};
    benchmark::DoNotOptimize(
        RunRedo(copy, conflicts, [&](const StateKey& k) { return committed.Get(k); }));
  }
}
BENCHMARK(BM_RedoPaperScenario);

void BM_StateRoot(benchmark::State& state) {
  WorldState world;
  for (uint64_t i = 0; i < 200; ++i) {
    Address a = Address::FromId(i);
    world.SetBalance(a, U256(i + 1));
    world.SetStorage(a, U256(1), U256(i * 7 + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.StateRoot());
  }
}
BENCHMARK(BM_StateRoot);

}  // namespace
}  // namespace pevm

BENCHMARK_MAIN();
