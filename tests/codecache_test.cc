// The code-cache contract (DESIGN.md §4.6): tier-0 analysis is a pure static
// function of (bytecode, fuse) computed exactly once per code hash no matter
// how many threads race on it; superinstruction execution and logging are
// bit-equivalent to the per-op path; and cache warmth — cold or warm — is
// invisible in every deterministic output.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "src/baselines/serial.h"
#include "src/codecache/analysis.h"
#include "src/codecache/code_cache.h"
#include "src/core/parallel_evm.h"
#include "src/core/redo.h"
#include "src/core/ssa_builder.h"
#include "src/evm/eval.h"
#include "src/evm/host.h"
#include "src/evm/interpreter.h"
#include "src/state/state_view.h"
#include "src/workload/block_gen.h"
#include "tests/report_testing.h"

namespace pevm {
namespace {

const Address kSelf = Address::FromId(0xF022);
const Address kCaller = Address::FromId(0xCA11);

Bytes Code(std::initializer_list<uint8_t> bytes) { return Bytes(bytes); }

Hash256 HashOf(const Bytes& code) { return Keccak256(BytesView(code.data(), code.size())); }

// --- Tier-0 analyzer. ------------------------------------------------------

TEST(CodeAnalysisTest, JumpdestBitmapSkipsPushImmediates) {
  // PUSH1 0x5b (the immediate is NOT a jumpdest), JUMPDEST, STOP.
  Bytes code = Code({0x60, 0x5b, 0x5b, 0x00});
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
  ASSERT_EQ(a->jumpdests.size(), code.size());
  EXPECT_FALSE(a->jumpdests[0]);
  EXPECT_FALSE(a->jumpdests[1]);  // Immediate byte of the PUSH.
  EXPECT_TRUE(a->jumpdests[2]);
  EXPECT_FALSE(a->jumpdests[3]);
}

TEST(CodeAnalysisTest, FusedSegmentCoversMaximalPureRun) {
  // PUSH1 2, PUSH1 3, ADD, PUSH1 0, SSTORE, STOP: the first four instructions
  // fuse (SSTORE is not fusible), leaving two outputs on the stack.
  Bytes code = Code({0x60, 0x02, 0x60, 0x03, 0x01, 0x60, 0x00, 0x55, 0x00});
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
  ASSERT_EQ(a->segments.size(), 1u);
  const SuperSegment& seg = a->segments[0];
  EXPECT_EQ(a->segment_at[0], 0);
  EXPECT_EQ(seg.start_pc, 0u);
  EXPECT_EQ(seg.end_pc, 7u);  // First pc past the run (the SSTORE).
  EXPECT_EQ(seg.op_count, 4u);
  EXPECT_EQ(seg.pop_depth, 0u);
  EXPECT_EQ(seg.min_height, 0u);
  EXPECT_EQ(seg.max_growth, 2);
  ASSERT_EQ(seg.outputs.size(), 2u);
  // All-constant dataflow folds at analysis time: outputs are 5 (deep) and 0
  // (top), each a single kConst step.
  ASSERT_EQ(seg.outputs[0]->steps.size(), 1u);
  EXPECT_EQ(seg.outputs[0]->steps[0].kind, SuperStep::Kind::kConst);
  EXPECT_EQ(seg.outputs[0]->steps[0].imm, U256(5));
  ASSERT_EQ(seg.outputs[1]->steps.size(), 1u);
  EXPECT_EQ(seg.outputs[1]->steps[0].imm, U256(0));
  // Mid-segment pcs are not segment starts.
  for (uint32_t pc = 1; pc < seg.end_pc; ++pc) {
    EXPECT_EQ(a->segment_at[pc], -1) << "pc " << pc;
  }
}

TEST(CodeAnalysisTest, SegmentNeedsAtLeastTwoOps) {
  // A lone PUSH between non-fusible ops must not form a segment.
  Bytes code = Code({0x54, 0x60, 0x01, 0x55, 0x00});  // SLOAD PUSH1 1 SSTORE STOP.
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
  EXPECT_TRUE(a->segments.empty());
}

TEST(CodeAnalysisTest, JumpdestIsNeverFusible) {
  // PUSH1 1, JUMPDEST, PUSH1 2, ADD, STOP: the JUMPDEST splits the run, so
  // the lone leading PUSH cannot fuse and the tail (PUSH1 2, ADD) can.
  Bytes code = Code({0x60, 0x01, 0x5b, 0x60, 0x02, 0x01, 0x00});
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
  ASSERT_EQ(a->segments.size(), 1u);
  EXPECT_EQ(a->segments[0].start_pc, 3u);
  EXPECT_EQ(a->segments[0].pop_depth, 1u);  // The ADD consumes the entry top.
  EXPECT_EQ(a->segments[0].min_height, 1u);
}

TEST(CodeAnalysisTest, SegmentInputsComeFromEntryStack) {
  // ADD over two pre-existing stack values: the segment's single output is an
  // expression over entry inputs, not a constant.
  Bytes code = Code({0x01, 0x01, 0x00});  // ADD ADD STOP.
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
  ASSERT_EQ(a->segments.size(), 1u);
  const SuperSegment& seg = a->segments[0];
  EXPECT_EQ(seg.pop_depth, 3u);
  EXPECT_EQ(seg.min_height, 3u);
  EXPECT_EQ(seg.max_growth, 0);
  ASSERT_EQ(seg.outputs.size(), 1u);
  // Evaluate (a + b) + c over inputs top={1}, then 2, then 3.
  const SuperExpr& expr = *seg.outputs[0];
  std::vector<U256> inputs(expr.input_depths.size());
  U256 entry[3] = {U256(1), U256(2), U256(3)};  // entry[d] = value at depth d.
  for (size_t i = 0; i < expr.input_depths.size(); ++i) {
    inputs[i] = entry[expr.input_depths[i]];
  }
  EXPECT_EQ(EvalSuperExpr(expr, inputs), U256(6));
}

TEST(CodeAnalysisTest, InputCapSplitsDeepConsumingRuns) {
  // 40 consecutive ADDs would reference 41 entry-stack slots; the
  // kMaxSuperInputs cap must split the run deterministically.
  Bytes code(40, 0x01);
  code.push_back(0x00);
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
  ASSERT_GE(a->segments.size(), 2u);
  uint32_t fused_ops = 0;
  for (const SuperSegment& seg : a->segments) {
    EXPECT_LE(seg.pop_depth, kMaxSuperInputs);
    EXPECT_LE(seg.outputs.size(), kMaxSuperOutputs);
    fused_ops += seg.op_count;
  }
  EXPECT_GE(fused_ops, 38u);  // The split loses at most a run boundary op.
}

TEST(CodeAnalysisTest, FuseOffKeepsJumpdestsOnly) {
  Bytes code = Code({0x60, 0x02, 0x60, 0x03, 0x01, 0x5b, 0x00});
  auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/false);
  EXPECT_TRUE(a->segments.empty());
  EXPECT_TRUE(a->jumpdests[5]);
}

TEST(CodeAnalysisTest, AnalysisIsAPureFunctionOfTheBytes) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes code(1 + rng() % 96);
    for (auto& b : code) {
      b = static_cast<uint8_t>(rng() & 0xff);
    }
    auto a = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
    auto b = AnalyzeCode(code, HashOf(code), /*fuse=*/true);
    ASSERT_EQ(a->segments.size(), b->segments.size());
    ASSERT_EQ(a->jumpdests, b->jumpdests);
    ASSERT_EQ(a->segment_at, b->segment_at);
    for (size_t i = 0; i < a->segments.size(); ++i) {
      ASSERT_EQ(a->segments[i].start_pc, b->segments[i].start_pc);
      ASSERT_EQ(a->segments[i].end_pc, b->segments[i].end_pc);
      ASSERT_EQ(a->segments[i].total_gas, b->segments[i].total_gas);
      ASSERT_EQ(a->segments[i].outputs.size(), b->segments[i].outputs.size());
    }
  }
}

// --- The cache itself. -----------------------------------------------------

TEST(CodeCacheTest, AnalyzesOncePerHashAndCountsHits) {
  CodeCache cache;
  Bytes code = Code({0x60, 0x01, 0x60, 0x02, 0x01, 0x00});
  Hash256 hash = HashOf(code);
  auto first = cache.Analyze(code, &hash);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.Analyze(code, &hash).get(), first.get());
  }
  CodeCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CodeCacheTest, NullHashFallsBackToHashingTheBytes) {
  CodeCache cache;
  Bytes code = Code({0x60, 0x2a, 0x60, 0x00, 0x55, 0x00});
  Hash256 hash = HashOf(code);
  auto a = cache.Analyze(code, nullptr);
  auto b = cache.Analyze(code, &hash);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->hash, hash);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(CodeCacheTest, PromotesAtThresholdExactlyOnce) {
  CodeCache cache(/*fuse=*/true, /*promote_threshold=*/3);
  Bytes code = Code({0x60, 0x01, 0x60, 0x02, 0x01, 0x00});
  Hash256 hash = HashOf(code);
  auto a1 = cache.Analyze(code, &hash);
  EXPECT_EQ(a1->program.load(), nullptr);
  cache.Analyze(code, &hash);
  EXPECT_EQ(a1->program.load(), nullptr);
  cache.Analyze(code, &hash);  // Third invocation crosses the threshold.
  const DecodedProgram* program = a1->program.load();
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->at.size(), code.size());
  // PUSH immediates are materialized and next-pc skips them.
  EXPECT_EQ(program->at[0].op, Opcode::kPush1);
  EXPECT_EQ(program->at[0].immediate, U256(1));
  EXPECT_EQ(program->at[0].next_pc, 2u);
  cache.Analyze(code, &hash);
  EXPECT_EQ(a1->program.load(), program);  // Stable after promotion.
  EXPECT_EQ(cache.GetStats().promotions, 1u);
}

// 16 real threads hammer one cache over a small code set: each hash must be
// analyzed exactly once and promoted exactly once, and every thread must see
// the same analysis object. (scripts/check_tsan.sh runs this under TSan.)
TEST(CodeCacheTest, ConcurrentLookupsAnalyzeOncePerHash) {
  CodeCache cache(/*fuse=*/true, /*promote_threshold=*/4);
  constexpr int kCodes = 8;
  constexpr int kThreads = 16;
  constexpr int kIters = 200;
  std::vector<Bytes> codes;
  std::vector<Hash256> hashes;
  for (int c = 0; c < kCodes; ++c) {
    Bytes code = Code({0x60, static_cast<uint8_t>(c), 0x60, 0x07, 0x02, 0x00});
    hashes.push_back(HashOf(code));
    codes.push_back(std::move(code));
  }
  std::vector<std::vector<const CodeAnalysis*>> seen(kThreads,
                                                     std::vector<const CodeAnalysis*>(kCodes));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        int c = (t + i) % kCodes;
        auto a = cache.Analyze(codes[static_cast<size_t>(c)], &hashes[static_cast<size_t>(c)]);
        seen[static_cast<size_t>(t)][static_cast<size_t>(c)] = a.get();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  CodeCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kCodes));
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kCodes));
  EXPECT_EQ(stats.promotions, static_cast<uint64_t>(kCodes));
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads) * kIters - kCodes);
  for (int c = 0; c < kCodes; ++c) {
    for (int t = 1; t < kThreads; ++t) {
      ASSERT_EQ(seen[static_cast<size_t>(t)][static_cast<size_t>(c)],
                seen[0][static_cast<size_t>(c)]);
    }
    ASSERT_NE(seen[0][static_cast<size_t>(c)]->program.load(), nullptr);
  }
}

// --- Interpreter equivalence: fused vs per-op. -----------------------------

Bytes RandomCode(std::mt19937_64& rng, size_t max_len) {
  size_t len = 1 + rng() % max_len;
  Bytes code(len);
  for (auto& b : code) {
    switch (rng() % 4) {
      case 0:
        b = static_cast<uint8_t>(0x60 + rng() % 16);  // Small pushes.
        break;
      case 1:
        b = static_cast<uint8_t>(rng() % 0x20);  // Arithmetic block.
        break;
      case 2:
        b = static_cast<uint8_t>(0x50 + rng() % 16);  // Memory/storage/flow.
        break;
      default:
        b = static_cast<uint8_t>(rng() & 0xff);
        break;
    }
  }
  return code;
}

struct RunOutcome {
  EvmStatus status;
  int64_t gas_left;
  Bytes output;
  uint64_t state_digest;
  uint64_t instructions;
  size_t log_entries;
};

RunOutcome RunWith(const Bytes& code, uint64_t data_seed, CodeProvider* provider,
                   bool with_log) {
  WorldState world;
  world.SetCode(kSelf, code);
  world.SetBalance(kSelf, U256(1'000'000));
  world.SetStorage(kSelf, U256(0), U256(42));
  StateView view(world);
  StateViewHost host(view);
  BlockContext block;
  TxContext tx{kCaller, U256(1)};
  SsaBuilder builder;
  Interpreter interp(host, block, tx, with_log ? &builder : nullptr, provider);
  Message msg;
  msg.code_address = kSelf;
  msg.storage_address = kSelf;
  msg.caller = kCaller;
  msg.gas = 200'000;
  std::mt19937_64 rng(data_seed);
  msg.data.resize(rng() % 68);
  for (auto& b : msg.data) {
    b = static_cast<uint8_t>(rng() & 0xff);
  }
  EvmResult r = interp.Execute(msg);
  RunOutcome out;
  out.status = r.status;
  out.gas_left = r.gas_left;
  out.output = std::move(r.output);
  WorldState post = world;
  post.Apply(view.write_set());
  out.state_digest = post.Digest();
  out.instructions = interp.stats().instructions;
  out.log_entries = builder.TakeLog().size();
  return out;
}

// The fused fast path must be invisible in everything except log granularity:
// status, gas, output, state, and the instruction count all match the per-op
// interpreter on arbitrary bytecode, with and without the SSA builder.
TEST(FusedExecutionTest, RandomBytecodeMatchesPerOpExecution) {
  std::mt19937_64 rng(0xCACE);
  CodeCache provider(/*fuse=*/true, /*promote_threshold=*/0);  // Tier 0 only.
  for (int i = 0; i < 600; ++i) {
    Bytes code = RandomCode(rng, 96);
    uint64_t data_seed = rng();
    bool with_log = (i % 2) == 0;
    RunOutcome fused = RunWith(code, data_seed, &provider, with_log);
    RunOutcome plain = RunWith(code, data_seed, nullptr, with_log);
    ASSERT_EQ(fused.status, plain.status) << HexEncode(code);
    ASSERT_EQ(fused.gas_left, plain.gas_left) << HexEncode(code);
    ASSERT_EQ(fused.output, plain.output) << HexEncode(code);
    ASSERT_EQ(fused.state_digest, plain.state_digest) << HexEncode(code);
    ASSERT_EQ(fused.instructions, plain.instructions) << HexEncode(code);
    if (with_log) {
      // Superinstruction logging can only shrink the log.
      ASSERT_LE(fused.log_entries, plain.log_entries) << HexEncode(code);
    }
  }
}

// Tier-1 dispatch must be bit-identical to tier-0 dispatch: run the same code
// through a cache below and above its promotion threshold.
TEST(FusedExecutionTest, PromotedDispatchMatchesUnpromoted) {
  std::mt19937_64 rng(0xBEEF);
  for (int i = 0; i < 200; ++i) {
    Bytes code = RandomCode(rng, 96);
    uint64_t data_seed = rng();
    CodeCache cold(/*fuse=*/true, /*promote_threshold=*/0);  // Never promotes.
    CodeCache hot(/*fuse=*/true, /*promote_threshold=*/1);   // Promotes on first invocation.
    RunOutcome tier0 = RunWith(code, data_seed, &cold, /*with_log=*/true);
    RunOutcome tier1 = RunWith(code, data_seed, &hot, /*with_log=*/true);
    ASSERT_EQ(tier1.status, tier0.status) << HexEncode(code);
    ASSERT_EQ(tier1.gas_left, tier0.gas_left) << HexEncode(code);
    ASSERT_EQ(tier1.output, tier0.output) << HexEncode(code);
    ASSERT_EQ(tier1.state_digest, tier0.state_digest) << HexEncode(code);
    ASSERT_EQ(tier1.instructions, tier0.instructions) << HexEncode(code);
    ASSERT_EQ(tier1.log_entries, tier0.log_entries) << HexEncode(code);
  }
}

// Redo over fused logs: structured storage programs speculated at
// superinstruction granularity, perturbed, then repaired — the patched write
// set must match full re-execution exactly (the kSuperOp redo case).
TEST(FusedExecutionTest, RedoOverFusedLogsMatchesReexecutionOracle) {
  std::mt19937_64 rng(0xF00D);
  CodeCache provider(/*fuse=*/true, /*promote_threshold=*/0);  // Tier 0 only.
  int checked = 0;
  int super_entries = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes code;
    std::mt19937_64 prog_rng(rng());
    auto push1 = [&](uint8_t v) {
      code.push_back(0x60);
      code.push_back(v);
    };
    int ops = 2 + static_cast<int>(prog_rng() % 6);
    for (int i = 0; i < ops; ++i) {
      push1(static_cast<uint8_t>(prog_rng() % 4));  // Slot.
      code.push_back(0x54);                         // SLOAD.
      push1(static_cast<uint8_t>(1 + prog_rng() % 9));
      code.push_back(static_cast<uint8_t>(prog_rng() % 2 == 0 ? 0x01 : 0x03));  // ADD/SUB.
      // A shuffle run after the arithmetic so fused segments with real
      // (non-constant) inputs appear in the log.
      code.push_back(0x80);  // DUP1.
      code.push_back(0x01);  // ADD -> 2x.
      push1(static_cast<uint8_t>(prog_rng() % 4));  // Target slot.
      code.push_back(0x55);                         // SSTORE.
    }
    code.push_back(0x00);  // STOP.

    WorldState world;
    world.SetCode(kSelf, code);
    for (uint64_t s = 0; s < 4; ++s) {
      world.SetStorage(kSelf, U256(s), U256(100 + s * 10));
    }
    StateView view(world);
    StateViewHost host(view);
    BlockContext block;
    TxContext tx{kCaller, U256(1)};
    SsaBuilder builder;
    Interpreter interp(host, block, tx, &builder, &provider);
    Message msg;
    msg.code_address = kSelf;
    msg.storage_address = kSelf;
    msg.caller = kCaller;
    msg.gas = 1'000'000;
    ASSERT_EQ(interp.Execute(msg).status, EvmStatus::kSuccess);
    TxLog log = builder.TakeLog();
    for (const OpLogEntry& entry : log.entries) {
      super_entries += entry.op == Opcode::kSuperOp ? 1 : 0;
    }

    WorldState perturbed = world;
    StateKey key = StateKey::Storage(kSelf, U256(prog_rng() % 4));
    U256 new_value(500 + prog_rng() % 100);
    perturbed.Set(key, new_value);
    ConflictMap conflicts{{key, new_value}};
    RedoResult redo =
        RunRedo(log, conflicts, [&](const StateKey& k) { return perturbed.Get(k); });

    StateView oracle_view(perturbed);
    StateViewHost oracle_host(oracle_view);
    Interpreter oracle_interp(oracle_host, block, tx);
    ASSERT_EQ(oracle_interp.Execute(msg).status, EvmStatus::kSuccess);
    if (!redo.success) {
      continue;  // Declining is always sound.
    }
    ++checked;
    const WriteSet& oracle_writes = oracle_view.write_set();
    ASSERT_EQ(redo.write_set.size(), oracle_writes.size()) << HexEncode(code);
    for (const auto& [k, v] : oracle_writes) {
      ASSERT_EQ(redo.write_set.at(k), v) << HexEncode(code) << " key " << k.ToString();
    }
  }
  EXPECT_GT(checked, 50);       // The repair property must not be vacuous...
  EXPECT_GT(super_entries, 0);  // ...and must actually cover kSuperOp entries.
}

// --- Executor-level differential battery. ----------------------------------

class CodeCacheDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig config;
    config.seed = 0xCC5;
    config.transactions_per_block = 120;
    config.users = 800;
    config.tokens = 6;
    config.pools = 3;
    gen_.emplace(config);
    genesis_ = gen_->MakeGenesis();
    blocks_.push_back(gen_->MakeHotContractBlock(120));
    blocks_.push_back(gen_->MakeBlock());
  }

  BlockRun Run(CodeCacheMode mode, int os_threads) {
    ExecOptions options;
    options.threads = 8;
    options.os_threads = os_threads;
    options.code_cache.mode = mode;
    WorldState state = genesis_;
    ParallelEvmExecutor executor(options);
    BlockRun run = RunBlocks(state, blocks_, [&](const Block& block, WorldState& s) {
      return executor.Execute(block, s);
    });
    run.roots = {state.StateRoot()};
    return run;
  }

  std::optional<WorkloadGenerator> gen_;
  WorldState genesis_;
  std::vector<Block> blocks_;
};

// A cold shared cache (every contract analyzed and promoted mid-run) and a
// warm one (every lookup a hit, every hot program already promoted), at every
// OS-thread count: bit-identical roots and deterministic reports. This is the
// §4.6 inertness claim at executor granularity — cache residency and tier-1
// hotness cannot leak into results. ctest runs each test in its own process,
// and no earlier test in this file touches the shared cache, so the first run
// here starts cold.
TEST_F(CodeCacheDifferentialTest, CacheWarmthIsInvisibleInResults) {
  CodeCache& shared = SharedCodeCache(/*fuse=*/true);
  const CodeCache::Stats before = shared.GetStats();
  BlockRun cold = Run(CodeCacheMode::kShared, /*os_threads=*/1);
  const CodeCache::Stats after_cold = shared.GetStats();
  EXPECT_GT(after_cold.misses, before.misses);
  EXPECT_GT(after_cold.promotions, before.promotions);
  for (int os_threads : {1, 4, 16}) {
    SCOPED_TRACE(testing::Message() << "os_threads=" << os_threads);
    ExpectSameDeterministicRun(cold, Run(CodeCacheMode::kShared, os_threads));
  }
  EXPECT_EQ(shared.GetStats().misses, after_cold.misses);  // The later runs were warm.
}

// kOff removes the provider: results (roots, receipts, gas) are unchanged,
// but the SSA log returns to per-op granularity — strictly more entries on a
// workload with fusible runs. This is the §6.4 log-overhead ablation pair.
TEST_F(CodeCacheDifferentialTest, DisabledCacheKeepsResultsButLogsPerOp) {
  BlockRun fused = Run(CodeCacheMode::kShared, /*os_threads=*/4);
  BlockRun off = Run(CodeCacheMode::kOff, /*os_threads=*/4);
  EXPECT_EQ(fused.roots, off.roots);
  ASSERT_EQ(fused.reports.size(), off.reports.size());
  uint64_t fused_entries = 0;
  uint64_t off_entries = 0;
  for (size_t b = 0; b < fused.reports.size(); ++b) {
    EXPECT_EQ(fused.reports[b].receipts, off.reports[b].receipts) << "block " << b;
    EXPECT_EQ(fused.reports[b].instructions, off.reports[b].instructions) << "block " << b;
    fused_entries += fused.reports[b].oplog_entries;
    off_entries += off.reports[b].oplog_entries;
  }
  EXPECT_LT(fused_entries, off_entries);
}

// The serial oracle agrees with both cache modes, closing the loop against
// an executor that never builds logs at all.
TEST_F(CodeCacheDifferentialTest, CachedParallelMatchesSerialOracle) {
  ExecOptions options;
  options.threads = 8;
  WorldState serial_state = genesis_;
  SerialExecutor serial(options);
  for (const Block& block : blocks_) {
    serial.Execute(block, serial_state);
  }
  std::string oracle_root = HexEncode(serial_state.StateRoot());
  for (CodeCacheMode mode : {CodeCacheMode::kShared, CodeCacheMode::kOff}) {
    EXPECT_EQ(HexEncode(Run(mode, /*os_threads=*/4).roots.back()), oracle_root)
        << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace pevm
