// Code-cache bench (EXPERIMENTS.md §6.4 follow-up): on the Zipfian
// hot-contract workload, measures
//   (a) the shared cache's tier-0 hit rate after one warm-up block and how
//       far the one-time analysis cost amortizes,
//   (b) the SSA log-overhead lever — oplog entries per executed instruction
//       with superinstruction logging vs the per-op baseline (kOff), the
//       19.6%-per-instruction overhead the cache was built to attack,
//   (c) the wall-clock read-phase delta between the two, and
//   (d) bit-identity of the post-state between kShared and kOff (hard
//       failure if violated — log granularity may change, results may not).
// Emits BENCH_codecache.json for CI trending.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/codecache/code_cache.h"

int main(int argc, char** argv) {
  using namespace pevm;
  BenchFlags flags;
  if (!ParseBenchFlags(argc, argv, flags)) {
    return 1;
  }
  const int blocks_n = flags.smoke ? 3 : 8;
  const int txs = flags.smoke ? 150 : 250;

  WorkloadConfig config;
  config.seed = 140000;
  config.transactions_per_block = txs;
  WorkloadGenerator gen(config);
  WorldState genesis = gen.MakeGenesis();
  std::vector<Block> blocks;
  for (int b = 0; b < blocks_n; ++b) {
    blocks.push_back(gen.MakeHotContractBlock(txs));
  }

  ExecOptions base_options;
  base_options.threads = 16;

  struct ModeRun {
    uint64_t digest = 0;
    uint64_t oplog_entries = 0;
    uint64_t instructions = 0;
    uint64_t read_wall_ns = 0;
    uint64_t makespan_ns = 0;
  };
  auto run_mode = [&](CodeCacheMode mode) {
    ExecOptions options = base_options;
    options.code_cache.mode = mode;
    WorldState state = genesis;
    ParallelEvmExecutor executor(options);
    ModeRun out;
    for (const Block& block : blocks) {
      BlockReport report = executor.Execute(block, state);
      out.oplog_entries += report.oplog_entries;
      out.instructions += report.instructions;
      out.read_wall_ns += report.read_wall_ns;
      out.makespan_ns += report.makespan_ns;
    }
    out.digest = state.Digest();
    return out;
  };

  // --- (a) Hit rate: warm-up block, then steady state on the shared cache. --
  CodeCache& shared = SharedCodeCache(/*fuse=*/true);
  {
    ExecOptions options = base_options;  // kShared is the default.
    WorldState state = genesis;
    ParallelEvmExecutor executor(options);
    executor.Execute(blocks[0], state);
  }
  CodeCache::Stats warmed = shared.GetStats();
  ModeRun shared_run = run_mode(CodeCacheMode::kShared);
  CodeCache::Stats steady = shared.GetStats();
  uint64_t steady_hits = steady.hits - warmed.hits;
  uint64_t steady_misses = steady.misses - warmed.misses;
  double hit_rate = steady_hits + steady_misses == 0
                        ? 0.0
                        : static_cast<double>(steady_hits) /
                              static_cast<double>(steady_hits + steady_misses);

  // --- (b)+(c) Fused vs per-op log granularity and read wall. --------------
  ModeRun off_run = run_mode(CodeCacheMode::kOff);

  // --- (d) Fused and per-op execution must land on the same post-state. ----
  if (shared_run.digest != off_run.digest) {
    std::fprintf(stderr, "FATAL: code-cache mode changed the post-state digest\n");
    return 1;
  }

  double fused_epi = static_cast<double>(shared_run.oplog_entries) /
                     static_cast<double>(shared_run.instructions);
  double off_epi =
      static_cast<double>(off_run.oplog_entries) / static_cast<double>(off_run.instructions);
  double reduction = 1.0 - fused_epi / off_epi;
  telemetry::Histogram& analysis_ns = telemetry::GetHistogram("codecache.analysis_ns");

  std::printf("Code cache on the Zipfian hot-contract workload "
              "(%d blocks x %d txs, contract_zipf_s=%.2f)\n",
              blocks_n, txs, config.contract_zipf_s);
  std::printf("  tier-0 hit rate after warm-up: %.2f%% (%llu hits / %llu lookups, "
              "%llu distinct code hashes)\n",
              100.0 * hit_rate, static_cast<unsigned long long>(steady_hits),
              static_cast<unsigned long long>(steady_hits + steady_misses),
              static_cast<unsigned long long>(steady.entries));
  std::printf("  analysis amortization: %llu analyses, %.1f us total, "
              "%llu tier-1 promotions\n",
              static_cast<unsigned long long>(analysis_ns.count()),
              static_cast<double>(analysis_ns.sum()) / 1000.0,
              static_cast<unsigned long long>(steady.promotions));
  std::printf("  oplog entries/instruction: %.4f fused vs %.4f per-op "
              "-> %.1f%% fewer log entries\n",
              fused_epi, off_epi, 100.0 * reduction);
  std::printf("  read wall: %.2f ms fused vs %.2f ms per-op\n",
              static_cast<double>(shared_run.read_wall_ns) / 1e6,
              static_cast<double>(off_run.read_wall_ns) / 1e6);
  std::printf("  state digest identical across kShared/kOff\n");

  WriteBenchJson("BENCH_codecache.json", [&](JsonWriter& w) {
    w.BeginObject();
    w.Field("blocks", blocks_n);
    w.Field("transactions_per_block", txs);
    w.Field("contract_zipf_s", config.contract_zipf_s);
    w.Field("hit_rate", hit_rate);
    w.Field("steady_hits", steady_hits);
    w.Field("steady_misses", steady_misses);
    w.Field("distinct_code_hashes", steady.entries);
    w.Field("promotions", steady.promotions);
    w.Field("analyses", analysis_ns.count());
    w.Field("analysis_total_ns", analysis_ns.sum());
    w.Field("oplog_entries_fused", shared_run.oplog_entries);
    w.Field("oplog_entries_per_op", off_run.oplog_entries);
    w.Field("instructions", shared_run.instructions);
    w.Field("entries_per_instruction_fused", fused_epi);
    w.Field("entries_per_instruction_per_op", off_epi);
    w.Field("oplog_reduction", reduction);
    w.Field("read_wall_ns_fused", shared_run.read_wall_ns);
    w.Field("read_wall_ns_per_op", off_run.read_wall_ns);
    w.Field("roots_match", true);
    w.EndObject();
  });

  // Export --trace/--metrics before the gates: a failing run's telemetry is
  // exactly the artifact worth inspecting.
  if (!WriteTelemetryArtifacts(flags)) {
    return 1;
  }

  // Regression gates from the issue's acceptance criteria.
  if (hit_rate < 0.90) {
    std::fprintf(stderr, "FATAL: tier-0 hit rate %.2f%% below the 90%% floor\n",
                 100.0 * hit_rate);
    return 1;
  }
  if (reduction < 0.30) {
    std::fprintf(stderr, "FATAL: oplog reduction %.1f%% below the 30%% floor\n",
                 100.0 * reduction);
    return 1;
  }
  return 0;
}
