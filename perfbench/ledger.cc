// The traced run's per-layer ledger. It replays the blocks the pipeline
// committed, one at a time, through the same public layer calls the pipeline
// makes (Executor::Execute, IncrementalStateTrie::ApplyDiff / CommitBlock into
// a KvStore, EvalQuery) and records a span around each call from here, so no
// tracing is compiled into the node. Spans are kept in memory and written as
// Chrome trace JSON when the run ends. Self time of a span is its duration
// minus its children's; the ledger residuals compare the replay's per-block
// sums with the busy time the pipeline's flight recorder logged for the same
// block ids.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/chain/commit.h"
#include "src/chain/node_store.h"
#include "src/state/state_view.h"
#include "src/support/keccak.h"
#include "src/support/u256.h"

namespace perfbench {
namespace {

struct Span {
  const char* name;
  uint64_t block;
  uint64_t start_ns;
  uint64_t end_ns;
  int parent;  // Index into the recorder, -1 for a root span.
};

class SpanRecorder {
 public:
  int Begin(const char* name, uint64_t block, int parent) {
    spans_.push_back({name, block, NowNs(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  // Closes `span` and returns its duration in ns.
  double End(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.end_ns = NowNs();
    return static_cast<double>(s.end_ns - s.start_ns);
  }
  // A sub-interval a layer reported about itself (BlockReport's read phase
  // and sweep), placed back to back from the parent's start.
  void AddReported(const char* name, uint64_t block, int parent, uint64_t offset_ns,
                   uint64_t duration_ns) {
    uint64_t start = spans_[static_cast<size_t>(parent)].start_ns + offset_ns;
    spans_.push_back({name, block, start, start + duration_ns, parent});
  }

  // Per span name: total self time (duration minus children) in ns.
  std::map<std::string, double> SelfNs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\": [";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"block\": %llu}}",
                    i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.block));
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Median ns per call over `batches` timed batches of `iters` calls.
template <typename Fn>
double TimePerCall(int batches, int iters, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    uint64_t start = NowNs();
    for (int i = 0; i < iters; ++i) {
      fn(i);
    }
    per_call.push_back(static_cast<double>(NowNs() - start) / iters);
  }
  return Percentile(per_call, 0.5);
}

// support layer: Keccak by input length and U256 mul/div on seeded inputs.
void SupportMicrobench(const Args& args, SpanRecorder& spans, MetricSet& metrics) {
  std::mt19937_64 rng(args.seed * 31 + 7);
  constexpr int kInputs = 64;
  std::vector<pevm::Bytes> small(kInputs, pevm::Bytes(32)), large(kInputs, pevm::Bytes(512));
  std::vector<pevm::U256> a(kInputs), b(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    for (auto& byte : small[i]) byte = static_cast<uint8_t>(rng());
    for (auto& byte : large[i]) byte = static_cast<uint8_t>(rng());
    uint8_t wide[32], narrow[32] = {};
    for (auto& byte : wide) byte = static_cast<uint8_t>(rng());
    for (int k = 16; k < 32; ++k) narrow[k] = static_cast<uint8_t>(rng() | 1);
    a[i] = pevm::U256::FromBigEndian(pevm::BytesView(wide, 32));
    b[i] = pevm::U256::FromBigEndian(pevm::BytesView(narrow, 32));
  }
  uint8_t sink = 0;
  pevm::U256 acc;
  int span = spans.Begin("support", 0, -1);
  double k32 = TimePerCall(5, 20'000, [&](int i) {
    sink ^= pevm::Keccak256(pevm::BytesView(small[i % kInputs]))[0];
  });
  double k512 = TimePerCall(5, 4'000, [&](int i) {
    sink ^= pevm::Keccak256(pevm::BytesView(large[i % kInputs]))[0];
  });
  double div = TimePerCall(5, 20'000, [&](int i) {
    acc = acc ^ pevm::U256::Div(a[i % kInputs], b[(i + 1) % kInputs]);
  });
  double mul = TimePerCall(5, 200'000, [&](int i) {
    acc = acc ^ (a[i % kInputs] * b[(i + 3) % kInputs]);
  });
  spans.End(span);
  if (sink == 1 && acc.IsZero()) {
    std::fprintf(stderr, "(support microbench sink)\n");  // Keeps the loops live.
  }
  metrics.Add("support.keccak256_32B_ns", k32, "ns");
  metrics.Add("support.keccak256_512B_ns", k512, "ns");
  metrics.Add("support.u256_div_ns", div, "ns");
  metrics.Add("support.u256_mul_ns", mul, "ns");
}

// core layer: ParallelEVM's logged read phase vs OCC's plain one on the same
// blocks, both on one OS thread with no storage latency.
double LogOverheadFrac(const pevm::WorldState& genesis, const PipelineRun& run, double budget_s) {
  pevm::ExecOptions options;
  options.os_threads = 1;
  std::unique_ptr<pevm::Executor> pevm_exec =
      pevm::MakeExecutor(pevm::ExecutorKind::kParallelEvm, options);
  std::unique_ptr<pevm::Executor> occ = pevm::MakeExecutor(pevm::ExecutorKind::kOcc, options);
  pevm::WorldState with_log = genesis;
  pevm::WorldState plain = genesis;
  double logged_ns = 0.0, plain_ns = 0.0;
  const double deadline = NowS() + budget_s;
  for (size_t b = 0; b < run.report.blocks_committed && NowS() < deadline; ++b) {
    logged_ns += static_cast<double>(pevm_exec->Execute(run.blocks[b], with_log).read_wall_ns);
    plain_ns += static_cast<double>(occ->Execute(run.blocks[b], plain).read_wall_ns);
  }
  return Ratio(logged_ns - plain_ns, plain_ns);
}

}  // namespace

bool RunTracedLedger(const Args& args, const Workload& workload, const pevm::WorldState& genesis,
                     const PipelineRun& run, MetricSet& metrics) {
  namespace fs = std::filesystem;
  SpanRecorder spans;
  const pevm::ChainReport& report = run.report;
  const size_t committed = report.blocks_committed;

  // --- Pipeline-side numbers (the measured segments, as in an untraced run).
  double txs = 0.0, conflicts = 0.0, redo_ok = 0.0, fallbacks = 0.0, redo_entries = 0.0;
  double oplog = 0.0, instructions = 0.0, read_ns = 0.0, sweep_ns = 0.0;
  for (size_t b = 0; b < report.block_reports.size(); ++b) {
    const pevm::BlockReport& r = report.block_reports[b];
    txs += static_cast<double>(run.blocks[b].transactions.size());
    conflicts += r.conflicts;
    redo_ok += r.redo_success;
    fallbacks += r.full_reexecutions;
    redo_entries += static_cast<double>(r.redo_entries_reexecuted);
    oplog += static_cast<double>(r.oplog_entries);
    instructions += static_cast<double>(r.instructions);
    read_ns += static_cast<double>(r.read_wall_ns);
    sweep_ns += static_cast<double>(r.commit_wall_ns);
  }
  const double executed = static_cast<double>(std::max<size_t>(1, report.block_reports.size()));
  const double blocks = static_cast<double>(std::max<size_t>(1, committed));
  std::map<uint64_t, const pevm::ops::BlockAnatomy*> anatomy;  // 0-based block id.
  double ready_wait_ns = 0.0, commit_wait_ns = 0.0, diff_entries = 0.0;
  for (const pevm::ops::BlockAnatomy& a : run.anatomy) {
    anatomy[a.block_index - 1] = &a;
    ready_wait_ns += static_cast<double>(a.ready_wait_ns);
    commit_wait_ns += static_cast<double>(a.commit_wait_ns);
    diff_entries += static_cast<double>(a.diff_entries);
  }
  const double recorded = static_cast<double>(std::max<size_t>(1, run.anatomy.size()));
  double apply_ns = 0.0, kv_bytes = 0.0, kv_nodes = 0.0, kv_fsyncs = 0.0, kv_sync_ns = 0.0,
         kv_persist_ns = 0.0;
  for (const pevm::BlockDurability& d : report.durability) {
    apply_ns += static_cast<double>(d.apply_ns);
    kv_bytes += static_cast<double>(d.bytes_appended);
    kv_nodes += static_cast<double>(d.nodes_written);
    kv_fsyncs += static_cast<double>(d.fsyncs);
    kv_sync_ns += static_cast<double>(d.sync_ns);
    kv_persist_ns += static_cast<double>(d.persist_ns);
  }

  // Stage busy time over the measured segments (the stages idle between them).
  const double measured_ns = run.wall_s * 1e9;
  metrics.Add("chain.warm.busy_frac", Ratio(report.warm.busy_ns, measured_ns), "fraction");
  metrics.Add("chain.spec.busy_frac", Ratio(report.spec.busy_ns, measured_ns), "fraction");
  metrics.Add("chain.exec.busy_frac", Ratio(report.exec.busy_ns, measured_ns), "fraction");
  metrics.Add("chain.commit.busy_frac", Ratio(report.commit.busy_ns, measured_ns), "fraction");
  metrics.Add("chain.ready_wait_ms", ready_wait_ns / recorded / 1e6, "ms");
  metrics.Add("chain.commit_wait_ms", commit_wait_ns / recorded / 1e6, "ms");

  metrics.Add("exec.read_ms", read_ns / executed / 1e6, "ms");
  metrics.Add("exec.sweep_ms", sweep_ns / executed / 1e6, "ms");
  metrics.Add("exec.conflict_frac", Ratio(conflicts, txs), "fraction");
  metrics.Add("exec.redo_success_frac", Ratio(redo_ok, conflicts), "fraction");
  metrics.Add("exec.fallback_frac", Ratio(fallbacks, conflicts), "fraction");

  metrics.Add("core.oplog_entries_per_instr", Ratio(oplog, instructions), "count");
  metrics.Add("core.redo_entries_per_conflict", Ratio(redo_entries, conflicts), "count");

  const pevm::CodeCache::Stats& c0 = run.code_cache_before;
  const pevm::CodeCache::Stats& c1 = run.code_cache_after;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  metrics.Add("codecache.hit_frac", Ratio(hits, hits + static_cast<double>(c1.misses - c0.misses)),
              "fraction");

  metrics.Add("commit.apply_ms", apply_ns / blocks / 1e6, "ms");
  metrics.Add("commit.diff_entries_per_block", diff_entries / recorded, "count");

  const pevm::SpecStats& spec = report.speculation;
  const double launched = static_cast<double>(spec.txs_launched);
  metrics.Add("spec.launched_frac", Ratio(launched, txs), "fraction");
  metrics.Add("spec.held_frac", Ratio(static_cast<double>(spec.txs_held), txs), "fraction");
  metrics.Add("spec.clean_frac", Ratio(static_cast<double>(spec.seeds_clean), launched),
              "fraction");
  metrics.Add("spec.repaired_frac", Ratio(static_cast<double>(spec.seeds_redo_repaired), launched),
              "fraction");
  metrics.Add("spec.dropped_frac", Ratio(static_cast<double>(spec.seeds_dropped), launched),
              "fraction");
  metrics.Add("spec.boundary_validate_ms",
              Ratio(static_cast<double>(spec.boundary_validate_wall_ns),
                    static_cast<double>(spec.blocks_speculated)) / 1e6,
              "ms");

  metrics.Add("kv.genesis_mb", static_cast<double>(run.kv_genesis_bytes) / 1e6, "MB");
  metrics.Add("kv.bytes_per_block", kv_bytes / blocks, "B");
  metrics.Add("kv.nodes_per_block", kv_nodes / blocks, "count");
  metrics.Add("kv.fsyncs_per_block", kv_fsyncs / blocks, "count");
  metrics.Add("kv.sync_ms_per_block", kv_sync_ns / blocks / 1e6, "ms");
  metrics.Add("kv.persist_ms_per_block", kv_persist_ns / blocks / 1e6, "ms");
  metrics.Add("kv.compacted_bytes", static_cast<double>(run.kv_compacted_bytes), "B");

  std::vector<double> serve_us, wait_us;
  for (const QueryRecord& q : run.queries) {
    if (q.response.ok()) {
      double serve = static_cast<double>(q.response.wall_ns) / 1e3;
      serve_us.push_back(serve);
      wait_us.push_back(std::max(0.0, q.latency_us - serve));
    }
  }
  metrics.Add("query.serve_us_p50", Percentile(serve_us, 0.5), "us");
  metrics.Add("query.queue_wait_us_p50", Percentile(wait_us, 0.5), "us");
  metrics.Add("snapshot.acquires", static_cast<double>(report.query_snapshots.acquires), "count");
  metrics.Add("snapshot.evictions_deferred",
              static_cast<double>(report.query_snapshots.evictions_deferred), "count");
  metrics.Add("snapshot.versions_folded",
              static_cast<double>(report.query_snapshots.versions_folded), "count");

  metrics.Add("loadgen.late_max_ms", run.late_max_ms, "ms");
  metrics.Add("proc.threads_max", run.threads_max, "count");

  // --- Traced replay of the committed blocks, one at a time, for at most
  // half the measured time. Same executor options as the pipeline; the
  // pipeline-only handoff (external warm-up) is off, so each block starts
  // storage-cold.
  const fs::path ledger_dir =
      fs::path(args.work_dir) / (workload.name + "-" + std::to_string(args.seed)) / "ledger-kv";
  std::unique_ptr<pevm::KvStore> kv;
  std::unique_ptr<pevm::KvNodeStore> node_store;
  if (workload.options.persist == pevm::PersistMode::kKv) {
    fs::remove_all(ledger_dir);
    std::string error;
    kv = pevm::KvStore::Open(ledger_dir.string(), workload.options.kv, &error);
    if (!kv) {
      std::fprintf(stderr, "FATAL: cannot open ledger kv store: %s\n", error.c_str());
      return false;
    }
    node_store = std::make_unique<pevm::KvNodeStore>(*kv);
  }
  size_t replayed = 0;
  double cold_reads = 0.0, apply_serial_ns = 0.0, apply_parallel_ns = 0.0;
  double pipe_exec_ns = 0.0, pipe_commit_ns = 0.0, traced_exec_ns = 0.0, traced_commit_ns = 0.0;
  double seed_s = 0.0;
  {
    pevm::WorldState state = genesis;
    std::unique_ptr<pevm::Executor> executor =
        pevm::MakeExecutor(workload.options.executor, workload.options.exec);
    const double t0 = NowS();
    int seed_span = spans.Begin("commit.seed", 0, -1);
    pevm::IncrementalStateTrie trie(state, node_store.get(),
                                    pevm::IncrementalStateTrie::SeedMode::kFresh,
                                    workload.options.commit);
    spans.End(seed_span);
    seed_s = NowS() - t0;
    pevm::SimStore* store = executor->chain_store();
    auto same_root = [&](size_t b, const pevm::Hash256& root) {
      if (root != report.roots[b]) {
        std::fprintf(stderr, "FATAL: replayed root differs from pipeline root at block %zu\n", b);
        return false;
      }
      return true;
    };
    const double deadline = NowS() + args.seconds / 2.0;
    for (size_t b = 0; b < committed && NowS() < deadline; ++b, ++replayed) {
      const uint64_t cold_before = store ? store->cold_touches() : 0;
      int block_span = spans.Begin("chain.block", b, -1);
      state.BeginDiff();
      int exec_span = spans.Begin("exec.execute", b, block_span);
      pevm::BlockReport r = executor->Execute(run.blocks[b], state);
      const double exec_ns = spans.End(exec_span);
      spans.AddReported("exec.read_phase", b, exec_span, 0, r.read_wall_ns);
      spans.AddReported("exec.sweep", b, exec_span, r.read_wall_ns, r.commit_wall_ns);
      pevm::StateDiff diff = state.TakeDiff();
      int apply_span = spans.Begin("commit.apply", b, block_span);
      trie.ApplyDiff(diff);
      pevm::Hash256 root = trie.Root();
      const double apply_span_ns = spans.End(apply_span);
      int seal_span = spans.Begin("kv.seal", b, block_span);
      trie.CommitBlock(b);
      const double seal_ns = spans.End(seal_span);
      spans.End(block_span);
      if (!same_root(b, root)) {
        return false;
      }
      cold_reads += static_cast<double>(store ? store->cold_touches() - cold_before : 0);
      apply_serial_ns += static_cast<double>(trie.last_apply().serial_ns);
      apply_parallel_ns += static_cast<double>(trie.last_apply().parallel_ns);
      auto it = anatomy.find(b);
      if (it != anatomy.end()) {
        pipe_exec_ns += static_cast<double>(it->second->exec_busy_ns);
        pipe_commit_ns += static_cast<double>(it->second->commit_apply_ns +
                                              it->second->commit_persist_ns);
        traced_exec_ns += exec_ns;
        traced_commit_ns += apply_span_ns + seal_ns;
      }
    }

    // The blocks the traced part did not reach are replayed untimed for the
    // per-block root check, with the storage-latency model off: it moves wall
    // clock only, never state.
    pevm::ExecOptions check_options = workload.options.exec;
    check_options.storage = pevm::SimStoreConfig{};
    std::unique_ptr<pevm::Executor> checker =
        pevm::MakeExecutor(workload.options.executor, check_options);
    for (size_t b = replayed; b < committed; ++b) {
      state.BeginDiff();
      checker->Execute(run.blocks[b], state);
      trie.ApplyDiff(state.TakeDiff());
      if (!same_root(b, trie.Root())) {
        return false;
      }
      trie.CommitBlock(b);
    }

    // query layer: the run's read mix evaluated on the final state.
    pevm::WorldStateReader reader(state);
    pevm::CodeProvider* provider = pevm::StaticCodeProvider(pevm::CodeCacheConfig{});
    double kind_ns[pevm::kQueryKinds] = {}, kind_n[pevm::kQueryKinds] = {};
    const size_t n_eval = std::min<size_t>(run.load.size(), 2000);
    for (size_t j = 0; j < n_eval; ++j) {
      const pevm::QueryRequest& request = run.load[j].request;
      int span = spans.Begin("query.eval", committed, -1);
      pevm::EvalQuery(request, reader, committed, pevm::Hash256{}, provider);
      kind_ns[static_cast<int>(request.kind)] += spans.End(span);
      kind_n[static_cast<int>(request.kind)] += 1.0;
    }
    static const char* const kKindMetric[pevm::kQueryKinds] = {
        "query.eval_us.balance", "query.eval_us.nonce", "query.eval_us.storage",
        "query.eval_us.code", "query.eval_us.call"};
    for (int k = 0; k < pevm::kQueryKinds; ++k) {
      metrics.Add(kKindMetric[k], Ratio(kind_ns[k], kind_n[k]) / 1e3, "us");
    }
  }
  kv.reset();
  node_store.reset();
  fs::remove_all(ledger_dir);
  if (replayed == 0) {
    std::fprintf(stderr, "FATAL: traced replay covered no block\n");
    return false;
  }
  const double replayed_blocks = static_cast<double>(replayed);
  metrics.Add("commit.seed_s", seed_s, "s");
  metrics.Add("commit.apply_serial_ms", apply_serial_ns / replayed_blocks / 1e6, "ms");
  metrics.Add("commit.apply_parallel_ms", apply_parallel_ns / replayed_blocks / 1e6, "ms");
  metrics.Add("state.cold_reads_per_block", cold_reads / replayed_blocks, "count");

  metrics.Add("core.log_overhead_frac",
              LogOverheadFrac(genesis, run, std::min(2.0, args.seconds / 4.0)), "fraction");
  SupportMicrobench(args, spans, metrics);

  std::map<std::string, double> self = spans.SelfNs();
  metrics.Add("ledger.blocks", replayed_blocks, "count");
  metrics.Add("self.chain_ms", self["chain.block"] / replayed_blocks / 1e6, "ms");
  metrics.Add("self.exec_ms", self["exec.execute"] / replayed_blocks / 1e6, "ms");
  metrics.Add("self.read_phase_ms", self["exec.read_phase"] / replayed_blocks / 1e6, "ms");
  metrics.Add("self.sweep_ms", self["exec.sweep"] / replayed_blocks / 1e6, "ms");
  metrics.Add("self.commit_ms", self["commit.apply"] / replayed_blocks / 1e6, "ms");
  metrics.Add("self.kv_ms", self["kv.seal"] / replayed_blocks / 1e6, "ms");
  metrics.Add("ledger.exec_residual_frac", Ratio(pipe_exec_ns - traced_exec_ns, pipe_exec_ns),
              "fraction");
  metrics.Add("ledger.commit_residual_frac",
              Ratio(pipe_commit_ns - traced_commit_ns, pipe_commit_ns), "fraction");

  const std::string trace_path = (fs::path(args.work_dir) /
                                  ("spans-" + workload.name + "-" + std::to_string(args.seed) +
                                   ".json"))
                                     .string();
  if (!spans.WriteChromeTrace(trace_path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "spans written to %s\n", trace_path.c_str());
  }
  return true;
}

}  // namespace perfbench
