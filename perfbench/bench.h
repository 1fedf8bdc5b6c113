// Shared pieces of the node benchmark: command line, workload definitions,
// the untraced pipeline run's record, and small statistics helpers. The
// benchmark drives the repository only through public headers; nothing here
// is compiled into the node itself.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chain/chain_runner.h"
#include "src/codecache/code_cache.h"
#include "src/query/query_engine.h"
#include "src/workload/block_gen.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Population size of the hot-spot generator (storage grows ~670 slots per
  // user). Tests shrink it to make a run take seconds.
  int users = 500;
  // Scratch directory inside the checkout for KV stores and the span dump.
  std::string work_dir = ".bench_build/perfbench-work";
  // Offered query rate in queries/s; 0 keeps the workload's. Used to
  // re-measure the query path's capacity (NOTES.md, "Query rates").
  double query_rate = 0.0;
  // Test hook: flips one byte of the serial-replay root before the final
  // root comparison, so the run must fail.
  bool inject_root_mismatch = false;
  // Test hook: every 50th query pins a root no block has, so the tier
  // answers kUnknownRoot and the run counts those queries as failed.
  bool inject_unknown_root = false;
};

// One workload: the chain configuration plus how load is offered to it.
struct Workload {
  std::string name;
  pevm::ChainOptions options;
  // Closed loop submits the next block as soon as Submit returns; open loop
  // submits block i at start + i * block_interval_s.
  bool open_loop = false;
  double block_interval_s = 0.0;
  // Open-loop queries per second: into the query tier where
  // options.query_tier is set, else into the read probe.
  double query_rate = 0.0;
  // Closed loop: the most blocks per second a segment may submit. Blocks for
  // this rate are generated before each segment; running out fails the run.
  double max_blocks_per_s = 0.0;
};

// Returns false for an unknown workload name.
bool MakeWorkload(const Args& args, Workload* out);

pevm::WorkloadConfig GeneratorConfig(const Args& args);
pevm::QueryWorkloadConfig QueryConfig(const Args& args);

// A query as the open-loop generator offered it, and what came back.
struct QueryRecord {
  size_t load_index = 0;  // Into the query load.
  pevm::QueryResponse response;
  double latency_us = 0.0;  // Due time -> future observed ready.
};

// One measured segment's figures.
struct Segment {
  double wall_s = 0.0;
  size_t first_block = 0, end_block = 0;  // The blocks it submitted.
  uint64_t txs_committed = 0;
  std::vector<double> block_latency_ms;  // Per committed block.
  std::vector<double> query_latency_us;  // Per query.
};

// Everything the measured segments produced.
struct PipelineRun {
  std::vector<pevm::Block> blocks;  // Pre-generated; a prefix was submitted.
  std::vector<pevm::TimedQuery> load;
  pevm::ChainReport report;
  std::vector<pevm::ops::BlockAnatomy> anatomy;  // One per committed block.

  std::vector<Segment> segments;
  double wall_s = 0.0;  // Sum of the measured segments.
  uint64_t blocks_submitted = 0;
  std::vector<QueryRecord> queries;      // Tier responses, or the read probe's.
  uint64_t queries_failed = 0;  // Unknown root or refused.
  double late_max_ms = 0.0;     // Worst submit lateness vs due time.
  int threads_max = 0;
  // Largest resident set sampled during the segments, less the benchmark's
  // own share: the oracle state, the blocks and the query load.
  double peak_rss_mb = 0.0;

  uint64_t kv_genesis_bytes = 0;
  uint64_t kv_compacted_bytes = 0;
  pevm::CodeCache::Stats code_cache_before, code_cache_after;
};

// Wall clock in nanoseconds / seconds (steady clock).
uint64_t NowNs();
double NowS();

// Nearest-rank percentile (p in [0, 1]) of `values`; 0 for an empty set.
double Percentile(std::vector<double> values, double p);

// The median over segments of a per-segment figure.
template <typename F>
double SegmentMedian(const std::vector<Segment>& segments, F figure) {
  std::vector<double> values;
  for (const Segment& segment : segments) {
    values.push_back(figure(segment));
  }
  return Percentile(std::move(values), 0.5);
}

struct ProcStatus {
  double vm_rss_mb = 0.0;
  int threads = 0;
};
// Resident set and live thread count from /proc/self/status.
ProcStatus ReadProcStatus();

// Collects the final JSON line's metrics in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// The traced run: replays the pipeline's committed blocks one at a time
// through the layer calls, times each call with spans recorded here, and adds
// the per-layer metrics. Returns false (after printing why) if a traced root
// disagrees with the pipeline's root for the same block.
bool RunTracedLedger(const Args& args, const Workload& workload, const pevm::WorldState& genesis,
                     const PipelineRun& run, MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
