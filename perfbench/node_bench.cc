// The node benchmark: drives a ChainRunner through its public API on one
// workload for a fixed amount of wall-clock time, verifies every output
// against a serial replay, and prints one JSON line of metrics.
//
// Usage: node_bench --workload <sync-mem|sync-cold|head-rpc> --seed <n>
//                   --seconds <s> --trace <0|1> [--users <n>]
//                   [--query-rate <q/s>] [--work-dir <dir>]
//                   [--inject-root-mismatch] [--inject-unknown-root]
//
// The measured time is split into kSegments equal segments. Between two
// segments the pipeline is drained and idle while the serial replay catches up
// and, after some segments, a timed set-up runs, so the segments sample the
// (shared, unsteady) host at moments seconds apart instead of in one stretch.
// Each end-to-end figure is the median of its per-segment values.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same segments
// and then the traced per-layer ledger (ledger.cc) and prints the per-layer
// metrics. Any correctness failure prints "correct": false and exits 1.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/state/state_view.h"

namespace perfbench {
namespace {

// Measured segments per run.
constexpr int kSegments = 5;
// Segments after which an untraced run times one more set-up; setup_s is the
// median of these set-ups and the measured node's.
constexpr int kSetupAfterSegment[] = {1, 3};
// Blocks generated beyond a closed-loop segment's maximum rate.
constexpr size_t kBlockSlack = 16;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (flag == "--inject-root-mismatch") {
      args->inject_root_mismatch = true;
      continue;
    }
    if (flag == "--inject-unknown-root") {
      args->inject_unknown_root = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    bool ok = !value.empty();
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--users") {
      args->users = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--query-rate") {
      args->query_rate = std::strtod(value.c_str(), &end);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i - 1]);
      return false;
    }
    if (!ok || (end != nullptr && *end != '\0')) {
      std::fprintf(stderr, "bad value for %s: %s\n", argv[i - 1], value.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0.0 && args->seconds <= 600.0) ||
      args->users < 16 || args->users > 100'000 ||
      !(args->query_rate >= 0.0 && args->query_rate <= 1e6)) {
    std::fprintf(stderr,
                 "usage: node_bench --workload <sync-mem|sync-cold|head-rpc> --seed <n> "
                 "--seconds <0..600> --trace <0|1> [--users <16..100000>] "
                 "[--query-rate <0..1e6>] [--work-dir <dir>] [--inject-root-mismatch] "
                 "[--inject-unknown-root]\n");
    return false;
  }
  return true;
}

void SleepUntilNs(uint64_t due_ns) {
  uint64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

uint64_t DueNs(uint64_t start_ns, size_t slot, double per_second) {
  return start_ns + static_cast<uint64_t>(static_cast<double>(slot) * 1e9 / per_second);
}

bool SameAnswer(const pevm::QueryResponse& a, const pevm::QueryResponse& b) {
  return a.value == b.value && a.bytes == b.bytes && a.call_status == b.call_status &&
         a.gas_used == b.gas_used;
}

// One segment of open-loop queries into the tier: query first + j is due at
// start + j / rate. A generator thread submits on schedule and an in-order
// collector times each query from its due instant to when it sees the future
// ready; a query that finishes before an earlier one is stamped when the
// earlier one is (the error is at most the earlier query's service time).
class QueryGenerator {
 public:
  QueryGenerator(pevm::QueryEngine& engine, const std::vector<pevm::TimedQuery>& load,
                 size_t first, double rate, uint64_t start_ns, uint64_t deadline_ns)
      : engine_(engine), load_(load), first_(first), rate_(rate), start_ns_(start_ns),
        deadline_ns_(deadline_ns), futures_(load.size() - first) {
    records_.reserve(futures_.size());
    submitter_ = std::thread([this] { SubmitLoop(); });
    collector_ = std::thread([this] { CollectLoop(); });
  }
  ~QueryGenerator() { Join(); }
  QueryGenerator(const QueryGenerator&) = delete;
  QueryGenerator& operator=(const QueryGenerator&) = delete;

  // Waits for the schedule to end and every submitted query to complete.
  void Join() {
    if (submitter_.joinable()) {
      submitter_.join();
    }
    if (collector_.joinable()) {
      collector_.join();
    }
  }

  std::vector<QueryRecord>& records() { return records_; }
  double late_max_ns() const { return late_max_ns_; }

 private:
  void SubmitLoop() {
    for (size_t j = 0; j < futures_.size(); ++j) {
      const uint64_t due = DueNs(start_ns_, j, rate_);
      if (due >= deadline_ns_) {
        break;
      }
      SleepUntilNs(due);
      const uint64_t now = NowNs();
      late_max_ns_ = std::max(late_max_ns_, static_cast<double>(now - std::min(now, due)));
      std::future<pevm::QueryResponse> future = engine_.Submit(load_[first_ + j].request);
      std::lock_guard<std::mutex> lock(mu_);
      futures_[j] = std::move(future);
      published_ = j + 1;
      cv_.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_one();
  }

  void CollectLoop() {
    for (size_t j = 0;; ++j) {
      std::future<pevm::QueryResponse> future;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return published_ > j || done_; });
        if (published_ <= j) {
          return;
        }
        future = std::move(futures_[j]);
      }
      future.wait();
      const uint64_t ready = NowNs();
      const uint64_t due = DueNs(start_ns_, j, rate_);
      QueryRecord record;
      record.load_index = first_ + j;
      record.response = future.get();
      record.latency_us = static_cast<double>(ready - std::min(ready, due)) / 1e3;
      records_.push_back(std::move(record));
    }
  }

  pevm::QueryEngine& engine_;
  const std::vector<pevm::TimedQuery>& load_;
  const size_t first_;
  const double rate_;
  const uint64_t start_ns_;
  const uint64_t deadline_ns_;
  std::vector<std::future<pevm::QueryResponse>> futures_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t published_ = 0;              // Guarded by mu_.
  bool done_ = false;                 // Guarded by mu_.
  double late_max_ns_ = 0.0;          // Submitter thread; read after Join.
  std::vector<QueryRecord> records_;  // Collector thread; read after Join.
  std::thread submitter_;
  std::thread collector_;
};

// One segment of the read probe used where there is no query tier: a thread
// answers the read mix at `rate` with EvalQuery straight from `state`,
// which does not change during a segment, while the pipeline runs on the same
// cores. Each query is timed from its schedule slot, like the tier's.
class ReadProbe {
 public:
  ReadProbe(const pevm::WorldState& state, uint64_t block_index,
            const std::vector<pevm::TimedQuery>& load, size_t first, double rate,
            uint64_t start_ns, uint64_t deadline_ns)
      : reader_(state), block_index_(block_index), load_(load), first_(first), rate_(rate),
        start_ns_(start_ns), deadline_ns_(deadline_ns) {
    records_.reserve(load.size() - first);
    thread_ = std::thread([this] { Loop(); });
  }
  ~ReadProbe() { Join(); }
  ReadProbe(const ReadProbe&) = delete;
  ReadProbe& operator=(const ReadProbe&) = delete;

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  std::vector<QueryRecord>& records() { return records_; }

 private:
  void Loop() {
    pevm::CodeProvider* provider = pevm::StaticCodeProvider(pevm::CodeCacheConfig{});
    for (size_t j = 0; first_ + j < load_.size(); ++j) {
      const uint64_t due = DueNs(start_ns_, j, rate_);
      if (due >= deadline_ns_) {
        return;
      }
      SleepUntilNs(due);
      const uint64_t begin = NowNs();
      QueryRecord record;
      record.load_index = first_ + j;
      record.response = pevm::EvalQuery(load_[first_ + j].request, reader_, block_index_,
                                        pevm::Hash256{}, provider);
      const uint64_t end = NowNs();
      record.response.wall_ns = end - begin;
      record.latency_us = static_cast<double>(end - due) / 1e3;
      records_.push_back(std::move(record));
    }
  }

  pevm::WorldStateReader reader_;
  const uint64_t block_index_;
  const std::vector<pevm::TimedQuery>& load_;
  const size_t first_;
  const double rate_;
  const uint64_t start_ns_;
  const uint64_t deadline_ns_;
  std::vector<QueryRecord> records_;  // Probe thread; read after Join.
  std::thread thread_;
};

// Polls the pipeline's committed-block counter and stamps each block's commit
// instant. While a segment is being measured it also samples the process's
// resident set and thread count every 10 ms.
class CommitMonitor {
 public:
  CommitMonitor(const pevm::ChainRunner& runner, size_t blocks)
      : runner_(runner), commit_ns_(blocks, 0) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~CommitMonitor() { Stop(); }
  CommitMonitor(const CommitMonitor&) = delete;
  CommitMonitor& operator=(const CommitMonitor&) = delete;

  void SetMeasuring(bool on) { measuring_.store(on); }
  // Blocks until `blocks` blocks have committed or the pipeline stopped.
  void WaitCommitted(uint64_t blocks) const {
    while (committed_.load() < blocks && runner_.Progress().running) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  // Read after Stop.
  const std::vector<uint64_t>& commit_ns() const { return commit_ns_; }
  int threads_max() const { return threads_max_; }
  double rss_max_mb() const { return rss_max_mb_; }

 private:
  void Loop() {
    size_t recorded = 0;
    uint64_t next_proc_sample = 0;
    for (;;) {
      const bool last = stop_.load();
      const uint64_t committed = runner_.Progress().blocks_committed;
      const uint64_t now = NowNs();
      while (recorded < committed && recorded < commit_ns_.size()) {
        commit_ns_[recorded++] = now;
      }
      committed_.store(recorded);
      if (measuring_.load() && now >= next_proc_sample) {
        const ProcStatus status = ReadProcStatus();
        threads_max_ = std::max(threads_max_, status.threads);
        rss_max_mb_ = std::max(rss_max_mb_, status.vm_rss_mb);
        next_proc_sample = now + 10'000'000;
      }
      if (last) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  const pevm::ChainRunner& runner_;
  std::vector<uint64_t> commit_ns_;
  int threads_max_ = 0;
  double rss_max_mb_ = 0.0;
  std::atomic<uint64_t> committed_{0};
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// The pipeline window, run as segments. Blocks are timed from their due
// instant: the schedule slot in the open loop, the Submit call in the closed
// loop. A segment ends when every block it submitted has committed. The
// caller generates each segment's blocks into run.blocks beforehand, at most
// `max_blocks` in all.
class Window {
 public:
  Window(const Workload& workload, pevm::ChainRunner& runner, PipelineRun& run,
         size_t max_blocks)
      : workload_(workload), runner_(runner), run_(run), due_ns_(max_blocks, 0),
        monitor_(runner, max_blocks) {
    if (workload.options.query_tier) {
      engine_ = std::make_unique<pevm::QueryEngine>(*runner.snapshots());
    }
    run.code_cache_before = pevm::SharedCodeCache(true).GetStats();
  }

  size_t next_block() const { return next_block_; }
  // True once a closed-loop segment submitted every generated block before
  // its deadline: its throughput was capped by the generator, not the node.
  bool ran_out() const { return ran_out_; }

  // Runs one segment of `seconds`. Where there is no query tier, the read
  // probe answers from `probe_state` as of `probe_block`. Returns the
  // segment's query records.
  std::vector<QueryRecord> RunSegment(double seconds, const pevm::WorldState& probe_state,
                                      uint64_t probe_block) {
    const uint64_t start_ns = NowNs();
    const uint64_t deadline_ns = start_ns + static_cast<uint64_t>(seconds * 1e9);
    monitor_.SetMeasuring(true);
    std::unique_ptr<QueryGenerator> queries;
    std::unique_ptr<ReadProbe> probe;
    if (engine_) {
      queries = std::make_unique<QueryGenerator>(*engine_, run_.load, next_query_,
                                                 workload_.query_rate, start_ns, deadline_ns);
    } else {
      probe = std::make_unique<ReadProbe>(probe_state, probe_block, run_.load, next_query_,
                                          workload_.query_rate, start_ns, deadline_ns);
    }
    bool deadline_reached = false;
    for (size_t j = 0; next_block_ < run_.blocks.size(); ++j, ++next_block_) {
      uint64_t due = NowNs();
      if (workload_.open_loop) {
        due = DueNs(start_ns, j, 1.0 / workload_.block_interval_s);
        if (due >= deadline_ns) {
          deadline_reached = true;
          break;
        }
        SleepUntilNs(due);
        const uint64_t now = NowNs();
        late_max_ns_ = std::max(late_max_ns_, static_cast<double>(now - std::min(now, due)));
      } else if (due >= deadline_ns) {
        deadline_reached = true;
        break;
      }
      due_ns_[next_block_] = due;
      if (!runner_.Submit(run_.blocks[next_block_])) {
        deadline_reached = true;  // The pipeline stopped; the checks report it.
        break;
      }
    }
    if (!workload_.open_loop && !deadline_reached) {
      ran_out_ = true;
    }
    std::vector<QueryRecord> records;
    if (queries) {
      queries->Join();
      records = std::move(queries->records());
      late_max_ns_ = std::max(late_max_ns_, queries->late_max_ns());
    } else {
      probe->Join();
      records = std::move(probe->records());
    }
    next_query_ += records.size();
    monitor_.WaitCommitted(next_block_);
    Segment segment;
    segment.wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
    segment.first_block = run_.segments.empty() ? 0 : run_.segments.back().end_block;
    segment.end_block = next_block_;
    for (const QueryRecord& record : records) {
      segment.query_latency_us.push_back(record.latency_us);
    }
    run_.wall_s += segment.wall_s;
    run_.segments.push_back(std::move(segment));
    monitor_.SetMeasuring(false);
    return records;
  }

  // Closes the stream and fills the rest of the run record.
  void Finish() {
    if (engine_) {
      engine_->Stop();
    }
    run_.blocks_submitted = next_block_;
    run_.report = runner_.Finish();
    monitor_.Stop();
    const size_t committed = std::min<size_t>(run_.report.blocks_committed, next_block_);
    for (Segment& segment : run_.segments) {
      for (size_t b = segment.first_block; b < std::min(segment.end_block, committed); ++b) {
        segment.txs_committed += run_.blocks[b].transactions.size();
        const uint64_t done = monitor_.commit_ns()[b];
        segment.block_latency_ms.push_back(
            static_cast<double>(done - std::min(done, due_ns_[b])) / 1e6);
      }
    }
    run_.late_max_ms = late_max_ns_ / 1e6;
    run_.threads_max = monitor_.threads_max();
    run_.peak_rss_mb = monitor_.rss_max_mb();
    run_.anatomy = runner_.flight_recorder().Snapshot();
    if (pevm::KvStore* kv = runner_.kv_store()) {
      run_.kv_compacted_bytes = kv->stats().compacted_bytes_reclaimed;
    }
    run_.code_cache_after = pevm::SharedCodeCache(true).GetStats();
  }

 private:
  const Workload& workload_;
  pevm::ChainRunner& runner_;
  PipelineRun& run_;
  std::vector<uint64_t> due_ns_;
  size_t next_block_ = 0;
  size_t next_query_ = 0;
  bool ran_out_ = false;
  double late_max_ns_ = 0.0;
  std::unique_ptr<pevm::QueryEngine> engine_;  // Null without a query tier.
  CommitMonitor monitor_;
};

// The forward serial replay that checks the pipeline. It advances between
// segments, re-evaluating each tier response at the state its block index
// names, and ends by comparing a from-scratch StateRoot() with the pipeline's
// final root. No per-block state copies are kept.
class SerialOracle {
 public:
  explicit SerialOracle(pevm::WorldState genesis)
      : state_(std::move(genesis)),
        serial_(pevm::MakeExecutor(pevm::ExecutorKind::kSerial, pevm::ExecOptions{})) {}

  const pevm::WorldState& state() const { return state_; }
  uint64_t replayed() const { return replayed_; }

  // Replays blocks up to `target`, checking the served ones among `records`
  // (tier responses, none naming a block below replayed()) on the way. Failed
  // queries carry no state to check; they are counted, not verified. False
  // on a mismatch.
  bool Advance(const PipelineRun& run, std::vector<QueryRecord> records, size_t target) {
    std::erase_if(records, [](const QueryRecord& r) { return !r.response.ok(); });
    std::sort(records.begin(), records.end(), [](const QueryRecord& a, const QueryRecord& b) {
      return a.response.block_index < b.response.block_index;
    });
    pevm::CodeProvider* provider = pevm::StaticCodeProvider(pevm::CodeCacheConfig{});
    size_t next = 0;
    for (;; ++replayed_) {
      pevm::WorldStateReader reader(state_);
      for (; next < records.size() && records[next].response.block_index == replayed_; ++next) {
        const QueryRecord& record = records[next];
        pevm::QueryResponse want = pevm::EvalQuery(run.load[record.load_index].request, reader,
                                                   replayed_, record.response.root, provider);
        if (!SameAnswer(record.response, want)) {
          std::fprintf(stderr, "FATAL: query %zu at block %llu diverged from serial replay\n",
                       record.load_index, static_cast<unsigned long long>(replayed_));
          return false;
        }
      }
      if (replayed_ == target) {
        break;
      }
      const uint64_t start = NowNs();
      pevm::BlockReport report = serial_->Execute(run.blocks[replayed_], state_);
      serial_ns += NowNs() - start;
      instructions += report.instructions;
      transactions += run.blocks[replayed_].transactions.size();
    }
    if (next != records.size()) {
      std::fprintf(stderr, "FATAL: %zu queries name a block outside [%llu, %zu]\n",
                   records.size() - next, static_cast<unsigned long long>(replayed_), target);
      return false;
    }
    return true;
  }

  uint64_t serial_ns = 0;
  uint64_t instructions = 0;
  uint64_t transactions = 0;

 private:
  pevm::WorldState state_;
  std::unique_ptr<pevm::Executor> serial_;
  uint64_t replayed_ = 0;
};

// Every tier response must carry the root the pipeline committed for the
// block it names (the genesis root, unknown to the pipeline report, is only
// checked through the answer).
bool CheckResponseRoots(const PipelineRun& run) {
  for (const QueryRecord& record : run.queries) {
    const uint64_t b = record.response.block_index;
    if (!record.response.ok() || b == 0) {
      continue;
    }
    if (b > run.report.roots.size() || record.response.root != run.report.roots[b - 1]) {
      std::fprintf(stderr, "FATAL: query %zu carries a root the pipeline never committed\n",
                   record.load_index);
      return false;
    }
  }
  return true;
}

// Blocks the run may submit: the open loop's schedule, or the closed loop's
// maximum rate, per segment.
size_t BlocksPerSegment(const Args& args, const Workload& workload) {
  const double segment_s = args.seconds / kSegments;
  if (workload.open_loop) {
    return static_cast<size_t>(segment_s / workload.block_interval_s) + 1;
  }
  return static_cast<size_t>(segment_s * workload.max_blocks_per_s) + kBlockSlack;
}

pevm::ChainOptions NodeOptions(const Workload& workload, const std::filesystem::path& kv_dir) {
  pevm::ChainOptions options = workload.options;
  if (options.persist == pevm::PersistMode::kKv) {
    std::filesystem::remove_all(kv_dir);
    options.kv_dir = kv_dir.string();
  }
  return options;
}

// A set-up that is only timed, then torn down with its store: genesis plus
// runner construction, which seeds the incremental trie and, on head-rpc,
// seals the genesis into a fresh KV store at `kv_dir`. The freed heap is
// handed back to the OS so later resident-set samples do not include it.
double TimedSetUp(const Args& args, const Workload& workload,
                  const std::filesystem::path& kv_dir) {
  const pevm::ChainOptions options = NodeOptions(workload, kv_dir);
  const double start = NowS();
  double seconds = 0.0;
  {
    pevm::WorkloadGenerator gen(GeneratorConfig(args));
    const pevm::WorldState genesis = gen.MakeGenesis();
    pevm::ChainRunner runner(options, genesis);
    seconds = NowS() - start;
  }
  std::filesystem::remove_all(kv_dir);
  malloc_trim(0);
  return seconds;
}

int Main(int argc, char** argv) {
  Args args;
  Workload workload;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (!MakeWorkload(args, &workload)) {
    std::fprintf(stderr, "unknown workload %s (sync-mem, sync-cold, head-rpc)\n",
                 args.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path work_dir =
      fs::path(args.work_dir) / (workload.name + "-" + std::to_string(args.seed));
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  PipelineRun run;
  const size_t per_segment = BlocksPerSegment(args, workload);
  const size_t max_blocks = kSegments * per_segment;
  workload.options.ops_server.flight_recorder_blocks = max_blocks;
  run.blocks.reserve(max_blocks);

  // The measured node's set-up is timed in two parts around the generation
  // of the inputs, which belong to the benchmark, not the node.
  const double genesis_start = NowS();
  pevm::WorkloadGenerator gen(GeneratorConfig(args));
  pevm::WorldState genesis = gen.MakeGenesis();
  const double genesis_s = NowS() - genesis_start;

  // Blocks are generated before each segment, up to what it may submit. The
  // resident set they add after the baseline below is the benchmark's and is
  // added to it.
  double inputs_mb = 0.0;
  auto generate_blocks = [&](size_t upto) {
    const double before = ReadProcStatus().vm_rss_mb;
    while (run.blocks.size() < std::min(upto, max_blocks)) {
      run.blocks.push_back(gen.MakeBlock());
    }
    inputs_mb += ReadProcStatus().vm_rss_mb - before;
  };
  generate_blocks(per_segment);
  run.load = gen.MakeQueryLoad(static_cast<int>(args.seconds * workload.query_rate) + kSegments,
                               QueryConfig(args));
  run.queries.reserve(run.load.size());  // Grows in place, without copies.
  if (args.inject_unknown_root) {
    pevm::Hash256 unknown;
    unknown.fill(0xab);
    for (size_t i = 0; i < run.load.size(); i += 50) {
      run.load[i].request.at_root = unknown;
    }
  }

  // The traced run needs the genesis again for its ledger; otherwise the
  // oracle takes it. Everything resident so far is the benchmark's.
  SerialOracle oracle(args.trace ? genesis : std::move(genesis));
  inputs_mb = ReadProcStatus().vm_rss_mb;

  // An untraced run times set-ups spread over the run and reports the
  // median: the measured node's, and one after each of kSetupAfterSegment.
  const double runner_start = NowS();
  auto runner = std::make_unique<pevm::ChainRunner>(NodeOptions(workload, work_dir / "kv"),
                                                    oracle.state());
  std::vector<double> setup_s = {genesis_s + NowS() - runner_start};
  if (pevm::KvStore* kv = runner->kv_store()) {
    run.kv_genesis_bytes = kv->stats().bytes_appended;
  }

  bool correct = true;
  bool ran_out = false;
  {
    Window window(workload, *runner, run, max_blocks);
    for (int segment = 0; segment < kSegments; ++segment) {
      if (segment > 0) {
        generate_blocks(window.next_block() + per_segment);
      }
      std::vector<QueryRecord> records =
          window.RunSegment(args.seconds / kSegments, oracle.state(), oracle.replayed());
      run.queries.insert(run.queries.end(), records.begin(), records.end());
      if (!workload.options.query_tier) {
        records.clear();  // Probe answers come from the oracle's own state.
      }
      correct = correct &&
                oracle.Advance(run, std::move(records), runner->Progress().blocks_committed);
      if (!args.trace && std::ranges::count(kSetupAfterSegment, segment) > 0) {
        setup_s.push_back(TimedSetUp(args, workload, work_dir / "kv-timed"));
      }
    }
    window.Finish();
    ran_out = window.ran_out();
  }
  runner.reset();
  run.peak_rss_mb -= inputs_mb;
  double records_mb = 0.0;
  for (const QueryRecord& record : run.queries) {
    records_mb += static_cast<double>(sizeof(record) + record.response.bytes.capacity()) / 1e6;
  }
  std::fprintf(stderr,
               "perfbench: %s measured %.2f s: %.1f blocks/s, %.1f queries/s; "
               "benchmark inputs and oracle %.0f MB, query records %.0f MB\n",
               workload.name.c_str(), run.wall_s,
               static_cast<double>(run.report.blocks_committed) / run.wall_s,
               static_cast<double>(run.queries.size()) / run.wall_s, inputs_mb, records_mb);
  if (ran_out) {
    std::fprintf(stderr,
                 "FATAL: a segment submitted all its pre-generated blocks before its deadline, "
                 "so tx_per_s is capped at %.0f blocks/s; raise max_blocks_per_s in "
                 "workloads.cc\n",
                 workload.max_blocks_per_s);
    correct = false;
  }

  for (const QueryRecord& record : run.queries) {
    if (!record.response.ok()) {
      ++run.queries_failed;
    }
  }
  const uint64_t blocks_failed =
      run.blocks_submitted - std::min<uint64_t>(run.blocks_submitted, run.report.blocks_committed);
  const uint64_t attempted = run.blocks_submitted + run.queries.size();
  const uint64_t failed = blocks_failed + run.queries_failed;

  correct = correct && run.report.blocks_committed > 0 && !run.report.aborted &&
            oracle.replayed() == run.report.blocks_committed &&
            (!workload.options.query_tier || CheckResponseRoots(run));
  if (correct) {
    pevm::Hash256 oracle_root = oracle.state().StateRoot();
    if (args.inject_root_mismatch) {
      oracle_root[0] ^= 0xff;
    }
    if (oracle_root != run.report.final_root) {
      std::fprintf(stderr, "FATAL: final root after %llu blocks diverged from serial replay\n",
                   static_cast<unsigned long long>(run.report.blocks_committed));
      correct = false;
    }
  }

  MetricSet metrics;
  if (!args.trace) {
    // Each figure is the median over the segments, so one segment that met
    // a slow stretch of the host does not decide it.
    const std::vector<Segment>& segs = run.segments;
    metrics.Add("setup_s", Percentile(setup_s, 0.5), "s");
    metrics.Add("tx_per_s", SegmentMedian(segs, [](const Segment& s) {
                  return static_cast<double>(s.txs_committed) / s.wall_s;
                }), "1/s");
    metrics.Add("block_latency_p50_ms", SegmentMedian(segs, [](const Segment& s) {
                  return Percentile(s.block_latency_ms, 0.50);
                }), "ms");
    metrics.Add("block_latency_p95_ms", SegmentMedian(segs, [](const Segment& s) {
                  return Percentile(s.block_latency_ms, 0.95);
                }), "ms");
    metrics.Add("query_latency_p50_us", SegmentMedian(segs, [](const Segment& s) {
                  return Percentile(s.query_latency_us, 0.50);
                }), "us");
    metrics.Add("query_latency_p99_us", SegmentMedian(segs, [](const Segment& s) {
                  return Percentile(s.query_latency_us, 0.99);
                }), "us");
    metrics.Add("ok_frac",
                attempted == 0 ? 0.0
                               : static_cast<double>(attempted - failed) /
                                     static_cast<double>(attempted),
                "fraction");
    metrics.Add("peak_rss_mb", run.peak_rss_mb, "MB");
  } else if (correct) {
    metrics.Add("evm.ns_per_instr",
                oracle.instructions == 0 ? 0.0
                                         : static_cast<double>(oracle.serial_ns) /
                                               static_cast<double>(oracle.instructions),
                "ns");
    metrics.Add("evm.instr_per_tx",
                oracle.transactions == 0 ? 0.0
                                         : static_cast<double>(oracle.instructions) /
                                               static_cast<double>(oracle.transactions),
                "count");
    correct = RunTracedLedger(args, workload, genesis, run, metrics);
  }
  fs::remove_all(work_dir);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  // Every thread has been joined and every file closed; skip the destructors
  // of the multi-hundred-MB states and blocks, which only cost exit time.
  std::_Exit(correct ? 0 : 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
