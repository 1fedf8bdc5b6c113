// Workload definitions and the small helpers every part of the benchmark
// shares. Why each workload exists is recorded in NOTES.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench/bench.h"

namespace perfbench {

pevm::WorkloadConfig GeneratorConfig(const Args& args) {
  pevm::WorkloadConfig config;  // Paper-calibrated hot-spot mix, 200 tx/block.
  config.seed = args.seed;
  config.users = args.users;
  return config;
}

pevm::QueryWorkloadConfig QueryConfig(const Args& args) {
  pevm::QueryWorkloadConfig config;  // Default RPC mix; node_bench.cc schedules arrivals.
  config.seed = args.seed ^ 0x9e3779b97f4a7c15ULL;
  return config;
}

// Queries/s offered on every workload: about a tenth of the query tier's
// measured capacity (~210 000/s at 500 users on 4 vCPUs), so query latency is
// service time plus contention with the pipeline, not queueing. NOTES.md,
// "Query rates", records the measurement.
constexpr double kQueryRate = 20000.0;

bool MakeWorkload(const Args& args, Workload* out) {
  Workload w;
  w.name = args.workload;
  if (w.name == "sync-mem") {
    // Catch-up replay with state in memory: commit (re-root + Keccak) is the
    // bottleneck; SimStore latency and speculation are bypassed. Block supply
    // is three times the fastest rate measured (~106 blocks/s).
    w.max_blocks_per_s = 320.0;
  } else if (w.name == "sync-cold") {
    // Catch-up replay on slow storage with cross-block speculation: the only
    // workload that runs the speculation stage and boundary validation.
    w.options.exec.storage.cold_read_ns = 200'000;
    w.options.exec.storage.warm_read_ns = 500;
    w.options.speculate = true;
    w.max_blocks_per_s = 240.0;  // Three times the fastest measured (~80 blocks/s).
  } else if (w.name == "head-rpc") {
    // Following the chain head: blocks arrive on a fixed schedule (12.5/s)
    // below half the durable capacity measured when this workload was defined
    // (commit-bound at ~28 blocks/s with fsync'd KV, 500 users, 4 cores, on
    // the host's slow phases), so no backlog builds, while the query tier
    // serves an open-loop read mix on the same cores.
    w.options.persist = pevm::PersistMode::kKv;
    w.options.kv.fsync = true;
    w.options.query_tier = true;
    w.open_loop = true;
    w.block_interval_s = 0.080;
  } else {
    return false;
  }
  w.query_rate = args.query_rate > 0.0 ? args.query_rate : kQueryRate;
  *out = std::move(w);
  return true;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

ProcStatus ReadProcStatus() {
  ProcStatus status;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "VmRSS:") {
      double kb = 0.0;
      fields >> kb;
      status.vm_rss_mb = kb / 1024.0;
    } else if (key == "Threads:") {
      fields >> status.threads;
    }
  }
  return status;
}

void MetricSet::Add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string MetricSet::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    double value = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
