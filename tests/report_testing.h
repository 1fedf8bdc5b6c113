// The determinism contract as one test assertion. Two runs of one block
// sequence that differ only in a wall-clock-only setting (OS threads,
// prefetch engine progress, speculation, code-cache warmth, telemetry, the ops
// plane, the query tier) must agree on the state roots they recorded and on
// the DeterministicBlockReport part of every block's report. Tests compare runs
// through ExpectSameDeterministicRun instead of listing report fields, so a
// field added to DeterministicBlockReport is checked by every one of them.
#ifndef TESTS_REPORT_TESTING_H_
#define TESTS_REPORT_TESTING_H_

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/support/bytes.h"

namespace pevm {

// One run of a block sequence: the state roots it recorded and each block's
// report. A chain run has a root per block (a ChainReport's `roots` and
// `block_reports`); an executor-level test records the final root, or none
// when it compares whole WorldStates instead.
struct BlockRun {
  std::vector<Hash256> roots;
  std::vector<BlockReport> reports;
};

// Executes `blocks` in order on `state` through `execute(block, state)`,
// which returns the block's BlockReport. Records no root: StateRoot()
// rebuilds the whole trie, seconds per call on the test workloads, so callers
// take it once at the end if they need it.
template <typename Execute>
BlockRun RunBlocks(WorldState& state, const std::vector<Block>& blocks, Execute execute) {
  BlockRun run;
  for (const Block& block : blocks) {
    run.reports.push_back(execute(block, state));
  }
  return run;
}

// Zeroes the prefetch hit/miss/wasted counters: the only deterministic fields
// that prefetch_depth 0 versus > 0 legitimately moves (depth 0 does no
// prefetch accounting). Compare a depth-0 run against this of a prefetching
// run; compare prefetching runs with each other directly.
inline BlockRun WithoutPrefetchCounters(BlockRun run) {
  for (BlockReport& report : run.reports) {
    report.prefetch_hits = 0;
    report.prefetch_misses = 0;
    report.prefetch_wasted = 0;
  }
  return run;
}

// The scalar fields and the collection sizes, for failure messages only (the
// comparison itself is the defaulted operator==).
inline std::string DescribeReport(const DeterministicBlockReport& r) {
  std::ostringstream os;
  os << "makespan_ns=" << r.makespan_ns << " conflicts=" << r.conflicts
     << " redo_success=" << r.redo_success << " redo_fail=" << r.redo_fail
     << " full_reexecutions=" << r.full_reexecutions << " lock_aborts=" << r.lock_aborts
     << " redo_entries_reexecuted=" << r.redo_entries_reexecuted << " redo_ns=" << r.redo_ns
     << " oplog_entries=" << r.oplog_entries << " instructions=" << r.instructions
     << " prefetch_hits=" << r.prefetch_hits << " prefetch_misses=" << r.prefetch_misses
     << " prefetch_wasted=" << r.prefetch_wasted << " conflict_keys=[" << r.conflict_keys.size()
     << "] receipts=[" << r.receipts.size() << "]";
  return os.str();
}

// Index of the first element where `a` and `b` differ ("" when equal).
template <typename T>
std::string FirstDifference(const char* what, const std::vector<T>& a, const std::vector<T>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (!(a[i] == b[i])) {
      return std::string("\n  first differing ") + what + ": #" + std::to_string(i);
    }
  }
  return "";
}

inline void ExpectSameDeterministicRun(const BlockRun& expected, const BlockRun& actual) {
  ASSERT_EQ(expected.roots.size(), actual.roots.size()) << "root count";
  ASSERT_EQ(expected.reports.size(), actual.reports.size()) << "report count";
  for (size_t i = 0; i < expected.roots.size(); ++i) {
    EXPECT_EQ(HexEncode(expected.roots[i]), HexEncode(actual.roots[i])) << "state root #" << i;
  }
  for (size_t b = 0; b < expected.reports.size(); ++b) {
    const DeterministicBlockReport& want = expected.reports[b];
    const DeterministicBlockReport& got = actual.reports[b];
    if (!(want == got)) {
      ADD_FAILURE() << "deterministic report differs at block " << b
                    << "\n  expected: " << DescribeReport(want)
                    << "\n  actual:   " << DescribeReport(got)
                    << FirstDifference("conflict key", want.conflict_keys, got.conflict_keys)
                    << FirstDifference("receipt", want.receipts, got.receipts);
    }
  }
}

}  // namespace pevm

#endif  // TESTS_REPORT_TESTING_H_
