// The process-wide per-code-hash cache: sharded read-mostly map from code
// hash to tier-0 analysis, with tier-1 promotion past an invocation
// threshold. Lookups take a shared lock on one of 16 shards (read-mostly fast
// path); the analysis itself runs exactly once per code hash under a
// per-entry once_flag, outside the map lock, so concurrent first-callers
// neither duplicate work nor serialize unrelated hashes. Entries are never
// evicted: the contract set of a chain is small and analyses are a few KB.
#ifndef SRC_CODECACHE_CODE_CACHE_H_
#define SRC_CODECACHE_CODE_CACHE_H_

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/codecache/program.h"
#include "src/support/bytes.h"
#include "src/support/keccak.h"

namespace pevm {

class CodeCache : public CodeProvider {
 public:
  struct Stats {
    uint64_t hits = 0;        // Lookups that found a built analysis.
    uint64_t misses = 0;      // Analyses actually run.
    uint64_t promotions = 0;  // Tier-1 decoded programs built.
    uint64_t entries = 0;     // Distinct code hashes resident.
  };

  // Invocations of one code hash before the tier-1 decoded program is built
  // (the process-wide caches use this default; 0 never promotes).
  static constexpr int kDefaultPromoteThreshold = 8;

  explicit CodeCache(bool fuse = true, int promote_threshold = kDefaultPromoteThreshold)
      : fuse_(fuse), promote_threshold_(promote_threshold) {}

  std::shared_ptr<const CodeAnalysis> Analyze(const Bytes& code, const Hash256* hash) override;
  bool fused() const override { return fuse_; }

  Stats GetStats() const;

 private:
  struct Entry {
    std::once_flag analyze_once;
    std::shared_ptr<CodeAnalysis> analysis;  // Set under analyze_once.
    std::atomic<uint64_t> invocations{0};
    std::once_flag promote_once;
  };

  // First 8 bytes of a keccak output are as good a hash as any.
  struct KeyHash {
    size_t operator()(const Hash256& h) const {
      uint64_t v;
      std::memcpy(&v, h.data(), sizeof(v));
      return static_cast<size_t>(v);
    }
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Hash256, std::unique_ptr<Entry>, KeyHash> map;
  };

  static constexpr size_t kShards = 16;

  const bool fuse_;
  const int promote_threshold_;
  Shard shards_[kShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> promotions_{0};
};

// The process-wide shared cache (one per fuse setting; default promotion
// threshold). Persists across blocks, executors and chain runs.
CodeCache& SharedCodeCache(bool fuse);

// The provider for every site that speculates or re-executes a block's
// transactions (read phase, chain spec stage, FullReexecute fallbacks,
// baselines): kShared -> the shared cache with the configured fuse setting,
// so log granularity always matches across the block; kOff -> nullptr.
CodeProvider* StaticCodeProvider(const CodeCacheConfig& config);

}  // namespace pevm

#endif  // SRC_CODECACHE_CODE_CACHE_H_
