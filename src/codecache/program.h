// Cached per-code-hash analysis shared by every executor, OS thread and block
// (the hot-contract code cache, modeled on Monad's tiered VM CodeMap).
//
// Tier 0 — CodeAnalysis — is everything the interpreter used to recompute per
// call and everything the SSA builder needs to log at superinstruction
// granularity: the JUMPDEST bitmap plus the fused straight-line segments with
// their static gas / stack-effect metadata and per-output expression
// programs. Tier 0 is a *pure static function of the bytecode* (and the
// `fuse` analysis option). It deliberately does NOT depend on invocation
// counts, cache residency, or any other runtime state: the SSA log's
// granularity is derived from tier 0, and log granularity feeds deterministic
// BlockReport fields (oplog_entries, redo counters, the virtual makespan), so
// anything hotness-dependent here would make reports differ between a cold
// and a warm cache. See DESIGN.md §4.6.
//
// Tier 1 — DecodedProgram — is the superinstruction/threaded-code dispatch
// form built once a code hash passes the invocation-count promotion
// threshold: pre-decoded instructions (PUSH immediates materialized, next-pc
// resolved, segment index attached) so hot code skips byte decoding. Tier 1
// changes dispatch speed only; it fires bit-identical tracer events and
// charges bit-identical gas, so it may ride on mutable cache state.
//
// This header is intentionally link-free (no .cc): pevm_evm's interpreter and
// pevm_ssa's builder consume these types and the abstract CodeProvider
// without depending on the cache implementation, which lives above them in
// pevm_codecache (analysis.cc + code_cache.cc linking pevm_evm for opcode
// traits).
#ifndef SRC_CODECACHE_PROGRAM_H_
#define SRC_CODECACHE_PROGRAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/evm/opcode.h"
#include "src/support/bytes.h"
#include "src/support/keccak.h"
#include "src/support/u256.h"

namespace pevm {

// Analyzer-enforced bounds (part of the segment contract, so the interpreter
// can use fixed-size buffers on the fused fast path): a segment references at
// most kMaxSuperInputs entry-stack slots and leaves at most kMaxSuperOutputs
// values on the stack.
inline constexpr size_t kMaxSuperInputs = 32;
inline constexpr size_t kMaxSuperOutputs = 64;

// One step of a postfix expression program (SuperExpr below).
struct SuperStep {
  enum class Kind : uint8_t { kConst, kInput, kOp };
  Kind kind = Kind::kConst;
  // kOp: the pure opcode and its arity (operands are popped top-first, the
  // order EvalPure expects).
  Opcode op = Opcode::kInvalid;
  uint8_t arity = 0;
  // kInput: local input index (into SuperExpr::input_depths).
  uint8_t input = 0;
  // kConst: the immediate value.
  U256 imm;
};

// The dataflow of one escaping stack output of a fused segment, as a postfix
// program over the segment's *referenced* entry-stack inputs. Inputs are
// local: step `kInput i` reads the value that sat at entry-stack depth
// input_depths[i] (0 = top) when the segment started. Exprs are
// separately heap-allocated and shared by shared_ptr so an SSA log entry can
// outlive the CodeAnalysis that produced it (per-block / uncached providers
// drop analyses while the oplog is still live in the commit phase).
struct SuperExpr {
  std::vector<SuperStep> steps;
  std::vector<uint8_t> input_depths;

  // A bare `kInput i` program: the output IS an entry-stack value (DUP/SWAP
  // shuffling). The SSA builder forwards the input's def instead of logging.
  bool IsPassthrough() const {
    return steps.size() == 1 && steps[0].kind == SuperStep::Kind::kInput;
  }
};

// A maximal straight-line run of fusible ops (PUSH*/DUP*/SWAP*/POP and the
// pure data-flow ops except EXP, whose gas is dynamic), executed as one fat
// operation when the static precheck below guarantees the per-op path could
// not fail mid-run. Semantics of the fat op: pop `pop_depth` entries, push
// the `outputs` expressions' values (outputs[0] pushed first / deepest).
struct SuperSegment {
  uint32_t start_pc = 0;
  uint32_t end_pc = 0;    // First pc past the segment.
  uint32_t op_count = 0;  // Instructions fused (feeds ExecStats::instructions).
  int64_t total_gas = 0;  // Sum of constant gas (no dynamic gas by construction).

  // Static precheck (the fused path runs only when all three hold, which
  // makes per-op failure impossible — proven in analysis.cc):
  //   stack_size >= min_height
  //   stack_size + max_growth <= kMaxStack
  //   gas >= total_gas
  uint32_t min_height = 0;  // Deepest entry-stack slot any op touches.
  int32_t max_growth = 0;   // Max net stack growth over any prefix of the run.

  uint32_t pop_depth = 0;  // Entry-stack slots consumed (== min_height).
  std::vector<std::shared_ptr<const SuperExpr>> outputs;
};

// Tier-1 pre-decoded dispatch form: one slot per code offset; slots at
// instruction starts are valid (immediate bytes' slots are never read because
// next_pc skips them).
struct DecodedInsn {
  Opcode op = Opcode::kStop;
  uint32_t next_pc = 0;     // pc after this instruction (past PUSH immediates).
  int32_t segment = -1;     // Fused segment starting here, or -1.
  U256 immediate;           // PUSH* payload (zero-padded past code end).
};

struct DecodedProgram {
  std::vector<DecodedInsn> at;
};

// Tier-0 analysis of one code blob (+ the tier-1 promotion slot).
struct CodeAnalysis {
  Hash256 hash{};
  size_t code_size = 0;
  std::vector<bool> jumpdests;
  // start-pc -> index into `segments`, -1 elsewhere. Mid-segment entry is
  // impossible: jump targets are JUMPDESTs, which are never fusible.
  std::vector<int32_t> segment_at;
  std::vector<SuperSegment> segments;

  // Tier-1 slot, promoted by the cache once the invocation count passes the
  // threshold. Readers acquire-load; the cache publishes with release after
  // building the program exactly once. Never set by uncached providers.
  std::atomic<const DecodedProgram*> program{nullptr};
  std::shared_ptr<const DecodedProgram> program_storage;

  CodeAnalysis() = default;
  CodeAnalysis(const CodeAnalysis&) = delete;
  CodeAnalysis& operator=(const CodeAnalysis&) = delete;
};

// How executors obtain analyses. Implementations must be safe to call from
// any number of threads concurrently.
class CodeProvider {
 public:
  virtual ~CodeProvider() = default;
  // Returns the analysis for `code`; never null. `hash` is the precomputed
  // code hash when the caller has one (WorldState keeps them alongside the
  // code); implementations hash the bytes themselves when it is null, so the
  // result — and therefore SSA log granularity — never depends on hash
  // availability.
  virtual std::shared_ptr<const CodeAnalysis> Analyze(const Bytes& code,
                                                      const Hash256* hash) = 0;
  // True when this provider's analyses fuse straight-line segments. This is
  // the signal for the SSA builder to log at superinstruction granularity
  // (deferred expression trees folded into consuming entries); a non-fusing
  // provider keeps the legacy per-op log so the fuse ablation measures the
  // logging lever, not just dispatch.
  virtual bool fused() const { return true; }
};

// Cache deployment mode. kShared runs every analysis through the
// process-wide cache; because the analysis is a pure function of the bytes,
// whether a hash is cold or warm there moves wall clock only. kOff removes the
// provider entirely — the interpreter falls back to per-op dispatch and per-op
// SSA logging, which preserves roots/receipts/gas/instructions but logs at
// the old one-entry-per-instruction granularity (the §6.4 ablation baseline).
enum class CodeCacheMode : uint8_t {
  kShared,  // Process-wide cache, persists across blocks and executors.
  kOff,     // No provider: legacy per-op dispatch and logging.
};

struct CodeCacheConfig {
  CodeCacheMode mode = CodeCacheMode::kShared;
  // Fuse straight-line runs into superinstructions (and log at that
  // granularity). Disabling keeps tier-0 caching (jumpdest bitmaps) but logs
  // per-op — the oplog-overhead ablation axis.
  bool fuse = true;
};

}  // namespace pevm

#endif  // SRC_CODECACHE_PROGRAM_H_
