#ifndef PTLDB_ENGINE_VM_H_
#define PTLDB_ENGINE_VM_H_

#include <array>
#include <cstdint>

#include "common/time_util.h"

namespace ptldb {

class EngineTable;
class LabelStore;

/// Compiled query programs: each of the paper's Codes 1-4 (v2v EA/LD/SD,
/// naive and bucketed kNN, one-to-many, in both directions) compiles once
/// — at PtldbDatabase::Build for the v2v family, at AddTargetSet for the
/// set family — into a short register program of fused macro-ops that
/// ptldb/compiled.cc executes against pinned pages with all scratch in a
/// per-request bump arena (engine/arena.h). This is the facade's only
/// executor; the literal SQL of Codes 1-4 runs separately through the
/// SQL interpreter (src/sql). A program whose tables cannot be bound
/// never exists: compilation fails and so does the Build/AddTargetSet
/// that asked for it.
///
/// The ops are deliberately coarse: one instruction is one whole phase of
/// a paper query (load a label, merge two labels, scan bucket rows for
/// one n1 label, drain a top-k aggregate). Fine-grained per-row bytecode
/// would just re-create a volcano interpreter's dispatch cost; the win is
/// that inside each macro-op the loop is monomorphic, allocation-free and
/// checkpointed, while the program layer keeps query *selection* a data
/// lookup instead of a code path.
///
/// Instrumentation: executing a program bumps
/// LocalQueryCounters::vm_steps — one unit per instruction dispatched,
/// per bucket probed or range walked and per candidate tuple examined —
/// alongside the index_seeks / tuples_scanned / hubs_merged /
/// label_comparisons counters every table reader maintains, so facade
/// span stats equal engine counters exactly.
enum class VmOp : uint8_t {
  kHalt = 0,       ///< End of program.
  kLoadOut,        ///< r[a] = outbound label of the query source stop.
  kLoadIn,         ///< r[a] = inbound label of the query target stop.
  kMergeEa,        ///< result = EA common-hub merge of r[a], r[b].
  kMergeLd,        ///< result = LD common-hub merge of r[a], r[b].
  kMergeSd,        ///< result = SD common-hub merge of r[a], r[b].
  kScanEaBuckets,  ///< Fused Code-3 scan: r[a] n1 label x EA bucket rows.
  kScanLdBuckets,  ///< Fused Code-4 scan: r[a] n1 label x LD bucket rows.
  kScanNaiveEa,    ///< Fused Code-2 scan: r[a] n1 label x knn_naive ranges.
  kScanNaiveLd,    ///< LD counterpart of kScanNaiveEa.
  kEmitTopK,       ///< Drain aggregate, sort (a: 0=time asc, 1=desc), cut k.
};

struct VmInstr {
  VmOp op = VmOp::kHalt;
  uint8_t a = 0;  ///< Register / direction operand (op-specific).
  uint8_t b = 0;  ///< Second register operand (merges only).
};

/// A compiled query program plus the immutable plan constants it runs
/// against. Plain data, trivially copyable: PtldbDatabase stores one per
/// query type and hands out copies by value (target_sets() snapshots
/// include them). The EngineTable / LabelStore pointers are borrowed from
/// the owning database and stay valid for its lifetime.
struct VmProgram {
  static constexpr size_t kMaxCode = 8;

  std::array<VmInstr, kMaxCode> code{};
  uint8_t num_instrs = 0;

  /// Bound inputs (resolved once at compile time, never re-looked-up).
  const EngineTable* lout = nullptr;    ///< Outbound label table (raw tier).
  const EngineTable* lin = nullptr;     ///< Inbound label table (raw tier).
  const EngineTable* buckets = nullptr;  ///< Bucket or knn_naive table.
  const LabelStore* labels = nullptr;   ///< Compressed tier, else nullptr.

  /// Plan constants for the set family.
  Duration bucket_seconds = Duration::Zero();
  int32_t max_bucket = 0;
  uint32_t kmax = 0;

  /// Sentinel an EA/LD v2v program returns when no journey exists / a
  /// label is absent (Infinity for EA, NegInfinity for LD). SD programs
  /// answer in the Duration domain; their executor supplies
  /// Duration::Infinity() itself.
  EventTime empty_result = EventTime::Infinity();

  void Push(VmOp op, uint8_t a = 0, uint8_t b = 0) {
    code[num_instrs++] = VmInstr{op, a, b};
  }
};

}  // namespace ptldb

#endif  // PTLDB_ENGINE_VM_H_
