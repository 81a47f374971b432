#include "ptldb/compiled.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"
#include "common/query_context.h"
#include "engine/arena.h"
#include "ptldb/label_merge.h"
#include "ptldb/tables.h"

namespace ptldb {

namespace {

// All per-request VM scratch, one instance per thread: the bump arena for
// aggregate tables and top-k staging, the decode targets for label and
// bucket rows. Everything here reaches its high-water size during the
// first requests and is reused (Reset / clear-keeping-capacity)
// afterwards — the zero-steady-state-allocation contract of the warm
// path. Queries run on one thread (the same contract as
// LocalQueryCounters), so no synchronization is needed.
struct VmState {
  Arena arena;
  LabelArrays out_arrays;  // Compressed-tier decode target, out label.
  LabelArrays in_arrays;   // Compressed-tier decode target, in label.
  RowScratch out_row;      // Raw-tier decode target, out label.
  RowScratch in_row;       // Raw-tier decode target, in label.
  RowScratch bucket_row;   // Probed bucket / naive rows (reused per row).
};

VmState& ThisThreadVmState() {
  static thread_local VmState state;
  return state;
}

// Loads one stop's label row into `view`, from whichever tier the program
// was compiled against. Returns false when the stop has no label (unknown
// stop / missing heap row) — the empty answer, not a fault. The view
// borrows `arrays` or `scratch`, which must outlive its use.
Result<bool> LoadLabel(EngineDatabase* db, const VmProgram& prog,
                       bool outbound, StopId v, LabelArrays* arrays,
                       RowScratch* scratch, LabelRowView* view) {
  if (prog.labels != nullptr) {
    if (v >= prog.labels->num_stops()) return false;
    auto decoded = DecodeCounted(
        *prog.labels,
        outbound ? LabelStore::Direction::kOut : LabelStore::Direction::kIn, v,
        arrays);
    PTLDB_RETURN_IF_ERROR(decoded.status());
    *view = LabelRowView(*decoded);
    return true;
  }
  const EngineTable* table = outbound ? prog.lout : prog.lin;
  auto found =
      table->GetInto(static_cast<IndexKey>(v), db->buffer_pool(), scratch);
  PTLDB_RETURN_IF_ERROR(found.status());
  if (!*found) return false;
  // The three arrays are parallel by construction, so a mismatch means
  // the row decoded from a corrupt page.
  if (scratch->cols.size() < 4 || !scratch->cols[1].is_array ||
      !scratch->cols[2].is_array || !scratch->cols[3].is_array) {
    return Status::Corruption("label row has too few columns");
  }
  const auto hubs = scratch->array(1);
  const auto tds = scratch->array(2);
  const auto tas = scratch->array(3);
  if (tds.size() != hubs.size() || tas.size() != hubs.size()) {
    return Status::Corruption("label row arrays have unequal lengths");
  }
  *view = LabelRowView(hubs, tds, tas);
  return true;
}

// Bucket row layout (BuildTargetSetTables): 0 hub, 1 hour, 2 vs,
// 3 condensed time (tas for EA tables, tds for LD), 4 tds_exp, 5 vs_exp,
// 6 tas_exp. The condensed pair and the expanded triple are each
// parallel, so a mismatch means the row decoded from a corrupt page.
struct BucketRowView {
  std::span<const int32_t> vs;
  std::span<const int32_t> cond;
  std::span<const int32_t> tds_exp;
  std::span<const int32_t> vs_exp;
  std::span<const int32_t> tas_exp;
};

Status ViewBucketRow(const RowScratch& scratch, BucketRowView* view) {
  if (scratch.cols.size() < 7) {
    return Status::Corruption("bucket row has too few columns");
  }
  view->vs = scratch.array(2);
  view->cond = scratch.array(3);
  view->tds_exp = scratch.array(4);
  view->vs_exp = scratch.array(5);
  view->tas_exp = scratch.array(6);
  if (view->cond.size() != view->vs.size() ||
      view->vs_exp.size() != view->tds_exp.size() ||
      view->tas_exp.size() != view->tds_exp.size()) {
    return Status::Corruption("parallel UNNEST arrays have unequal lengths");
  }
  return Status::Ok();
}

// Folds `value` for stop `v` into the per-stop aggregate.
void AggMin(ArenaInt32Map* agg, int32_t v, int32_t value) {
  int32_t* slot = agg->FindOrInsert(v, value);
  *slot = std::min(*slot, value);
}

void AggMax(ArenaInt32Map* agg, int32_t v, int32_t value) {
  int32_t* slot = agg->FindOrInsert(v, value);
  *slot = std::max(*slot, value);
}

// Fused Code 3 scan (one kScanEaBuckets instruction): for every n1 label
// tuple departing at or after t, probe the (hub, dephour) bucket row and
// fold both branches — the condensed top-k columns and the expanded
// in-bucket tuples with the l1.ta <= l2.td feasibility check — into the
// global per-stop minimum. Step accounting: one vm_step per probe and
// one per candidate element examined.
Status ScanEaBuckets(EngineDatabase* db, const VmProgram& prog,
                     const LabelRowView& n1, EventTime t, uint32_t k,
                     ArenaInt32Map* agg, RowScratch* scratch) {
  auto& counters = ThisThreadQueryCounters();
  BufferPool* pool = db->buffer_pool();
  // The query bound narrows saturating once; the scan then compares
  // stored int32 columns against a stored bound (see time_types.h).
  const StoredTime td_min = SaturatingToStoredTime(t);
  for (size_t i = 0; i < n1.size(); ++i) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    if (n1.tds[i] < td_min) continue;
    ++counters.vm_steps;
    auto found = prog.buckets->GetInto(
        MakeCompositeKey(n1.hubs[i],
                         StoredBucketOf(n1.tas[i], prog.bucket_seconds)),
        pool, scratch);
    PTLDB_RETURN_IF_ERROR(found.status());
    if (!*found) continue;
    BucketRowView row;
    PTLDB_RETURN_IF_ERROR(ViewBucketRow(*scratch, &row));
    // Branch A: the condensed (v, ta) pairs, first k per bucket row (the
    // vs[1:k] slice of Code 3; k == 0 = OTM = no slice).
    const size_t lim =
        k == 0 ? row.vs.size() : std::min<size_t>(row.vs.size(), k);
    for (size_t j = 0; j < lim; ++j) {
      ++counters.vm_steps;
      AggMin(agg, row.vs[j], row.cond[j]);
    }
    // Branch B: expanded in-bucket tuples, still checking l1.ta <= l2.td.
    for (size_t j = 0; j < row.tds_exp.size(); ++j) {
      ++counters.vm_steps;
      if (n1.tas[i] <= row.tds_exp[j]) {
        AggMin(agg, row.vs_exp[j], row.tas_exp[j]);
      }
    }
  }
  return Status::Ok();
}

// Fused Code 4 scan: every n1 tuple probes the single arrival-hour
// bucket; both branches require the label departure to be boardable
// (l2.td >= l1.ta), branch B additionally l2.ta <= t. The aggregated
// value is the n1 departure time (the answer of an LD query is when to
// leave, not when to arrive).
Status ScanLdBuckets(EngineDatabase* db, const VmProgram& prog,
                     const LabelRowView& n1, EventTime t, uint32_t k,
                     ArenaInt32Map* agg, RowScratch* scratch) {
  auto& counters = ThisThreadQueryCounters();
  BufferPool* pool = db->buffer_pool();
  // Deadlines beyond the indexed horizon clamp to the last event bucket.
  const int32_t arrhour =
      std::min(SaturatingBucketOf(t, prog.bucket_seconds), prog.max_bucket);
  const StoredTime ta_max = SaturatingToStoredTime(t);
  for (size_t i = 0; i < n1.size(); ++i) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    ++counters.vm_steps;
    auto found = prog.buckets->GetInto(MakeCompositeKey(n1.hubs[i], arrhour),
                                       pool, scratch);
    PTLDB_RETURN_IF_ERROR(found.status());
    if (!*found) continue;
    BucketRowView row;
    PTLDB_RETURN_IF_ERROR(ViewBucketRow(*scratch, &row));
    const size_t lim =
        k == 0 ? row.vs.size() : std::min<size_t>(row.vs.size(), k);
    for (size_t j = 0; j < lim; ++j) {
      ++counters.vm_steps;
      if (row.cond[j] >= n1.tas[i]) {
        AggMax(agg, row.vs[j], n1.tds[i]);
      }
    }
    for (size_t j = 0; j < row.tds_exp.size(); ++j) {
      ++counters.vm_steps;
      if (row.tds_exp[j] >= n1.tas[i] && row.tas_exp[j] <= ta_max) {
        AggMax(agg, row.vs_exp[j], n1.tds[i]);
      }
    }
  }
  return Status::Ok();
}

// Fused Code 2 scan (one kScanNaiveEa / kScanNaiveLd instruction): for
// every n1 label tuple, range-walk the knn_naive rows (hub, td) from
// (hub, n1.ta) to the end of the hub — the n2.td >= n1.ta join — and fold
// the first k (v, ta) of each row (the vs[1:k] slice) into the per-stop
// aggregate. EA keeps the n1 tuples departing at or after t and takes
// MIN(ta); LD keeps every n1 tuple, drops slice entries arriving after t
// and takes MAX(n1.td). Naive row layout: 0 hub, 1 td, 2 vs, 3 tas. Step
// accounting: one vm_step per range walk and one per slice element.
Status ScanNaive(EngineDatabase* db, const VmProgram& prog, bool ld,
                 const LabelRowView& n1, EventTime t, uint32_t k,
                 ArenaInt32Map* agg, RowScratch* scratch) {
  auto& counters = ThisThreadQueryCounters();
  BufferPool* pool = db->buffer_pool();
  // EA: lower bound on n1.td; LD: upper bound on the target arrival.
  const StoredTime bound = SaturatingToStoredTime(t);
  for (size_t i = 0; i < n1.size(); ++i) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    if (!ld && n1.tds[i] < bound) continue;
    ++counters.vm_steps;
    const IndexKey last =
        MakeCompositeKey(n1.hubs[i], std::numeric_limits<int32_t>::max());
    auto cursor =
        prog.buckets->Seek(MakeCompositeKey(n1.hubs[i], n1.tas[i]), pool);
    for (; cursor.Valid() && cursor.key() <= last; cursor.Next()) {
      PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
      PTLDB_RETURN_IF_ERROR(cursor.ReadInto(scratch));
      if (scratch->cols.size() < 4) {
        return Status::Corruption("naive row has too few columns");
      }
      const auto vs = scratch->array(2);
      const auto tas = scratch->array(3);
      if (tas.size() != vs.size()) {
        return Status::Corruption("naive row arrays have unequal lengths");
      }
      const size_t lim = k == 0 ? vs.size() : std::min<size_t>(vs.size(), k);
      for (size_t j = 0; j < lim; ++j) {
        ++counters.vm_steps;
        if (!ld) {
          AggMin(agg, vs[j], tas[j]);
        } else if (tas[j] <= bound) {
          AggMax(agg, vs[j], n1.tds[i]);
        }
      }
    }
    PTLDB_RETURN_IF_ERROR(cursor.status());
  }
  return Status::Ok();
}

// Binds a table a program reads. A table that was never built (labels
// not loaded, set not registered) is a caller error, not a fault.
Status BindTable(EngineDatabase* db, const std::string& name,
                 const EngineTable** slot) {
  *slot = db->FindTable(name);
  if (*slot == nullptr) {
    return Status::InvalidArgument("table not built: " + name);
  }
  return Status::Ok();
}

}  // namespace

Result<VmProgram> CompileV2v(EngineDatabase* db, CompiledV2vKind kind,
                             const LabelStore* labels) {
  VmProgram p;
  p.labels = labels;
  if (labels == nullptr) {
    PTLDB_RETURN_IF_ERROR(BindTable(db, kLoutTable, &p.lout));
    PTLDB_RETURN_IF_ERROR(BindTable(db, kLinTable, &p.lin));
  }
  p.empty_result = kind == CompiledV2vKind::kLd ? EventTime::NegInfinity()
                                                : EventTime::Infinity();
  p.Push(VmOp::kLoadOut, 0);
  p.Push(VmOp::kLoadIn, 1);
  switch (kind) {
    case CompiledV2vKind::kEa:
      p.Push(VmOp::kMergeEa, 0, 1);
      break;
    case CompiledV2vKind::kLd:
      p.Push(VmOp::kMergeLd, 0, 1);
      break;
    case CompiledV2vKind::kSd:
      p.Push(VmOp::kMergeSd, 0, 1);
      break;
  }
  return p;
}

Result<VmProgram> CompileSetQuery(EngineDatabase* db, VmOp scan,
                                  const std::string& table,
                                  Duration bucket_seconds, int32_t max_bucket,
                                  uint32_t kmax, const LabelStore* labels) {
  VmProgram p;
  p.labels = labels;
  if (labels == nullptr) {
    PTLDB_RETURN_IF_ERROR(BindTable(db, kLoutTable, &p.lout));
  }
  PTLDB_RETURN_IF_ERROR(BindTable(db, table, &p.buckets));
  p.bucket_seconds = bucket_seconds;
  p.max_bucket = max_bucket;
  p.kmax = kmax;
  const bool ld = scan == VmOp::kScanLdBuckets || scan == VmOp::kScanNaiveLd;
  p.Push(VmOp::kLoadOut, 0);
  p.Push(scan, 0);
  p.Push(VmOp::kEmitTopK, ld ? 1 : 0);
  return p;
}

namespace {

// Walks a v2v program's load prefix into `reg` and returns the pending
// merge instruction. A kHalt return means the answer is empty — a label
// was absent (unknown stop / missing heap row) or the program had no
// merge — and the typed wrappers supply their domain's empty value.
Result<VmInstr> RunV2vLoads(EngineDatabase* db, const VmProgram& prog,
                            StopId s, StopId g, LabelRowView reg[2]) {
  VmState& state = ThisThreadVmState();
  state.arena.Reset();
  auto& counters = ThisThreadQueryCounters();
  for (uint8_t pc = 0; pc < prog.num_instrs; ++pc) {
    const VmInstr instr = prog.code[pc];
    ++counters.vm_steps;
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    switch (instr.op) {
      case VmOp::kLoadOut: {
        auto present = LoadLabel(db, prog, /*outbound=*/true, s,
                                 &state.out_arrays, &state.out_row,
                                 &reg[instr.a]);
        PTLDB_RETURN_IF_ERROR(present.status());
        if (!*present) return VmInstr{VmOp::kHalt, 0, 0};
        break;
      }
      case VmOp::kLoadIn: {
        auto present = LoadLabel(db, prog, /*outbound=*/false, g,
                                 &state.in_arrays, &state.in_row,
                                 &reg[instr.a]);
        PTLDB_RETURN_IF_ERROR(present.status());
        if (!*present) return VmInstr{VmOp::kHalt, 0, 0};
        break;
      }
      case VmOp::kMergeEa:
      case VmOp::kMergeLd:
      case VmOp::kMergeSd:
        return instr;
      case VmOp::kHalt:
        return instr;
      default:
        return Status::Internal("op not valid in a v2v program");
    }
  }
  return VmInstr{VmOp::kHalt, 0, 0};
}

}  // namespace

Result<EventTime> RunCompiledV2v(EngineDatabase* db, const VmProgram& prog,
                                 StopId s, StopId g, EventTime t,
                                 EventTime t_end) {
  LabelRowView reg[2];
  auto instr = RunV2vLoads(db, prog, s, g, reg);
  PTLDB_RETURN_IF_ERROR(instr.status());
  switch (instr->op) {
    case VmOp::kMergeEa:
      return MergeV2vEa(reg[instr->a], reg[instr->b], t);
    case VmOp::kMergeLd:
      return MergeV2vLd(reg[instr->a], reg[instr->b], t_end);
    case VmOp::kHalt:
      return prog.empty_result;
    default:
      return Status::Internal("program does not answer in the time domain");
  }
}

Result<Duration> RunCompiledV2vSd(EngineDatabase* db, const VmProgram& prog,
                                  StopId s, StopId g, EventTime t,
                                  EventTime t_end) {
  LabelRowView reg[2];
  auto instr = RunV2vLoads(db, prog, s, g, reg);
  PTLDB_RETURN_IF_ERROR(instr.status());
  switch (instr->op) {
    case VmOp::kMergeSd:
      return MergeV2vSd(reg[instr->a], reg[instr->b], t, t_end);
    case VmOp::kHalt:
      return Duration::Infinity();
    default:
      return Status::Internal("program does not answer in the span domain");
  }
}

Result<std::vector<StopTimeResult>> RunCompiledSetQuery(EngineDatabase* db,
                                                        const VmProgram& prog,
                                                        StopId q, EventTime t,
                                                        uint32_t k) {
  VmState& state = ThisThreadVmState();
  state.arena.Reset();
  auto& counters = ThisThreadQueryCounters();
  LabelRowView reg[2];
  // Absent n1 label (unknown stop): the scans are skipped and kEmitTopK
  // drains an empty aggregate — the empty answer, as in Codes 2-4.
  bool have_label = false;
  ArenaInt32Map agg(&state.arena);
  for (uint8_t pc = 0; pc < prog.num_instrs; ++pc) {
    const VmInstr instr = prog.code[pc];
    ++counters.vm_steps;
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    switch (instr.op) {
      case VmOp::kLoadOut: {
        auto present = LoadLabel(db, prog, /*outbound=*/true, q,
                                 &state.out_arrays, &state.out_row,
                                 &reg[instr.a]);
        PTLDB_RETURN_IF_ERROR(present.status());
        have_label = *present;
        break;
      }
      case VmOp::kScanEaBuckets:
        if (have_label) {
          PTLDB_RETURN_IF_ERROR(ScanEaBuckets(db, prog, reg[instr.a], t, k,
                                              &agg, &state.bucket_row));
        }
        break;
      case VmOp::kScanLdBuckets:
        if (have_label) {
          PTLDB_RETURN_IF_ERROR(ScanLdBuckets(db, prog, reg[instr.a], t, k,
                                              &agg, &state.bucket_row));
        }
        break;
      case VmOp::kScanNaiveEa:
      case VmOp::kScanNaiveLd:
        if (have_label) {
          PTLDB_RETURN_IF_ERROR(ScanNaive(db, prog,
                                          instr.op == VmOp::kScanNaiveLd,
                                          reg[instr.a], t, k, &agg,
                                          &state.bucket_row));
        }
        break;
      case VmOp::kEmitTopK: {
        // Drain the per-stop aggregate, order like the paper's ORDER BY
        // (time, then stop for determinism), cut to k. The one heap
        // allocation of a kNN query is the result vector itself.
        ArenaVector<StopTimeResult> staged(&state.arena);
        for (const auto& slot : agg.slots()) {
          if (slot.key == ArenaInt32Map::kEmptyKey) continue;
          staged.PushBack(
              {static_cast<StopId>(slot.key), FromStoredTime(slot.value)});
        }
        const bool desc = instr.a == 1;
        std::sort(staged.begin(), staged.end(),
                  [desc](const StopTimeResult& a, const StopTimeResult& b) {
                    if (a.time != b.time) {
                      return desc ? a.time > b.time : a.time < b.time;
                    }
                    return a.stop < b.stop;
                  });
        const size_t n =
            k == 0 ? staged.size() : std::min<size_t>(staged.size(), k);
        counters.rows_emitted += n;
        return std::vector<StopTimeResult>(staged.begin(),
                                           staged.begin() + n);
      }
      case VmOp::kHalt:
        return std::vector<StopTimeResult>{};
      default:
        return Status::Internal("op not valid in a set-query program");
    }
  }
  return std::vector<StopTimeResult>{};
}

}  // namespace ptldb
