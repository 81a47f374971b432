#ifndef PTLDB_PTLDB_COMPILED_H_
#define PTLDB_PTLDB_COMPILED_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "engine/database.h"
#include "engine/vm.h"
#include "timetable/types.h"
#include "ttl/label_store.h"

namespace ptldb {

/// Compilation and execution of the VM programs (engine/vm.h), the
/// facade's only executor. The facade compiles each query type once —
/// the three Code 1 flavors at Build, the naive and bucket flavors per
/// target set at AddTargetSet — and the entry points execute the stored
/// program. All per-request scratch lives in a thread-local bump arena
/// plus reusable RowScratch/LabelArrays buffers, so a warm query performs
/// zero steady-state heap allocations (bench_micro's allocation gate pins
/// this). Compilation binds tables by name; a table that was never built
/// fails compilation with kInvalidArgument "table not built: <name>".

enum class CompiledV2vKind { kEa, kLd, kSd };

/// Compiles one Code 1 flavor against the database's label tier: the
/// compressed store when `labels` is non-null, else the lout/lin heap
/// tables. Cheap (pointer binding); call once per database build.
Result<VmProgram> CompileV2v(EngineDatabase* db, CompiledV2vKind kind,
                             const LabelStore* labels);

/// Compiles one set query of Codes 2-4 around the fused scan `scan`
/// (kScanEaBuckets / kScanLdBuckets over knn_ea_<set> / otm_ea_<set> /
/// knn_ld_<set> / otm_ld_<set>, or kScanNaiveEa / kScanNaiveLd over
/// knn_naive_<set>). The LD scans emit in descending time order.
Result<VmProgram> CompileSetQuery(EngineDatabase* db, VmOp scan,
                                  const std::string& table,
                                  Duration bucket_seconds, int32_t max_bucket,
                                  uint32_t kmax, const LabelStore* labels);

/// Executes a compiled EA or LD Code 1 program (answers are points on
/// the service clock). `t_end` is ignored by EA, `t` by LD.
Result<EventTime> RunCompiledV2v(EngineDatabase* db, const VmProgram& prog,
                                 StopId s, StopId g, EventTime t,
                                 EventTime t_end);

/// Executes a compiled SD Code 1 program (the answer is a span, not a
/// point).
Result<Duration> RunCompiledV2vSd(EngineDatabase* db, const VmProgram& prog,
                                  StopId s, StopId g, EventTime t,
                                  EventTime t_end);

/// Executes a compiled Code 2-4 program. k == 0 selects the one-to-many
/// variant (no candidate or output limit).
Result<std::vector<StopTimeResult>> RunCompiledSetQuery(EngineDatabase* db,
                                                        const VmProgram& prog,
                                                        StopId q, EventTime t,
                                                        uint32_t k);

}  // namespace ptldb

#endif  // PTLDB_PTLDB_COMPILED_H_
