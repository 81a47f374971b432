#ifndef PTLDB_PTLDB_LABEL_MERGE_H_
#define PTLDB_PTLDB_LABEL_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/query_log.h"
#include "common/status.h"
#include "common/time_util.h"
#include "ttl/label_store.h"

namespace ptldb {

/// The Code 1 common-hub merge kernels of the compiled query VM
/// (compiled.cc), run over either label tier: heap rows decoded into
/// RowScratch spans or compressed buckets decoded into LabelArrays. One
/// implementation, two representations — the differential harness pins
/// that they answer identically.

/// One stop's labels viewed as three parallel arrays sorted by
/// (hub, td) — spans, so the same merge code runs over a compressed
/// bucket decoded into a LabelArrays scratch or raw RowScratch columns.
struct LabelRowView {
  std::span<const int32_t> hubs;
  std::span<const int32_t> tds;
  std::span<const int32_t> tas;

  LabelRowView() = default;
  explicit LabelRowView(const LabelView& view)
      : hubs(view.hubs), tds(view.tds), tas(view.tas) {}
  LabelRowView(std::span<const int32_t> h, std::span<const int32_t> d,
               std::span<const int32_t> a)
      : hubs(h), tds(d), tas(a) {}

  size_t size() const { return hubs.size(); }
};

/// Decodes stop v's resident bucket into *scratch, charging the decode to
/// this thread's query counters (the facade flushes them into the
/// `ttl.labels.decodes` / `ttl.labels.decoded_bytes` registry counters).
inline Result<LabelView> DecodeCounted(const LabelStore& store,
                                       LabelStore::Direction dir, StopId v,
                                       LabelArrays* scratch) {
  // Attributed to the label_decode phase of the current request record
  // (no-op when none is installed; see common/query_log.h).
  ScopedQueryPhase phase(QueryPhase::kLabelDecode);
  auto& counters = ThisThreadQueryCounters();
  ++counters.label_decodes;
  counters.label_decode_bytes += store.bucket_bytes(dir, v).size();
  return store.Decode(dir, v, scratch);
}

/// First index in [lo, hi) with td >= t (group is Pareto: td ascending).
/// Stored td columns widen into the compute tier for the comparison, so a
/// query bound beyond the stored horizon needs no narrowing cast here.
inline size_t FirstNotBefore(const LabelRowView& v, size_t lo, size_t hi,
                             EventTime t) {
  auto& counters = ThisThreadQueryCounters();
  // analyzer: bounded(binary search: O(log n) over one Pareto group)
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++counters.label_comparisons;
    if (FromStoredTime(v.tds[mid]) >= t) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Last index in [lo, hi) with ta <= t, or hi when none.
inline size_t LastNotAfter(const LabelRowView& v, size_t lo, size_t hi,
                           EventTime t) {
  auto& counters = ThisThreadQueryCounters();
  size_t l = lo;
  size_t h = hi;
  // analyzer: bounded(binary search: O(log n) over one Pareto group)
  while (l < h) {
    const size_t mid = l + (h - l) / 2;
    ++counters.label_comparisons;
    if (FromStoredTime(v.tas[mid]) <= t) {
      l = mid + 1;
    } else {
      h = mid;
    }
  }
  return l == lo ? hi : l - 1;
}

/// Runs `fn(a_lo, a_hi, b_lo, b_hi)` for every hub present in both rows.
/// Deadline checkpoint per merge step (see query_context.h): a served
/// query with an expired deadline unwinds here with kDeadlineExceeded,
/// before it touches the next hub group.
template <typename Fn>
Status MergeCommonHubs(const LabelRowView& a, const LabelRowView& b, Fn&& fn) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    const int32_t ha = a.hubs[i];
    const int32_t hb = b.hubs[j];
    if (ha < hb) {
      while (i < a.size() && a.hubs[i] == ha) ++i;
    } else if (hb < ha) {
      while (j < b.size() && b.hubs[j] == hb) ++j;
    } else {
      size_t i2 = i;
      size_t j2 = j;
      while (i2 < a.size() && a.hubs[i2] == ha) ++i2;
      while (j2 < b.size() && b.hubs[j2] == ha) ++j2;
      ++ThisThreadQueryCounters().hubs_merged;
      fn(i, i2, j, j2);
      i = i2;
      j = j2;
    }
  }
  return Status::Ok();
}

/// The three Code 1 answers over a pair of label views: the
/// representation changes with the tier, the merge does not.
inline Result<EventTime> MergeV2vEa(const LabelRowView& outp,
                                    const LabelRowView& inp, EventTime t) {
  ScopedQueryPhase phase(QueryPhase::kMerge);
  EventTime best = EventTime::Infinity();
  PTLDB_RETURN_IF_ERROR(MergeCommonHubs(
      outp, inp,
      [&](size_t a_lo, size_t a_hi, size_t b_lo, size_t b_hi) {
        const size_t l1 = FirstNotBefore(outp, a_lo, a_hi, t);
        if (l1 == a_hi) return;
        const size_t l2 =
            FirstNotBefore(inp, b_lo, b_hi, FromStoredTime(outp.tas[l1]));
        if (l2 == b_hi) return;
        best = std::min(best, FromStoredTime(inp.tas[l2]));
      }));
  return best;
}

inline Result<EventTime> MergeV2vLd(const LabelRowView& outp,
                                    const LabelRowView& inp, EventTime t_end) {
  ScopedQueryPhase phase(QueryPhase::kMerge);
  EventTime best = EventTime::NegInfinity();
  PTLDB_RETURN_IF_ERROR(MergeCommonHubs(
      outp, inp,
      [&](size_t a_lo, size_t a_hi, size_t b_lo, size_t b_hi) {
        const size_t l2 = LastNotAfter(inp, b_lo, b_hi, t_end);
        if (l2 == b_hi) return;
        const size_t l1 =
            LastNotAfter(outp, a_lo, a_hi, FromStoredTime(inp.tds[l2]));
        if (l1 == a_hi) return;
        best = std::max(best, FromStoredTime(outp.tds[l1]));
      }));
  return best;
}

inline Result<Duration> MergeV2vSd(const LabelRowView& outp,
                                   const LabelRowView& inp, EventTime t,
                                   EventTime t_end) {
  ScopedQueryPhase phase(QueryPhase::kMerge);
  // Durations are typed 64-bit: ta - td can exceed INT32_MAX when a
  // timetable spans near-horizon timestamps (e.g. an arrival close to the
  // stored maximum reached from a departure below zero), and the int32
  // subtraction this fold once used was UB, not just a wrong answer. A
  // duration that still exceeds the stored horizon after the min-fold
  // saturates to Duration::Infinity() — indistinguishable from
  // "unreachable", which is the only honest stored-width answer.
  Duration best = Duration::Infinity();
  PTLDB_RETURN_IF_ERROR(MergeCommonHubs(
      outp, inp,
      [&](size_t a_lo, size_t a_hi, size_t b_lo, size_t b_hi) {
        size_t l2 = b_lo;
        // analyzer: bounded(one Pareto group; MergeCommonHubs checkpoints per hub)
        for (size_t l1 = FirstNotBefore(outp, a_lo, a_hi, t); l1 < a_hi;
             ++l1) {
          while (l2 < b_hi && inp.tds[l2] < outp.tas[l1]) ++l2;
          if (l2 == b_hi || FromStoredTime(inp.tas[l2]) > t_end) break;
          best = std::min(best, FromStoredTime(inp.tas[l2]) -
                                    FromStoredTime(outp.tds[l1]));
        }
      }));
  return std::min(best, Duration::Infinity());
}

}  // namespace ptldb

#endif  // PTLDB_PTLDB_LABEL_MERGE_H_
