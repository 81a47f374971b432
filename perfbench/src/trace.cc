// The traced run: replays a sample of the workload's requests through the
// layers one by one, records a span per call, and derives the per-layer
// metrics from the spans and from the program's own counters.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/query_log.h"
#include "engine/heap_file.h"
#include "perfbench.h"
#include "ptldb/label_merge.h"
#include "ptldb/tables.h"
#include "ttl/label_store.h"

namespace perfbench {

using ptldb::LabelStore;
using ptldb::PtldbDatabase;
using ptldb::PtldbServer;

namespace {

/// Requests of each type replayed from the workload's request list.
constexpr size_t kReplayPerType = 64;
/// Untraced/traced pass pairs behind trace.overhead_pct.
constexpr int kOverheadPairs = 5;

/// One recorded call: name, start/end (ns since the run's epoch), parent
/// span index (-1 for a root) and request id (-1 for a pass root).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  int32_t request = -1;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) { spans_.reserve(1 << 14); }

  int32_t Begin(const char* name, int32_t parent, int32_t request) {
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Closes span `i` and returns its duration in ns.
  uint64_t End(int32_t i) {
    Span& s = spans_[static_cast<size_t>(i)];
    s.end_ns = Now();
    return s.end_ns - s.start_ns;
  }

  bool Write(const std::string& path) const {
    std::error_code ec;
    const auto dir = std::filesystem::path(path).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir, ec);
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
    return static_cast<bool>(out);
  }

  size_t size() const { return spans_.size(); }

 private:
  uint64_t Now() const { return NsBetween(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

const char* FacadeSpanName(QueryClass c) {
  switch (c) {
    case QueryClass::kV2v:
      return "ptldb.v2v";
    case QueryClass::kKnn:
      return "ptldb.knn";
    case QueryClass::kOtm:
      return "ptldb.otm";
  }
  return "ptldb";
}

uint64_t HistogramSumDelta(const ptldb::MetricsSnapshot& before,
                           const ptldb::MetricsSnapshot& after,
                           const std::string& name) {
  const auto a = after.histograms.find(name);
  const auto b = before.histograms.find(name);
  const uint64_t av = a == after.histograms.end() ? 0 : a->second.sum;
  const uint64_t bv = b == before.histograms.end() ? 0 : b->second.sum;
  return av >= bv ? av - bv : 0;
}

ptldb::HistogramSummary HistogramOf(const ptldb::MetricsSnapshot& snap,
                                    const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? ptldb::HistogramSummary{} : it->second;
}

double MedianNs(std::vector<uint64_t> v) { return Percentile(std::move(v), 0.5); }

/// The Code 1 merge kernel of `r.type` over two fetched label rows, as a
/// v2v answer.
Answer MergeRows(const Request& r, const ptldb::LabelRowView& out,
                 const ptldb::LabelRowView& in) {
  Answer a;
  if (r.type == QueryType::kV2vSd) {
    auto res = ptldb::MergeV2vSd(out, in, r.t, r.t_end);
    if (res.ok()) a.duration = *res; else a.status = res.status();
  } else {
    auto res = r.type == QueryType::kV2vEa ? ptldb::MergeV2vEa(out, in, r.t)
                                           : ptldb::MergeV2vLd(out, in, r.t);
    if (res.ok()) a.time = *res; else a.status = res.status();
  }
  return a;
}

bool RowView(const ptldb::RowScratch& row, ptldb::LabelRowView* view) {
  if (row.cols.size() < 4 || !row.cols[1].is_array ||
      !row.cols[2].is_array || !row.cols[3].is_array) {
    return false;
  }
  *view = ptldb::LabelRowView(row.array(1), row.array(2), row.array(3));
  return view->tds.size() == view->size() && view->tas.size() == view->size();
}

}  // namespace

uint64_t CounterDelta(const ptldb::MetricsSnapshot& before,
                      const ptldb::MetricsSnapshot& after,
                      const std::string& name) {
  const auto a = after.counters.find(name);
  const auto b = before.counters.find(name);
  const uint64_t av = a == after.counters.end() ? 0 : a->second;
  const uint64_t bv = b == before.counters.end() ? 0 : b->second;
  return av >= bv ? av - bv : 0;
}

bool TracedReplay(Workload wl, Dataset* data, PtldbServer* server,
                  Checker* checker, const WindowResult& w,
                  const std::string& span_path, uint64_t* attempted,
                  Metrics* m) {
  PtldbDatabase* db = data->db.get();
  std::vector<Request> sample;
  {
    size_t taken[8] = {};
    for (const Request& r : w.requests) {
      size_t& n = taken[static_cast<size_t>(r.type)];
      if (n < kReplayPerType) {
        sample.push_back(r);
        ++n;
      }
    }
  }
  const size_t n = sample.size();
  SpanLog log;
  bool consistent = true;

  // Pass 1: the facade call, from dropped caches on ssd_small_pool as in
  // its window. Time inside the call is wall plus modelled device time.
  if (wl == Workload::kSsdSmallPool) {
    if (const ptldb::Status s = db->DropCaches(); !s.ok()) {
      std::fprintf(stderr, "[perfbench] DropCaches: %s\n",
                   s.ToString().c_str());
      return false;
    }
  }
  std::vector<uint64_t> facade_wall(n);
  std::vector<Answer> facade_answer(n);
  std::vector<uint64_t> facade_ns[kNumClasses];
  uint64_t span_sum = 0;
  const ptldb::MetricsSnapshot before_facade = db->Snapshot();
  int32_t root = log.Begin("pass.facade", -1, -1);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = sample[i];
    const QueryClass c = ClassOf(r.type);
    const uint64_t io0 = db->io_time_ns();
    const int32_t sp = log.Begin(FacadeSpanName(c), root, static_cast<int32_t>(i));
    facade_answer[i] = CallFacade(db, r);
    facade_wall[i] = log.End(sp);
    span_sum += facade_wall[i];
    facade_ns[static_cast<size_t>(c)].push_back(facade_wall[i] +
                                                db->io_time_ns() - io0);
    checker->Record(r, checker->Properties(r, facade_answer[i]));
    ++*attempted;
  }
  log.End(root);
  const ptldb::MetricsSnapshot after_facade = db->Snapshot();
  {
    // The query log's own attribution, checked against the spans: one
    // record per call, phases that sum exactly to the recorded latency,
    // and recorded latency inside the spans that enclose it.
    const uint64_t records =
        CounterDelta(before_facade, after_facade, "querylog.records");
    const uint64_t latency =
        CounterDelta(before_facade, after_facade, "querylog.latency_ns");
    uint64_t phases = 0;
    for (size_t p = 0; p < ptldb::kNumQueryPhases; ++p) {
      phases += HistogramSumDelta(
          before_facade, after_facade,
          std::string("phase.") +
              ptldb::QueryPhaseName(static_cast<ptldb::QueryPhase>(p)) +
              ".ns");
    }
    if (records != n || phases != latency || latency > span_sum) {
      std::fprintf(stderr,
                   "[perfbench] query-log attribution disagrees with the "
                   "spans: records=%llu (calls %zu) phase_ns=%llu "
                   "latency_ns=%llu span_ns=%llu\n",
                   static_cast<unsigned long long>(records), n,
                   static_cast<unsigned long long>(phases),
                   static_cast<unsigned long long>(latency),
                   static_cast<unsigned long long>(span_sum));
      consistent = false;
    }
  }

  // Pass 2: the layers under a v2v query — the two label-row fetches
  // through the buffer pool, the two compressed-bucket decodes, and the
  // merge kernel over the fetched rows, whose answer must equal the
  // facade's. A raw-tier database has no label store, so one is built
  // here for the decode timings.
  const ptldb::EngineTable* lout = db->engine()->FindTable(ptldb::kLoutTable);
  const ptldb::EngineTable* lin = db->engine()->FindTable(ptldb::kLinTable);
  std::unique_ptr<LabelStore> own_store;
  const LabelStore* store = db->label_store();
  if (store == nullptr) {
    auto built = LabelStore::Build(*data->index);
    if (!built.ok()) {
      std::fprintf(stderr, "[perfbench] LabelStore::Build: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    own_store = std::move(*built);
    store = own_store.get();
  }
  std::vector<uint64_t> fetch_ns;
  std::vector<uint64_t> decode_ns;
  std::vector<uint64_t> merge_ns;
  ptldb::RowScratch out_row;
  ptldb::RowScratch in_row;
  ptldb::LabelArrays out_arrays;
  ptldb::LabelArrays in_arrays;
  root = log.Begin("pass.layers", -1, -1);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = sample[i];
    if (ClassOf(r.type) != QueryClass::kV2v) continue;
    const auto id = static_cast<int32_t>(i);
    int32_t sp = log.Begin("pool.row_fetch", root, id);
    auto got_out = lout->GetInto(static_cast<ptldb::IndexKey>(r.s),
                                 db->engine()->buffer_pool(), &out_row);
    fetch_ns.push_back(log.End(sp));
    sp = log.Begin("pool.row_fetch", root, id);
    auto got_in = lin->GetInto(static_cast<ptldb::IndexKey>(r.g),
                               db->engine()->buffer_pool(), &in_row);
    fetch_ns.push_back(log.End(sp));
    sp = log.Begin("labels.decode", root, id);
    auto dec_out = store->Decode(LabelStore::Direction::kOut, r.s, &out_arrays);
    decode_ns.push_back(log.End(sp));
    sp = log.Begin("labels.decode", root, id);
    auto dec_in = store->Decode(LabelStore::Direction::kIn, r.g, &in_arrays);
    decode_ns.push_back(log.End(sp));
    ptldb::LabelRowView out_view;
    ptldb::LabelRowView in_view;
    if (!got_out.ok() || !got_in.ok() || !*got_out || !*got_in ||
        !dec_out.ok() || !dec_in.ok() || !RowView(out_row, &out_view) ||
        !RowView(in_row, &in_view)) {
      checker->Record(r, "label row fetch or decode failed");
      continue;
    }
    sp = log.Begin("merge.v2v", root, id);
    const Answer merged = MergeRows(r, out_view, in_view);
    merge_ns.push_back(log.End(sp));
    const Answer& facade = facade_answer[i];
    if (!merged.status.ok() || merged.time != facade.time ||
        merged.duration != facade.duration) {
      checker->Record(r, "merge kernel over fetched rows disagrees with "
                         "the facade answer");
    }
  }
  log.End(root);

  // Pass 3: Submit -> callback. The served workloads use their own
  // server; ssd_small_pool, which has none, replays through a one-worker
  // server over the same database.
  std::unique_ptr<PtldbServer> own_server;
  PtldbServer* srv = server;
  if (srv == nullptr) {
    ptldb::ServerOptions o = ServedOptions();
    o.num_workers = 1;
    own_server = std::make_unique<PtldbServer>(db, o);
    srv = own_server.get();
  }
  std::vector<double> overhead_ns;
  root = log.Begin("pass.server", -1, -1);
  for (size_t i = 0; i < n; ++i) {
    const int32_t sp = log.Begin("server.submit", root, static_cast<int32_t>(i));
    const Answer a = Answered(db, srv, sample[i]);
    const uint64_t ns = log.End(sp);
    overhead_ns.push_back(static_cast<double>(ns) -
                          static_cast<double>(facade_wall[i]));
    checker->Record(sample[i], checker->Properties(sample[i], a));
    ++*attempted;
  }
  log.End(root);
  // Queue waits: the served window's own histograms; for ssd_small_pool
  // those of the replay server.
  const ptldb::MetricsSnapshot queue_snap =
      server != nullptr ? w.after : db->Snapshot();
  own_server.reset();

  // Pass 4: the same facade call with the query log on and off, in
  // alternating order; obs.record_us is the median paired difference.
  std::vector<double> obs_diff_ns;
  root = log.Begin("pass.obs", -1, -1);
  for (size_t i = 0; i < n; ++i) {
    uint64_t on_off[2] = {};
    for (int j = 0; j < 2; ++j) {
      const bool on = (i + static_cast<size_t>(j)) % 2 == 0;
      db->query_log()->set_enabled(on);
      const uint64_t io0 = db->io_time_ns();
      const int32_t sp =
          log.Begin(on ? "obs.on" : "obs.off", root, static_cast<int32_t>(i));
      const Answer a = CallFacade(db, sample[i]);
      on_off[on ? 0 : 1] = log.End(sp) + db->io_time_ns() - io0;
      checker->Record(sample[i], checker->Properties(sample[i], a));
      ++*attempted;
    }
    obs_diff_ns.push_back(static_cast<double>(on_off[0]) -
                          static_cast<double>(on_off[1]));
  }
  db->query_log()->set_enabled(true);
  log.End(root);

  // Pass 5: the tracing overhead — the sample's facade calls without and
  // with a span around each, in alternating passes.
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
  for (int rep = 0; rep < 2 * kOverheadPairs; ++rep) {
    const bool traced = rep % 2 == 1;
    const int32_t pass_root =
        traced ? log.Begin("pass.overhead", -1, -1) : -1;
    const auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      const int32_t sp =
          traced ? log.Begin(FacadeSpanName(ClassOf(sample[i].type)),
                             pass_root, static_cast<int32_t>(i))
                 : -1;
      const Answer a = CallFacade(db, sample[i]);
      if (traced) log.End(sp);
      checker->Record(sample[i], checker->Properties(sample[i], a));
      ++*attempted;
    }
    const auto ns = static_cast<double>(NsBetween(t0, Clock::now()));
    if (traced) log.End(pass_root);
    (traced ? traced_ns : plain_ns).push_back(ns);
  }

  if (!span_path.empty() && !log.Write(span_path)) {
    std::fprintf(stderr, "[perfbench] cannot write spans to %s\n",
                 span_path.c_str());
  }
  std::fprintf(stderr, "[perfbench] traced replay: %zu requests, %zu spans\n",
               n, log.size());

  // Per-layer metrics. Counts are per query answered in the untraced
  // window, read from the program's counters at the window's boundaries.
  const auto q = static_cast<double>(std::max<uint64_t>(w.answered, 1));
  const auto per_query = [&](const char* counter) {
    return static_cast<double>(CounterDelta(w.before, w.after, counter)) / q;
  };
  Metrics& out = *m;
  out["server.queue_wait_interactive_p99_us"] = {
      HistogramOf(queue_snap, "server.queue_wait.interactive_ns").p99 / 1e3,
      "us"};
  out["server.queue_wait_expensive_p50_us"] = {
      HistogramOf(queue_snap, "server.queue_wait.expensive_ns").p50 / 1e3,
      "us"};
  out["server.overhead_us"] = {Median(overhead_ns) / 1e3, "us"};
  out["ptldb.v2v_us"] = {MedianNs(facade_ns[0]) / 1e3, "us"};
  out["ptldb.knn_us"] = {MedianNs(facade_ns[1]) / 1e3, "us"};
  out["ptldb.otm_us"] = {MedianNs(facade_ns[2]) / 1e3, "us"};
  out["vm.steps_per_query"] = {per_query("exec.vm_steps"), "count"};
  out["exec.index_seeks_per_query"] = {per_query("exec.index_seeks"), "count"};
  out["exec.tuples_scanned_per_query"] = {per_query("exec.tuples_scanned"),
                                          "count"};
  out["merge.v2v_us"] = {MedianNs(merge_ns) / 1e3, "us"};
  out["ttl.hubs_merged_per_query"] = {per_query("ttl.hubs_merged"), "count"};
  out["ttl.label_comparisons_per_query"] = {
      per_query("ttl.label_comparisons"), "count"};
  const double hits = per_query("bufferpool.hits");
  const double misses = per_query("bufferpool.misses");
  out["pool.hits_per_query"] = {hits, "count"};
  out["pool.misses_per_query"] = {misses, "count"};
  out["pool.evictions_per_query"] = {per_query("bufferpool.evictions"),
                                     "count"};
  out["pool.hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0,
                           "ratio"};
  out["pool.row_fetch_us"] = {MedianNs(fetch_ns) / 1e3, "us"};
  const double reads = per_query("device.reads");
  out["device.reads_per_query"] = {reads, "count"};
  out["device.sequential_share"] = {
      reads > 0 ? per_query("device.sequential_reads") / reads : 0, "ratio"};
  out["device.modeled_us_per_query"] = {
      (per_query("device.read_ns") + per_query("device.wait_ns")) / 1e3, "us"};
  out["labels.decode_us"] = {MedianNs(decode_ns) / 1e3, "us"};
  out["labels.decodes_per_query"] = {per_query("ttl.labels.decodes"), "count"};
  out["labels.decoded_bytes_per_query"] = {
      per_query("ttl.labels.decoded_bytes"), "B"};
  const auto resident = w.after.gauges.find("ttl.labels.bytes_resident");
  out["labels.resident_mb"] = {
      resident == w.after.gauges.end()
          ? 0.0
          : static_cast<double>(resident->second) / 1e6,
      "MB"};
  out["obs.record_us"] = {Median(obs_diff_ns) / 1e3, "us"};
  const auto records = static_cast<double>(std::max<uint64_t>(
      CounterDelta(w.before, w.after, "querylog.records"), 1));
  for (size_t p = 0; p < ptldb::kNumQueryPhases; ++p) {
    const std::string name =
        ptldb::QueryPhaseName(static_cast<ptldb::QueryPhase>(p));
    out["phase." + name + ".us_per_query"] = {
        static_cast<double>(
            HistogramSumDelta(w.before, w.after, "phase." + name + ".ns")) /
            1e3 / records,
        "us"};
  }
  const double plain = Median(plain_ns);
  out["trace.overhead_pct"] = {
      plain > 0 ? 100.0 * (Median(traced_ns) - plain) / plain : 0, "%"};
  return consistent;
}

}  // namespace perfbench
