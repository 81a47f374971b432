#!/usr/bin/env python3
"""Validates a benchmark run record written via --json (see
bench/bench_common.h, WriteBenchJson).

Checks the schema — required top-level fields, phase shape, metrics
snapshot shape — and, for bench_micro records, that the engine counters the
observability layer is supposed to track actually moved during the run: a
tracked counter stuck at zero means an instrumentation point was lost.

For bench_server records (the open-loop serving sweep) it also asserts the
overload contract of DESIGN.md §10 on the properties that are robust across
machines and runs:
  - every serve_* phase accounts for every submitted request exactly once
    (ok + shed + deadline + errors == items);
  - at the highest offered multiple, interactive availability stays >= 99%
    while the expensive class sheds (shed-before-collapse);
  - the server's admission/rejection counters actually moved.

Usage: check_bench_json.py RECORD.json [RECORD.json ...]
Exits non-zero with a message on the first invalid record.

Stdlib only; safe to run in CI without extra dependencies.
"""
import json
import re
import sys

# Counters that a bench_micro --json run (v2v + kNN + one-to-many queries
# on a SATA-SSD device profile) must have incremented. Keep in sync with
# bench_micro.cpp's RunJsonMode phases.
MICRO_NONZERO_COUNTERS = [
    "bufferpool.hits",
    "bufferpool.misses",
    "device.reads",
    "device.read_ns",
    "exec.tuples_scanned",
    "exec.index_seeks",
    "ttl.hubs_merged",
    "ttl.label_comparisons",
    "exec.vm_steps",
    "query.v2v_ea.count",
    "query.ea_knn.count",
    "query.ea_otm.count",
]


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_record(path):
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"cannot parse: {e}")

    for field, kind in [
        ("bench", str),
        ("git", str),
        ("scale", (int, float)),
        ("seed", int),
        ("phases", list),
        ("metrics", dict),
    ]:
        if field not in record:
            fail(path, f"missing field {field!r}")
        if not isinstance(record[field], kind):
            fail(path, f"field {field!r} has wrong type")

    if not record["phases"]:
        fail(path, "no phases recorded")
    for phase in record["phases"]:
        for field, kind in [
            ("name", str),
            ("seconds", (int, float)),
            ("items", int),
            ("ms_per_item", (int, float)),
        ]:
            if field not in phase or not isinstance(phase[field], kind):
                fail(path, f"bad phase entry: {phase!r}")
        if phase["seconds"] < 0:
            fail(path, f"negative duration in phase {phase['name']!r}")

    metrics = record["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics or not isinstance(metrics[section], dict):
            fail(path, f"metrics snapshot missing {section!r}")
    for name, summary in metrics["histograms"].items():
        for field in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            if field not in summary:
                fail(path, f"histogram {name!r} missing {field!r}")

    if record["bench"] == "bench_server":
        check_server_overload(path, record)

    if record["bench"] == "bench_micro":
        counters = metrics["counters"]
        for name in MICRO_NONZERO_COUNTERS:
            if counters.get(name, 0) == 0:
                fail(path, f"tracked counter {name!r} is zero or missing")
        latency = metrics["histograms"].get("query.v2v_ea.latency_ns")
        if latency is None or latency["count"] == 0:
            fail(path, "query.v2v_ea.latency_ns histogram is empty")
        check_concurrency_scaling(path, record)
        check_compressed_labels(path, record)
        check_observability_overhead(path, record)
        check_vm_allocations(path, record)

    print(f"{path}: ok ({len(record['phases'])} phases, "
          f"{len(metrics['counters'])} counters)")


SERVE_PHASE = re.compile(r"^serve_w(\d+)_x([0-9.]+)_(int|exp)$")
SERVE_LOAD_FIELDS = [
    ("offered_qps", (int, float)),
    ("workers", int),
    ("ok", int),
    ("shed", int),
    ("deadline", int),
    ("errors", int),
    ("p50_ms", (int, float)),
    ("p95_ms", (int, float)),
    ("p99_ms", (int, float)),
]


def check_server_overload(path, record):
    """Validates the open-loop serving sweep (bench_server) against the
    DESIGN.md §10 overload contract.

    Latency numbers are machine-dependent, so the assertions stick to
    structural properties: exactly-once response accounting, and — at the
    highest offered multiple of each worker count — interactive (v2v)
    availability >= 99% while the expensive (kNN/OTM) class visibly sheds
    with explicit kOverloaded rejections. A run where overload silently
    collapses the interactive class, or where rejections vanish into thin
    air, fails here even though its schema is well-formed.
    """
    points = {}  # (workers, multiple) -> {"int": phase, "exp": phase}
    for phase in record["phases"]:
        m = SERVE_PHASE.match(phase["name"])
        if m is None:
            continue
        for field, kind in SERVE_LOAD_FIELDS:
            if field not in phase or not isinstance(phase[field], kind):
                fail(path, f"serve phase {phase['name']!r} missing or "
                           f"mistyped field {field!r}")
        answered = (phase["ok"] + phase["shed"] + phase["deadline"]
                    + phase["errors"])
        if answered != phase["items"]:
            fail(path, f"{phase['name']}: {answered} responses for "
                       f"{phase['items']} submissions — the exactly-once "
                       "callback contract is broken")
        key = (int(m.group(1)), float(m.group(2)))
        points.setdefault(key, {})[m.group(3)] = phase
    if not points:
        fail(path, "bench_server record has no serve_* phases")

    workers_seen = sorted({w for w, _ in points})
    for workers in workers_seen:
        multiples = sorted(m for w, m in points if w == workers)
        peak = points[(workers, multiples[-1])]
        if "int" not in peak or "exp" not in peak:
            fail(path, f"w{workers}: peak load point missing a class phase")
        pi, pe = peak["int"], peak["exp"]
        if pi["items"] == 0 or pe["items"] == 0:
            fail(path, f"w{workers}: empty peak phase")
        availability = pi["ok"] / pi["items"]
        if availability < 0.99:
            fail(path,
                 f"w{workers} x{multiples[-1]:g}: interactive availability "
                 f"{availability:.3f} < 0.99 — overload is collapsing the "
                 "interactive class instead of shedding the expensive one")
        if multiples[-1] >= 2.0 and pe["shed"] == 0:
            fail(path,
                 f"w{workers} x{multiples[-1]:g}: expensive class shed "
                 "nothing at sustained overload — admission control is "
                 "not engaging")
        print(f"{path}: w{workers} x{multiples[-1]:g} interactive "
              f"availability {availability:.3f}, expensive shed "
              f"{pe['shed']}/{pe['items']}")

    counters = record["metrics"]["counters"]
    for name in ("server.admitted", "server.completed"):
        if counters.get(name, 0) == 0:
            fail(path, f"serving counter {name!r} is zero or missing")
    if counters.get("server.rejected.shed", 0) == 0:
        fail(path, "server.rejected.shed is zero — the sweep never "
                   "exercised expensive-class rejection")
    check_server_querylog(path, record, points)


def check_server_querylog(path, record, points):
    """The slow-log / trace-retention contract over the whole sweep
    (DESIGN.md §11): every request that was shed, expired or errored left
    exactly one structured record in the query log and retained a trace.

    The serve-phase response counts are the ground truth (each submission
    is answered exactly once, checked above); the query-log outcome
    counters must match them exactly — a deficit means a rejection path
    skipped logging, a surplus means a request was double-recorded. The
    same equality against traces.retained.* is the 100%-retention gate,
    and against server.rejected.cause.* it pins every shed record to an
    attributed admission cause.
    """
    counters = record["metrics"]["counters"]
    outcome = lambda o: counters.get(f"querylog.outcome.{o}", 0)
    retained = lambda r: counters.get(f"traces.retained.{r}", 0)
    total = {"shed": 0, "deadline": 0, "errors": 0}
    for classes in points.values():
        for phase in classes.values():
            for field in total:
                total[field] += phase[field]
    if outcome("shed") != total["shed"]:
        fail(path, f"querylog.outcome.shed {outcome('shed')} != "
                   f"{total['shed']} shed responses — slow-log records "
                   "and shed responses must match exactly once")
    if outcome("deadline") != total["deadline"]:
        fail(path, f"querylog.outcome.deadline {outcome('deadline')} != "
                   f"{total['deadline']} deadline responses — a deadline "
                   "path skipped or double-wrote the query log")
    if outcome("error") != total["errors"]:
        fail(path, f"querylog.outcome.error {outcome('error')} != "
                   f"{total['errors']} error responses")
    for reason in ("shed", "deadline", "error"):
        o = outcome(reason)
        r = retained(reason)
        if o != r:
            fail(path, f"traces.retained.{reason} {r} != "
                       f"querylog.outcome.{reason} {o} — tail sampling "
                       "must retain a trace for 100% of them")
    causes = ("stopping", "shed", "queue_full", "headroom")
    cause_sum = sum(counters.get(f"server.rejected.cause.{c}", 0)
                    for c in causes)
    if cause_sum != outcome("shed"):
        fail(path, f"shed-cause breakdown sums to {cause_sum} but "
                   f"querylog.outcome.shed is {outcome('shed')} — a "
                   "rejection lost its cause attribution")
    hists = record["metrics"]["histograms"]
    for cls in ("interactive", "expensive"):
        h = hists.get(f"server.queue_wait.{cls}_ns")
        if h is None or h["count"] == 0:
            fail(path, f"server.queue_wait.{cls}_ns histogram empty — "
                       "queue-wait attribution is not being recorded")
    print(f"{path}: querylog exactly-once ok (shed {total['shed']}, "
          f"deadline {total['deadline']}, errors {total['errors']}; "
          f"all traced, causes {cause_sum})")


def check_concurrency_scaling(path, record):
    """When a --concurrency N run recorded the paired warm multi-threaded
    phases (mt_v2v_ea_c1 and mt_v2v_ea_cN), require the N-thread batch to
    actually outperform the single-thread batch on multi-core machines.

    The threshold is deliberately modest (1.15x, not Nx) so CI stays stable
    on shared 2-core runners; the failure mode it guards against — every
    fetch serializing on one pool-wide latch, giving cN ~= c1 — misses it
    by a wide margin. On a single-core machine real speedup is impossible,
    so only require that contention does not collapse throughput (>= 0.5x).
    """
    mt = {p["name"]: p for p in record["phases"]
          if p["name"].startswith("mt_v2v_ea_c")}
    if not mt:
        return  # Run without --concurrency; nothing to compare.
    base = mt.get("mt_v2v_ea_c1")
    scaled = [p for name, p in mt.items() if name != "mt_v2v_ea_c1"]
    if base is None or not scaled:
        fail(path, "mt_v2v_ea phases present but c1/cN pair incomplete")
    for phase in scaled:
        if base["seconds"] <= 0 or phase["seconds"] <= 0:
            fail(path, f"non-positive duration in {phase['name']!r}")
        qps_base = base["items"] / base["seconds"]
        qps = phase["items"] / phase["seconds"]
        cores = record["metrics"]["gauges"].get("bench.hardware_threads", 0)
        required = 1.15 if cores >= 2 else 0.5
        if qps < qps_base * required:
            fail(path,
                 f"{phase['name']}: {qps:.0f} qps vs c1 {qps_base:.0f} qps "
                 f"(< {required}x on a {cores}-thread machine) — "
                 "concurrent fetches are serializing")
        print(f"{path}: {phase['name']} {qps:.0f} qps vs c1 "
              f"{qps_base:.0f} qps on {cores} hardware threads")


def check_compressed_labels(path, record):
    """Gates the compressed in-memory label tier (DESIGN.md §12) on a
    bench_micro record:
      - the tier was built and actually served queries (resident bytes,
        label count and decode counters all nonzero);
      - the delta+varint buckets compress to at most half of the raw
        12-byte-per-tuple arrays.
    The paired warm v2v phases (both tiers on the compiled VM) are
    reported but not gated on time.
    """
    gauges = record["metrics"]["gauges"]
    counters = record["metrics"]["counters"]
    resident = gauges.get("ttl.labels.bytes_resident", 0)
    raw = gauges.get("ttl.labels.raw_bytes", 0)
    count = gauges.get("ttl.labels.count", 0)
    if resident <= 0 or raw <= 0 or count <= 0:
        fail(path, "compressed label tier gauges missing or zero "
                   f"(resident={resident}, raw={raw}, count={count})")
    if counters.get("ttl.labels.decodes", 0) == 0:
        fail(path, "ttl.labels.decodes is zero — the compressed tier "
                   "never served a query")
    if resident * 2 > raw:
        fail(path,
             f"compressed labels use {resident} bytes vs {raw} raw "
             f"({resident / raw:.2f}x) — the 0.5x compression gate failed")
    phases = {p["name"]: p for p in record["phases"]}
    raw_phase = phases.get("v2v_ea_warm_raw_paired")
    comp_phase = phases.get("v2v_ea_warm_compressed")
    if raw_phase is None or comp_phase is None:
        fail(path, "paired warm v2v phases (raw/compressed) missing")
    print(f"{path}: labels {resident}/{raw} bytes "
          f"({resident / raw:.2f}x raw, {resident / count:.2f} B/label), "
          f"warm v2v compressed {comp_phase['ms_per_item']:.4f} ms vs raw "
          f"{raw_phase['ms_per_item']:.4f} ms "
          f"({comp_phase['ms_per_item'] / raw_phase['ms_per_item']:.2f}x)")


def check_observability_overhead(path, record):
    """Gates the cost of always-on observability on a bench_micro record:
    the paired warm v2v phases with the query log + tail sampler disabled
    (v2v_ea_warm_obs_off) and enabled (v2v_ea_warm_obs_on) run identical
    schedules on one database, and the enabled p50 must stay within 5% of
    the disabled p50. A small absolute guard (2 microseconds) absorbs
    clock quantization on sub-50us warm queries, where a single timer
    tick would otherwise exceed 5% on its own; a real regression — say a
    lock acquisition or an allocation added to the per-query path —
    shows up far above both bounds.

    Also requires that the enabled phase actually recorded: a run where
    querylog.records stayed zero proves nothing about overhead.
    """
    phases = {p["name"]: p for p in record["phases"]}
    off = phases.get("v2v_ea_warm_obs_off")
    on = phases.get("v2v_ea_warm_obs_on")
    if off is None or on is None:
        fail(path, "paired observability phases (obs_off/obs_on) missing")
    for phase in (off, on):
        if "p50_ms" not in phase:
            fail(path, f"{phase['name']}: missing p50_ms")
        if phase["items"] == 0 or phase["p50_ms"] <= 0:
            fail(path, f"{phase['name']}: empty or zero-latency phase")
    budget = off["p50_ms"] * 1.05 + 0.002
    if on["p50_ms"] > budget:
        fail(path,
             f"observability overhead: warm v2v p50 {on['p50_ms']:.4f} ms "
             f"enabled vs {off['p50_ms']:.4f} ms disabled — exceeds the "
             "5% (+2us guard) budget")
    counters = record["metrics"]["counters"]
    if counters.get("querylog.records", 0) == 0:
        fail(path, "querylog.records is zero — the enabled phase never "
                   "recorded, so the overhead comparison is vacuous")
    print(f"{path}: observability overhead ok — warm v2v p50 "
          f"{on['p50_ms']:.4f} ms on vs {off['p50_ms']:.4f} ms off")


def check_vm_allocations(path, record):
    """Gates the compiled register VM's arena contract (DESIGN.md §13) on
    a bench_micro record: the warm VM phases are present and non-empty,
    and across their measured batches the bench's allocation probe saw
    zero heap allocations for v2v and at most 3 per kNN query (the
    materialized result vector).
    """
    phases = {p["name"]: p for p in record["phases"]}
    for name in ("v2v_ea_warm_vm", "ea_knn_warm_vm"):
        phase = phases.get(name)
        if phase is None:
            fail(path, f"warm VM phase {name} missing")
        if "p50_ms" not in phase:
            fail(path, f"{name}: missing p50_ms")
        if phase["items"] == 0 or phase["p50_ms"] <= 0:
            fail(path, f"{name}: empty or zero-latency phase")
        print(f"{path}: {name} p50 {phase['p50_ms']:.4f} ms")

    gauges = record["metrics"]["gauges"]
    queries = gauges.get("bench.vm_warm_queries", 0)
    if queries <= 0:
        fail(path, "bench.vm_warm_queries missing — allocation probe absent")
    v2v_allocs = gauges.get("bench.vm_v2v_warm_allocs", -1)
    knn_allocs = gauges.get("bench.vm_knn_warm_allocs", -1)
    if v2v_allocs != 0:
        fail(path, f"warm compiled v2v made {v2v_allocs} heap allocations "
                   f"over {queries} queries — the arena contract requires "
                   "zero")
    if knn_allocs < 0 or knn_allocs > 3 * queries:
        fail(path, f"warm compiled kNN made {knn_allocs} heap allocations "
                   f"over {queries} queries — more than the 3/query budget "
                   "for the materialized result")
    print(f"{path}: warm VM allocations ok — v2v {v2v_allocs}, "
          f"kNN {knn_allocs} over {queries} queries each")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        check_record(path)


if __name__ == "__main__":
    main()
