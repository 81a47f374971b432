#!/usr/bin/env python3
"""PTLDB flow-aware static analyzer (DESIGN.md §15).

Where scripts/ptldb_lint.py pattern-matches single lines, this analyzer
builds a small intermediate representation of every translation unit —
functions with brace-matched bodies, loops, lock-acquisition scopes, a
cross-file call graph — and runs four project-specific checks that need
that structure:

  time-width            Raw 32-bit arithmetic or narrowing on time values.
                        The compute tier is int64 (`EventTime`/`Duration`,
                        common/time_types.h); the stored tier is int32.
                        Bytes cross between them only through the checked
                        boundary functions (ToStoredTime & friends), never
                        through a bare static_cast, and a time value must
                        never accumulate in a 32-bit variable (the int32
                        generator event clock and the hour-bucket edge
                        overflow were both exactly that bug).

  checkpoint            Every outermost loop in the compiled-VM executor
                        (its bucket and naive scans) and the label-merge
                        kernels must reach a QueryContext deadline
                        checkpoint (CheckQueryCheckpoint), directly or
                        through a function it calls — otherwise a served
                        query can run past its deadline unbounded. Loops
                        whose trip count is structurally bounded carry an
                        explicit `// analyzer: bounded(<why>)` annotation.

  guard-escape          A `const Page*` obtained from a PageGuard must not
                        outlive the guard: returning it, storing it into a
                        member, or pushing it into a container recreates
                        the use-after-evict bug the guards eliminated.

  lock-order            The lock hierarchy is sets_mu_ (rank 0) -> buffer
                        pool shard latch (rank 1) -> storage device mu_
                        (rank 2). Acquisitions must descend; taking a
                        lower- or equal-ranked lock while a higher rank is
                        held — directly or through any transitive callee —
                        is a deadlock waiting for the right interleaving.

The IR comes from a self-contained microparser (comment and string
aware tokenizer + brace matching) that yields FunctionInfo records. The
compile database only widens the set of analyzed files.

Usage:
  ptldb_analyzer.py [-p build/compile_commands.json] [--check NAME ...]
                    [--list-checks] PATH [PATH ...]

Suppression: `// NOLINT` or `// NOLINT(<check>)` on the offending line.
Exit codes match ptldb_lint.py: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

CXX_EXTENSIONS = {".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx"}
SKIP_DIR_PREFIXES = ("build", "bench_cache", ".git", "results")

# ---------------------------------------------------------------------------
# Check configuration
# ---------------------------------------------------------------------------

# Files allowed to break specific checks (repo-relative path suffixes).
ALLOWLIST = {
    # The boundary functions themselves perform the checked narrowing.
    "time-width": [
        "src/common/time_types.h",
        "src/common/time_types.cc",
    ],
    # The pool constructs guards from raw frames under the shard latch.
    "guard-escape": ["src/engine/buffer_pool.h"],
}

# Paths whose loops serve queries and therefore must reach a deadline
# checkpoint (the VM executor with its fused bucket and naive scans, the
# merge kernels).
CHECKPOINT_PATHS = [
    "src/engine/vm.h",
    "src/ptldb/compiled.cc",
    "src/ptldb/label_merge.h",
]

# Functions that ARE a checkpoint (their call satisfies the requirement).
CHECKPOINT_FUNCTIONS = {"CheckQueryCheckpoint"}

# Lock ranks, matched against the MutexLock argument expression. First
# match wins; mutexes matching no pattern are leaves outside the ranked
# hierarchy (the query-log ring shards, server breaker/controller/budget
# mutexes, metrics, traces) and are not analyzed for ordering.
LOCK_RANKS = [
    (re.compile(r"\bsets_mu_\b"), 0, "sets_mu_"),
    (re.compile(r"\bshard(\.|->)mu\b"), 1, "shard latch"),
    (re.compile(r"\bdevice_mu_\b"), 2, "device mu_"),
]
# `mu_` is rank 2 only inside the storage device's own files; everywhere
# else a bare mu_ is a leaf.
DEVICE_FILES = ("src/engine/device.h", "src/engine/device.cc")
DEVICE_MU = (re.compile(r"\bmu_\b"), 2, "device mu_")

# Bounded-loop annotation: written on the loop line or the line above.
BOUNDED_RE = re.compile(r"analyzer:\s*bounded\s*\(")

# 32-bit declared types the time-width check narrows on. int64_t/long are
# the compute width and always fine.
NARROW_TYPES = {"int", "int32_t", "uint32_t", "int16_t", "uint16_t",
                "short", "StoredTime"}

# Identifier components that mark a variable as time-valued for the
# accumulator heuristic ("clock", "dep_time", "t", "arr"...).
TIME_NAME_COMPONENTS = {
    "t", "td", "ta", "dep", "arr", "time", "times", "clock", "depart",
    "departure", "arrive", "arrival", "timestamp", "deadline", "tstart",
    "tend",
}

CHECK_NAMES = ["time-width", "checkpoint", "guard-escape", "lock-order"]

CHECK_DOC = """\
PTLDB flow-aware analyzer: structural checks ptldb_lint's line patterns
cannot express (suppress one line with `// NOLINT` / `// NOLINT(<check>)`):

  time-width       static_cast of raw_seconds()/time values into 32-bit
                   integers (use the checked boundary functions in
                   common/time_types.h), 32-bit variables initialized from
                   compute-tier seconds, and 32-bit time-named accumulators
                   (the int32 event-clock overflow bug class).

  checkpoint       an outermost loop in the VM executor and its scans or
                   the merge kernels that can never reach
                   CheckQueryCheckpoint() and does not carry an
                   `// analyzer: bounded(<why>)` annotation.

  guard-escape     a `const Page*` taken out of a PageGuard that outlives
                   the guard's frame: returned, stored into a member, or
                   pushed into a container.

  lock-order       acquiring a lower- or equal-ranked lock while holding a
                   higher one, directly or through transitive callees
                   (ranks: sets_mu_=0, shard latch=1, device mu_=2).
"""


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass
class Token:
    kind: str  # 'id', 'num', 'str', 'punct'
    text: str
    line: int


TOKEN_RE = re.compile(
    r"""
      (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\.?[0-9][0-9a-fA-FxX'.uUlL+-]*)
    | (?P<punct><<=|>>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->\*?|\+\+|--|::|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%^&|~!<>=?:;,.(){}\[\]])
    """,
    re.VERBOSE,
)


def strip_comments_and_strings(text: str):
    """Returns (clean_text, nolint) where clean_text has comments and
    string/char literals blanked (newlines kept, so line numbers survive)
    and nolint maps line -> set of suppressed checks ({'*'} = all)."""
    out = []
    nolint: dict[int, set] = {}
    i = 0
    line = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comment = text[i:j]
            _record_nolint(comment, line, nolint)
            if BOUNDED_RE.search(comment):
                nolint.setdefault(line, set()).add("bounded")
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            _record_nolint(chunk, line, nolint)
            out.append(re.sub(r"[^\n]", " ", chunk))
            line += chunk.count("\n")
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            chunk = text[i:j]
            out.append(c + " " * max(0, j - i - 2) + (c if j - i >= 2 else ""))
            line += chunk.count("\n")
            i = j
        else:
            if c == "\n":
                line += 1
            out.append(c)
            i += 1
    return "".join(out), nolint


NOLINT_RE = re.compile(r"NOLINT(?:\(([^)]*)\))?")


def _record_nolint(comment: str, line: int, nolint: dict):
    m = NOLINT_RE.search(comment)
    if not m:
        return
    if m.group(1):
        for name in m.group(1).split(","):
            nolint.setdefault(line, set()).add(name.strip())
    else:
        nolint.setdefault(line, set()).add("*")


def tokenize(clean: str) -> list[Token]:
    tokens = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(clean):
        line += clean.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(), line))
    return tokens


# ---------------------------------------------------------------------------
# IR: functions, loops, lock scopes
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    keyword: str
    line: int
    body: tuple  # (start, end) token range: loop header AND body — a
                 # checkpoint-reaching call in the condition (e.g.
                 # `while (auto row = child_->Next())`) counts.
    depth: int   # 0 = outermost within its function


@dataclass
class LockScope:
    rank: int
    label: str
    line: int
    start: int  # token index of acquisition
    end: int    # token index where the scope (or explicit Unlock) ends


@dataclass
class FunctionInfo:
    name: str
    path: str
    line: int
    tokens: list  # body tokens (Token)
    loops: list = field(default_factory=list)
    locks: list = field(default_factory=list)
    calls: set = field(default_factory=set)


CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "do", "else",
                    "sizeof", "catch", "new", "delete", "case", "default",
                    "alignof", "decltype", "static_assert", "noexcept",
                    "co_return", "co_await", "co_yield", "throw"}


def match_forward(tokens, i, open_t, close_t):
    """Index just past the token matching tokens[i] (an open_t)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def extract_functions(path: str, tokens: list) -> list:
    """Brace-matching function finder: an identifier, a balanced paren
    group, optional specifiers, then `{` at top level opens a function
    body. Good enough for this codebase's clang-format style."""
    functions = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == "id" and i + 1 < n and tokens[i + 1].text == "(" \
                and tok.text not in CONTROL_KEYWORDS:
            close = match_forward(tokens, i + 1, "(", ")")
            j = close
            # Skip trailing specifiers between ')' and '{'.
            while j < n and (
                tokens[j].text in {"const", "noexcept", "override", "final",
                                   "mutable", "->", "&", "&&", "*"}
                or tokens[j].kind == "id"
                or tokens[j].text in {"::", "<", ">", ",", "(", ")", "[",
                                      "]"}
            ):
                if tokens[j].text == "(":
                    j = match_forward(tokens, j, "(", ")")
                    continue
                if tokens[j].text in {";", "{", "}"}:
                    break
                j += 1
            if j < n and tokens[j].text == "{":
                body_end = match_forward(tokens, j, "{", "}")
                name = tok.text
                if i >= 2 and tokens[i - 1].text == "::":
                    name = tokens[i - 2].text + "::" + name
                fn = FunctionInfo(name=name, path=path, line=tok.line,
                                  tokens=tokens[j:body_end])
                functions.append(fn)
                i = body_end
                continue
            i = close
            continue
        i += 1
    return functions


def analyze_function_body(fn: FunctionInfo, rel_path: str):
    """Populates loops, lock scopes and the call set from body tokens."""
    toks = fn.tokens
    n = len(toks)
    loop_depth_stack = []  # end indices of active loop bodies

    i = 0
    while i < n:
        t = toks[i]
        # Pop loops whose bodies we have left.
        while loop_depth_stack and i >= loop_depth_stack[-1]:
            loop_depth_stack.pop()

        if t.kind == "id" and t.text in {"for", "while"}:
            header_end = i + 1
            if header_end < n and toks[header_end].text == "(":
                header_end = match_forward(toks, header_end, "(", ")")
            body_end = _statement_end(toks, header_end)
            fn.loops.append(Loop(t.text, t.line, (i + 1, body_end),
                                 len(loop_depth_stack)))
            loop_depth_stack.append(body_end)
            i = header_end
            continue
        if t.kind == "id" and t.text == "do":
            body_end = _statement_end(toks, i + 1)
            fn.loops.append(Loop("do", t.line, (i + 1, body_end),
                                 len(loop_depth_stack)))
            loop_depth_stack.append(body_end)
            i += 1
            continue

        if t.kind == "id" and t.text in {"MutexLock", "ReaderMutexLock"}:
            # MutexLock <var>(<expr>);  — scope runs to the end of the
            # enclosing block, or to an explicit <var>.Unlock().
            if i + 2 < n and toks[i + 1].kind == "id" \
                    and toks[i + 2].text == "(":
                var = toks[i + 1].text
                arg_end = match_forward(toks, i + 2, "(", ")")
                arg_text = "".join(x.text for x in toks[i + 3:arg_end - 1])
                rank = _lock_rank(arg_text, rel_path)
                if rank is not None:
                    end = _enclosing_block_end(toks, i)
                    for k in range(arg_end, end):
                        if toks[k].kind == "id" and toks[k].text == var \
                                and k + 2 < n \
                                and toks[k + 1].text == "." \
                                and toks[k + 2].text == "Unlock":
                            end = k
                            break
                    fn.locks.append(LockScope(rank[0], rank[1], t.line,
                                              i, end))
                i = arg_end
                continue

        if t.kind == "id" and i + 1 < n and toks[i + 1].text == "(" \
                and t.text not in CONTROL_KEYWORDS:
            fn.calls.add(t.text)
        i += 1


def _statement_end(toks, i):
    """End (exclusive) of the statement starting at token i: a balanced
    brace block, or everything up to the next top-level ';'."""
    n = len(toks)
    while i < n and toks[i].text not in {"{", ";"}:
        if toks[i].text == "(":
            i = match_forward(toks, i, "(", ")")
            continue
        i += 1
    if i < n and toks[i].text == "{":
        return match_forward(toks, i, "{", "}")
    return min(i + 1, n)


def _enclosing_block_end(toks, i):
    """End of the innermost brace block containing token i."""
    depth = 0
    j = i
    n = len(toks)
    while j < n:
        t = toks[j].text
        if t == "{":
            depth += 1
        elif t == "}":
            if depth == 0:
                return j
            depth -= 1
        j += 1
    return n


def _lock_rank(arg_text: str, rel_path: str):
    for pattern, rank, label in LOCK_RANKS:
        if pattern.search(arg_text):
            return rank, label
    if rel_path.endswith(DEVICE_FILES) and DEVICE_MU[0].search(arg_text):
        return DEVICE_MU[1], DEVICE_MU[2]
    return None


# ---------------------------------------------------------------------------
# IR construction
# ---------------------------------------------------------------------------

def build_ir(path: str, rel: str):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    clean, nolint = strip_comments_and_strings(text)
    tokens = tokenize(clean)
    functions = extract_functions(path, tokens)
    for fn in functions:
        analyze_function_body(fn, rel)
    return functions, nolint, text


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def is_time_name(name: str) -> bool:
    parts = [p for p in re.split(r"[_\d]+", name.lower()) if p]
    return any(p in TIME_NAME_COMPONENTS for p in parts)


def check_time_width(fn: FunctionInfo, findings, rel):
    toks = fn.tokens
    n = len(toks)
    narrow_time_vars = {}  # name -> decl line (32-bit, time-named)
    i = 0
    while i < n:
        t = toks[i]
        # static_cast<NARROW>(... raw_seconds ...)
        if t.kind == "id" and t.text == "static_cast" and i + 1 < n \
                and toks[i + 1].text == "<":
            close = i + 2
            while close < n and toks[close].text != ">":
                close += 1
            target = " ".join(x.text for x in toks[i + 2:close])
            if close + 1 < n and toks[close + 1].text == "(" \
                    and target.split()[-1] in NARROW_TYPES:
                arg_end = match_forward(toks, close + 1, "(", ")")
                arg = toks[close + 2:arg_end - 1]
                if any(a.text == "raw_seconds" for a in arg):
                    findings.append(Finding(
                        rel, t.line, "time-width",
                        f"static_cast<{target}> of a compute-tier "
                        "raw_seconds() value; narrow through "
                        "ToStoredTime/SaturatingToStoredTime/"
                        "CheckedBucketOf instead"))
                i = arg_end
                continue

        # NARROW <name> = <expr containing raw_seconds()>;
        if t.kind == "id" and t.text in NARROW_TYPES and i + 1 < n \
                and toks[i + 1].kind == "id":
            name_tok = toks[i + 1]
            j = i + 2
            if j < n and toks[j].text == "=":
                end = j
                while end < n and toks[end].text != ";":
                    end += 1
                init = toks[j + 1:end]
                if any(x.text == "raw_seconds" for x in init):
                    findings.append(Finding(
                        rel, name_tok.line, "time-width",
                        f"32-bit variable '{name_tok.text}' initialized "
                        "from compute-tier seconds; keep time arithmetic "
                        "in int64 (EventTime/Duration) and narrow only "
                        "through the checked boundary functions"))
                    i = end
                    continue
            if is_time_name(name_tok.text):
                narrow_time_vars[name_tok.text] = name_tok.line
        i += 1

    # Accumulation into a 32-bit time-named variable: the event-clock /
    # bucket-edge overflow shape (`int32 clock; ... clock += headway;`).
    for name, decl_line in narrow_time_vars.items():
        for i in range(len(toks)):
            if toks[i].kind != "id" or toks[i].text != name:
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            accumulate = nxt in {"+=", "-=", "*=", "++", "--"}
            if not accumulate and nxt == "=" and i + 3 < len(toks) \
                    and toks[i + 2].text == name \
                    and toks[i + 3].text in {"+", "-", "*"}:
                accumulate = True
            if accumulate:
                findings.append(Finding(
                    rel, toks[i].line, "time-width",
                    f"32-bit time accumulator '{name}' (declared line "
                    f"{decl_line}): this is the int32 event-clock "
                    "overflow bug class; use EventTime/Duration"))
                break


def build_checkpoint_summary(functions_by_name: dict) -> dict:
    """name -> True if calling the function reaches a checkpoint."""
    summary = {}

    def reaches(name, stack):
        if name in CHECKPOINT_FUNCTIONS:
            return True
        if name in summary:
            return summary[name]
        if name in stack or name not in functions_by_name:
            return False
        stack.add(name)
        result = any(
            reaches(callee, stack)
            for fn in functions_by_name[name]
            for callee in fn.calls
        )
        stack.discard(name)
        summary[name] = result
        return result

    for name in functions_by_name:
        reaches(name, set())
    return summary


def check_checkpoint(fn: FunctionInfo, findings, rel, summary, nolint):
    for loop in fn.loops:
        if loop.depth != 0:
            continue  # Inner loops are covered by their outermost loop.
        body = fn.tokens[loop.body[0]:loop.body[1]]
        ok = False
        for i, t in enumerate(body):
            if t.kind != "id":
                continue
            if t.text in CHECKPOINT_FUNCTIONS:
                ok = True
                break
            if i + 1 < len(body) and body[i + 1].text == "(" \
                    and summary.get(t.text, False):
                ok = True
                break
        if ok:
            continue
        if "bounded" in nolint.get(loop.line, set()) \
                or "bounded" in nolint.get(loop.line - 1, set()):
            continue
        findings.append(Finding(
            rel, loop.line, "checkpoint",
            f"outermost {loop.keyword}-loop in {fn.name}() never reaches "
            "a QueryContext deadline checkpoint; call "
            "CheckQueryCheckpoint() in the loop (or annotate a "
            "structurally bounded loop with `// analyzer: bounded(<why>)`)"))


def check_guard_escape(fn: FunctionInfo, findings, rel):
    toks = fn.tokens
    n = len(toks)
    guard_vars = set()
    page_ptrs = {}  # var name -> line, derived from a guard in this frame
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "PageGuard" and i + 1 < n \
                and toks[i + 1].kind == "id":
            guard_vars.add(toks[i + 1].text)

    i = 0
    while i < n:
        t = toks[i]
        # <v> = <guard>.get() / auto* v = guard.get() / const Page* v = ...
        if t.kind == "id" and t.text in guard_vars and i + 2 < n \
                and toks[i + 1].text == "." and toks[i + 2].text == "get":
            # Find the variable this expression binds to (scan backwards
            # over `=` to the preceding identifier).
            j = i - 1
            if j >= 0 and toks[j].text == "=" and j >= 1 \
                    and toks[j - 1].kind == "id":
                page_ptrs[toks[j - 1].text] = t.line
            # return guard.get();  — escapes the frame with the pin dying.
            if j >= 0 and toks[j].text == "return":
                findings.append(Finding(
                    rel, t.line, "guard-escape",
                    f"returning {t.text}.get(): the raw Page* outlives "
                    "the PageGuard pin; return the PageGuard itself"))
            i += 3
            continue
        i += 1

    for name, line in page_ptrs.items():
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text != name:
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            if prev == "return":
                findings.append(Finding(
                    rel, t.line, "guard-escape",
                    f"returning '{name}' (a Page* obtained from a "
                    "PageGuard at line {0}); the pin dies with the "
                    "frame".format(line)))
                break
            if nxt == "=" or (prev == "=" and i >= 2
                              and toks[i - 2].kind == "id"
                              and toks[i - 2].text.endswith("_")):
                if prev == "=" and toks[i - 2].text.endswith("_"):
                    findings.append(Finding(
                        rel, t.line, "guard-escape",
                        f"storing '{name}' (a Page* from a PageGuard) "
                        "into a member: the object outlives the pin"))
                    break
            if prev == "(" and i >= 2 and toks[i - 2].kind == "id" \
                    and toks[i - 2].text in {"push_back", "emplace_back",
                                             "insert", "emplace"}:
                findings.append(Finding(
                    rel, t.line, "guard-escape",
                    f"storing '{name}' (a Page* from a PageGuard) into a "
                    "container: the container outlives the pin"))
                break


def build_lock_summary(functions_by_name: dict) -> dict:
    """name -> set of ranks the function may acquire (transitively)."""
    summary = {}

    def ranks(name, stack):
        if name in summary:
            return summary[name]
        if name in stack or name not in functions_by_name:
            return set()
        stack.add(name)
        acquired = set()
        for fn in functions_by_name[name]:
            acquired |= {lock.rank for lock in fn.locks}
            for callee in fn.calls:
                acquired |= ranks(callee, stack)
        stack.discard(name)
        summary[name] = acquired
        return acquired

    for name in functions_by_name:
        ranks(name, set())
    return summary


def check_lock_order(fn: FunctionInfo, findings, rel, summary):
    toks = fn.tokens
    for lock in fn.locks:
        held = lock.rank
        i = lock.start + 3
        while i < lock.end:
            t = toks[i]
            if t.kind == "id" and t.text in {"MutexLock", "ReaderMutexLock"} \
                    and i + 2 < len(toks) and toks[i + 2].text == "(":
                arg_end = match_forward(toks, i + 2, "(", ")")
                arg = "".join(x.text for x in toks[i + 3:arg_end - 1])
                rank = _lock_rank(arg, rel)
                if rank is not None and rank[0] <= held:
                    findings.append(Finding(
                        rel, t.line, "lock-order",
                        f"acquiring {rank[1]} (rank {rank[0]}) while "
                        f"holding {lock.label} (rank {held}); the "
                        "hierarchy descends sets_mu_ -> shard latch -> "
                        "device mu_"))
                i = arg_end
                continue
            if t.kind == "id" and i + 1 < len(toks) \
                    and toks[i + 1].text == "(" \
                    and t.text not in CONTROL_KEYWORDS:
                callee_ranks = summary.get(t.text, set())
                bad = {r for r in callee_ranks if r <= held}
                if bad:
                    findings.append(Finding(
                        rel, t.line, "lock-order",
                        f"call to {t.text}() while holding {lock.label} "
                        f"(rank {held}): callee may acquire rank "
                        f"{min(bad)} — the hierarchy descends "
                        "sets_mu_ -> shard latch -> device mu_"))
            i += 1


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def allowed(check: str, rel_path: str) -> bool:
    return any(rel_path.endswith(suffix)
               for suffix in ALLOWLIST.get(check, []))


def collect_files(paths, compile_db):
    files = []
    seen = set()

    def add(path):
        real = os.path.realpath(path)
        if real in seen:
            return
        seen.add(real)
        files.append(path)

    for path in paths:
        if os.path.isfile(path):
            add(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(SKIP_DIR_PREFIXES))
                for name in sorted(names):
                    if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                        add(os.path.join(root, name))
        else:
            print(f"ptldb_analyzer: no such file or directory: {path}",
                  file=sys.stderr)
            sys.exit(2)
    # The compile database widens the universe (e.g. generated TUs), but
    # only to files under an analyzed root.
    roots = [os.path.realpath(p) for p in paths if os.path.isdir(p)]
    for entry in compile_db:
        src = entry.get("file", "")
        if not os.path.isabs(src):
            src = os.path.join(entry.get("directory", ""), src)
        real = os.path.realpath(src)
        if any(real.startswith(r + os.sep) for r in roots) \
                and os.path.isfile(real):
            add(real)
    return files


def analyze_paths(paths, checks=None, compile_db=None):
    """Runs the selected checks over `paths`; returns (findings, n_files).
    This is the whole analysis minus argv handling and printing, so the
    selftest drives it directly on fixture trees."""
    checks = checks or CHECK_NAMES
    compile_db = compile_db or []
    files = collect_files(paths, compile_db)
    repo_root = os.getcwd()

    # Pass 1: build the IR for every file (needed before any flow check —
    # the call graph crosses files).
    per_file = []  # (rel, functions, nolint)
    functions_by_name: dict[str, list] = {}
    for path in files:
        rel = os.path.relpath(path, repo_root)
        functions, nolint, _ = build_ir(path, rel)
        per_file.append((rel, functions, nolint))
        for fn in functions:
            functions_by_name.setdefault(fn.name.split("::")[-1],
                                         []).append(fn)

    checkpoint_summary = build_checkpoint_summary(functions_by_name)
    lock_summary = build_lock_summary(functions_by_name)

    findings = []
    for rel, functions, nolint in per_file:
        file_findings = []
        for fn in functions:
            if "time-width" in checks and not allowed("time-width", rel):
                check_time_width(fn, file_findings, rel)
            if "checkpoint" in checks \
                    and any(rel.endswith(p) for p in CHECKPOINT_PATHS):
                check_checkpoint(fn, file_findings, rel,
                                 checkpoint_summary, nolint)
            if "guard-escape" in checks \
                    and not allowed("guard-escape", rel):
                check_guard_escape(fn, file_findings, rel)
            if "lock-order" in checks and not allowed("lock-order", rel):
                check_lock_order(fn, file_findings, rel, lock_summary)
        for f in file_findings:
            suppressed = nolint.get(f.line, set())
            if "*" in suppressed or f.check in suppressed:
                continue
            findings.append(f)

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings, len(files)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="ptldb_analyzer",
        usage="%(prog)s [-p COMPILE_DB] [--check NAME ...] PATH [PATH ...]",
        add_help=True)
    parser.add_argument("-p", "--compile-db", default=None,
                        help="compile_commands.json (or its directory)")
    parser.add_argument("--check", action="append", choices=CHECK_NAMES,
                        help="run only the named check(s)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)

    if args.list_checks:
        print(CHECK_DOC, end="")
        return 0
    if not args.paths:
        print(CHECK_DOC, file=sys.stderr)
        return 2

    compile_db = []
    if args.compile_db:
        db_path = args.compile_db
        if os.path.isdir(db_path):
            db_path = os.path.join(db_path, "compile_commands.json")
        if not os.path.isfile(db_path):
            print(f"ptldb_analyzer: no compile database at {db_path}",
                  file=sys.stderr)
            return 2
        with open(db_path, encoding="utf-8") as f:
            compile_db = json.load(f)

    findings, n_files = analyze_paths(
        args.paths, checks=args.check, compile_db=compile_db)
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
    print(f"ptldb_analyzer: {len(findings)} finding(s) in {n_files} file(s)",
          file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
