#!/usr/bin/env python3
"""Unit tests for scripts/ptldb_lint.py.

The linter is part of the project's static-analysis gate, so regressions in
its rules are caught here like code regressions. Run directly or via ctest
(`lint_selftest`); plain stdlib unittest, no third-party deps.
"""

import importlib.util
import os
import sys
import tempfile
import unittest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_LINT_PATH = os.path.join(_REPO_ROOT, "scripts", "ptldb_lint.py")

_spec = importlib.util.spec_from_file_location("ptldb_lint", _LINT_PATH)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def run_on(source, rel_path="src/engine/something.cc"):
    """Lints `source` as if it lived at `rel_path`; returns rule-id list."""
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cc", delete=False) as f:
        f.write(source)
        path = f.name
    try:
        return [rule for (_, _, rule, _) in lint.lint_file(path, rel_path)]
    finally:
        os.unlink(path)


class StripTest(unittest.TestCase):
    def test_line_comment_blanked(self):
        out = lint.strip_comments_and_strings("int x;  // std::mutex here\n")
        self.assertNotIn("mutex", out)
        self.assertIn("int x;", out)

    def test_block_comment_preserves_newlines(self):
        src = "a\n/* std::mutex\n(void)f() */\nb\n"
        out = lint.strip_comments_and_strings(src)
        self.assertEqual(src.count("\n"), out.count("\n"))
        self.assertNotIn("mutex", out)
        self.assertNotIn("void", out)

    def test_string_literal_blanked(self):
        out = lint.strip_comments_and_strings(
            'Log("acquire std::mutex (void)x");\n')
        self.assertNotIn("mutex", out)
        self.assertIn("Log(", out)

    def test_escaped_quote_inside_string(self):
        out = lint.strip_comments_and_strings('s = "a\\"b std::mutex";\nint y;')
        self.assertNotIn("mutex", out)
        self.assertIn("int y;", out)


class VoidCastTest(unittest.TestCase):
    def test_c_style_void_cast_flagged(self):
        self.assertIn("void-cast-status", run_on("(void)db->Flush();\n"))

    def test_static_cast_void_flagged(self):
        self.assertIn("void-cast-status",
                      run_on("static_cast<void>(pool.Fetch(3));\n"))

    def test_ignore_macro_not_flagged(self):
        self.assertEqual([], run_on("PTLDB_IGNORE_STATUS(db->Flush());\n"))

    def test_void_return_type_not_flagged(self):
        self.assertEqual([], run_on("void Reset();\nvoid F() { Reset(); }\n"))

    def test_status_h_allowlisted(self):
        self.assertEqual([], run_on("static_cast<void>(_ptldb_ignored);\n",
                                    rel_path="src/common/status.h"))


class NakedMutexTest(unittest.TestCase):
    def test_std_mutex_member_flagged(self):
        self.assertIn("naked-mutex", run_on("std::mutex mu_;\n"))

    def test_lock_guard_flagged(self):
        self.assertIn("naked-mutex",
                      run_on("std::lock_guard<std::mutex> l(mu_);\n"))

    def test_unique_lock_and_cv_flagged(self):
        rules = run_on("std::unique_lock<std::mutex> l(m);\n"
                       "std::condition_variable cv;\n")
        self.assertEqual(rules.count("naked-mutex"), 2)

    def test_shared_mutex_flagged(self):
        self.assertIn("naked-mutex", run_on("std::shared_mutex rw_;\n"))

    def test_wrapper_types_allowed(self):
        self.assertEqual([], run_on("Mutex mu_;\nMutexLock lock(mu_);\n"
                                    "CondVar cv_;\n"))

    def test_annotations_header_allowlisted(self):
        self.assertEqual([], run_on(
            "std::mutex mu_;\nstd::condition_variable cv_;\n",
            rel_path="src/common/thread_annotations.h"))

    def test_mutex_in_comment_ignored(self):
        self.assertEqual([], run_on("// wraps a std::mutex internally\n"))


class PagePointerTest(unittest.TestCase):
    def test_raw_const_page_ptr_flagged(self):
        self.assertIn("page-pointer-escape",
                      run_on("const Page* cached = guard.page();\n"))

    def test_east_const_flagged(self):
        self.assertIn("page-pointer-escape",
                      run_on("Page const* cached = guard.page();\n"))

    def test_buffer_pool_allowlisted(self):
        self.assertEqual([], run_on("const Page* page = &frame.page;\n",
                                    rel_path="src/engine/buffer_pool.h"))

    def test_page_guard_by_value_allowed(self):
        self.assertEqual([], run_on("PageGuard guard = *std::move(r);\n"))

    def test_other_pointer_types_allowed(self):
        self.assertEqual([], run_on("const PageId* ids = data();\n"
                                    "const Pager* pager = &pager_;\n"))


class NondeterminismTest(unittest.TestCase):
    TTL = "src/ttl/builder.cc"

    def test_random_device_in_ttl_flagged(self):
        self.assertIn("ttl-nondeterminism",
                      run_on("std::random_device rd;\n", rel_path=self.TTL))

    def test_rand_and_time_flagged(self):
        rules = run_on("int r = rand();\nauto t = time(nullptr);\n",
                       rel_path=self.TTL)
        self.assertEqual(rules.count("ttl-nondeterminism"), 2)

    def test_system_clock_flagged(self):
        self.assertIn("ttl-nondeterminism",
                      run_on("auto t = std::chrono::system_clock::now();\n",
                             rel_path=self.TTL))

    def test_steady_clock_allowed(self):
        # Monotonic timing feeds progress stats, not label content.
        self.assertEqual(
            [], run_on("auto t = std::chrono::steady_clock::now();\n",
                       rel_path=self.TTL))

    def test_seeded_rng_allowed(self):
        self.assertEqual([], run_on("Rng rng(options.seed);\n",
                                    rel_path=self.TTL))

    def test_rule_scoped_to_ttl_paths(self):
        self.assertEqual([], run_on("std::random_device rd;\n",
                                    rel_path="src/common/rng_tool.cc"))


class UnboundedWaitTest(unittest.TestCase):
    SERVER = "src/server/server.cc"

    def test_unbounded_condvar_wait_flagged(self):
        self.assertIn("unbounded-wait",
                      run_on("cv_.Wait(lock);\n", rel_path=self.SERVER))

    def test_pointer_wait_flagged(self):
        self.assertIn("unbounded-wait",
                      run_on("pool->Wait();\n", rel_path=self.SERVER))

    def test_bounded_waits_allowed(self):
        self.assertEqual([], run_on(
            "while (!done) {\n"
            "  cv_.WaitFor(lock, std::chrono::milliseconds(50));\n"
            "}\n"
            "cv_.WaitUntil(lock, deadline);\n",
            rel_path=self.SERVER))

    def test_std_future_flagged(self):
        rules = run_on("std::future<int> f = p.get_future();\n"
                       "std::promise<int> p;\n", rel_path=self.SERVER)
        self.assertEqual(rules.count("unbounded-wait"), 2)

    def test_executor_path_in_scope(self):
        self.assertIn("unbounded-wait",
                      run_on("cv_.Wait(lock);\n",
                             rel_path="src/ptldb/compiled.cc"))

    def test_rule_scoped_to_request_paths(self):
        # ThreadPool::Wait in the pool's own implementation (build-side
        # barrier, not the serving path) stays legal.
        self.assertEqual([], run_on("pool.Wait();\n",
                                    rel_path="src/common/thread_pool.cc"))

    def test_wait_in_comment_ignored(self):
        self.assertEqual([], run_on("// CondVar::Wait would wedge here\n",
                                    rel_path=self.SERVER))


class RawDiagnosticTest(unittest.TestCase):
    def test_fprintf_stderr_flagged(self):
        self.assertIn("raw-diagnostic",
                      run_on('fprintf(stderr, "boom %d\\n", rc);\n'))

    def test_std_cerr_flagged(self):
        self.assertIn("raw-diagnostic",
                      run_on('std::cerr << "warning" << std::endl;\n'))

    def test_std_cout_and_printf_flagged(self):
        rules = run_on('std::cout << n;\nprintf("%d\\n", n);\n')
        self.assertEqual(rules.count("raw-diagnostic"), 2)

    def test_perror_and_puts_flagged(self):
        rules = run_on('perror("open");\nputs("done");\n')
        self.assertEqual(rules.count("raw-diagnostic"), 2)

    def test_snprintf_formatting_allowed(self):
        # Buffer formatting is not console output.
        self.assertEqual([], run_on(
            'std::snprintf(buf, sizeof(buf), "%02d:%02d", h, m);\n'
            "vsnprintf(buf, n, fmt, ap);\n"))

    def test_cerr_in_comment_or_string_ignored(self):
        self.assertEqual([], run_on(
            "// never std::cerr in library code\n"
            'Log("printf-style: %s");\n'))

    def test_nolint_suppresses(self):
        self.assertEqual([], run_on(
            "std::cerr << x;  // NOLINT(raw-diagnostic)\n"))


class VmHotPathAllocTest(unittest.TestCase):
    VM = "src/ptldb/compiled.cc"

    def test_naked_new_flagged(self):
        self.assertIn("vm-hot-path-alloc",
                      run_on("auto* s = new VmState();\n", rel_path=self.VM))

    def test_make_unique_flagged(self):
        self.assertIn("vm-hot-path-alloc",
                      run_on("auto p = std::make_unique<VmState>();\n",
                             rel_path=self.VM))

    def test_container_growth_flagged(self):
        rules = run_on("rows.push_back(row);\n"
                       "heap.emplace_back(stop, time);\n"
                       "buf.resize(n);\n"
                       "scratch.reserve(n);\n"
                       "table->emplace(key, value);\n", rel_path=self.VM)
        self.assertEqual(rules.count("vm-hot-path-alloc"), 5)

    def test_arena_idioms_allowed(self):
        # The sanctioned spellings: arena carving and ArenaVector's
        # deliberately capitalized PushBack.
        self.assertEqual([], run_on(
            "ArenaVector<StopTimeResult> staged(&arena);\n"
            "staged.PushBack({stop, time});\n"
            "auto* buf = arena.AllocateArray<int32_t>(n);\n",
            rel_path=self.VM))

    def test_rule_scoped_to_vm_files(self):
        # The same allocation is fine outside the VM hot path.
        self.assertEqual([], run_on("rows.push_back(row);\n",
                                    rel_path="src/sql/interpreter.cc"))
        self.assertEqual([], run_on("rows.push_back(row);\n",
                                    rel_path="src/engine/arena.h"))

    def test_vm_header_in_scope(self):
        self.assertIn("vm-hot-path-alloc",
                      run_on("code.reserve(kMaxCode);\n",
                             rel_path="src/engine/vm.h"))

    def test_new_in_comment_ignored(self):
        self.assertEqual([], run_on("// a new program per query type\n",
                                    rel_path=self.VM))


class ValueOnTemporaryTest(unittest.TestCase):
    def test_chained_value_flagged(self):
        self.assertIn("value-on-temporary",
                      run_on("auto g = pool.Fetch(id).value();\n"))

    def test_move_unwrap_allowed(self):
        self.assertEqual([], run_on("auto g = std::move(result).value();\n"))

    def test_bare_move_unwrap_allowed(self):
        self.assertEqual([], run_on("auto g = move(result).value();\n"))

    def test_multiline_chain_flagged(self):
        # Open paren on an earlier line: conservatively flagged.
        self.assertIn("value-on-temporary",
                      run_on("auto g = pool.Fetch(\n    id).value();\n"))

    def test_named_value_call_allowed(self):
        # `.value()` on a named lvalue has no preceding ')': not this rule.
        self.assertEqual([], run_on("auto g = std::move(checked.value());\n"
                                    "auto v = result.value();\n"))


class NolintTest(unittest.TestCase):
    def test_bare_nolint_suppresses(self):
        self.assertEqual([], run_on("std::mutex mu_;  // NOLINT\n"))

    def test_named_nolint_suppresses_matching_rule(self):
        self.assertEqual([], run_on(
            "std::mutex mu_;  // NOLINT(naked-mutex)\n"))

    def test_named_nolint_ignores_other_rules(self):
        self.assertIn("naked-mutex", run_on(
            "std::mutex mu_;  // NOLINT(void-cast-status)\n"))

    def test_nolint_list(self):
        self.assertEqual([], run_on(
            "std::mutex mu_;  // NOLINT(void-cast-status, naked-mutex)\n"))


class CliTest(unittest.TestCase):
    def test_clean_tree_exits_zero(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "ok.cc"), "w") as f:
                f.write("int main() { return 0; }\n")
            self.assertEqual(0, lint.main(["ptldb_lint.py", d]))

    def test_findings_exit_one(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "bad.cc"), "w") as f:
                f.write("std::mutex mu_;\n")
            self.assertEqual(1, lint.main(["ptldb_lint.py", d]))

    def test_build_dirs_skipped(self):
        with tempfile.TemporaryDirectory() as d:
            bad_dir = os.path.join(d, "build-asan")
            os.makedirs(bad_dir)
            with open(os.path.join(bad_dir, "bad.cc"), "w") as f:
                f.write("std::mutex mu_;\n")
            self.assertEqual(0, lint.main(["ptldb_lint.py", d]))

    def test_missing_path_exits_two(self):
        with self.assertRaises(SystemExit) as ctx:
            list(lint.iter_sources([os.path.join(os.sep, "no", "such", "x")]))
        self.assertEqual(2, ctx.exception.code)

    def test_no_args_usage_error(self):
        self.assertEqual(2, lint.main(["ptldb_lint.py"]))

    def test_src_tree_is_clean(self):
        """The real tree must satisfy its own lint gate."""
        src = os.path.join(_REPO_ROOT, "src")
        self.assertEqual(0, lint.main(["ptldb_lint.py", src]))


if __name__ == "__main__":
    sys.stdout = sys.stderr  # unittest writes to stderr; keep ctest logs tidy
    unittest.main(verbosity=2)
