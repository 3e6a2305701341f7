#!/usr/bin/env python3
"""Custom repo lint for rules clang-tidy cannot express.

Enforced on src/ (and partially on tests/ and bench/, see each rule):

  R1  no C rand()/srand(): all randomness goes through v2v::Rng
  R2  no <random> engine construction (std::mt19937, std::random_device,
      ...): unseeded or platform-seeded RNGs break the one-seed
      reproducibility contract
  R3  no naked `new` / `delete`: containers or unique_ptr own everything
  R4  no std::endl: it flushes, which is catastrophic inside hot loops;
      use '\\n'
  R5  include hygiene: headers start with #pragma once; a .cpp includes its
      own header first (catches headers that do not compile standalone);
      never include <bits/...>
  R6  every src/v2v/<module>/<name>.cpp has its header referenced by some
      test in tests/ (no untested translation units land silently)
  R7  no hand-rolled elementwise loops over embedding rows in
      src/v2v/embed/, src/v2v/ml/, src/v2v/store/ and src/v2v/index/: row
      arithmetic goes through the dispatched SIMD layer in
      common/kernels.hpp so every call site gets the ISA variants, the
      TSan-safe path, and the parity tests for free
  R8  no brute-force similarity scans over an Embedding outside
      src/v2v/index/: a loop bounded by vertex_count() whose body computes
      per-row distances duplicates FlatIndex. Route the query through
      v2v/index (FlatIndex / QueryEngine / embedding_queries) so it picks
      up precomputed norms, serving metrics, and ANN acceleration
  R9  no raw point-vs-centroid argmin loops outside ml/kmeans.cpp and the
      kernel layer: a loop that computes kernel distances against centroid
      rows while tracking a running best re-implements the k-means
      assignment step without norm caching, triangle-inequality pruning,
      or the oracle's tie-breaking. Call ml::assign_to_centroids (or run
      ml::kmeans) instead
  R10 no raw std::mutex / std::lock_guard / std::condition_variable (and
      friends) in src/ outside common/sync.hpp|cpp: locking goes through
      v2v::Mutex / v2v::LockGuard / v2v::UniqueLock / v2v::CondVar so
      every lock carries capability annotations (Clang -Wthread-safety)
      and a lockdep rank (runtime lock-order validation in checked
      builds). A raw primitive is invisible to both layers
  R11 no direct GraphBuilder use in src/ outside src/v2v/graph/ and
      src/v2v/dynamic/: every other layer consumes a finished CSR Graph
      or mutates through dynamic::DynamicGraph. A stray builder bypasses
      the dynamic layer's insertion-order record, which is what makes
      compaction bit-identical to a fresh build. Tests and benches are
      exempt (they construct fixtures and oracles by design)
  R12 no whole-corpus materialization in src/v2v/embed/: declaring a
      by-value walk::Corpus or calling generate_corpus() inside the
      trainer pulls the full token stream into RAM and silently defeats
      the out-of-core streamed corpus. The trainer consumes walks through
      the walk::CorpusReader interface (the RAM walk::Corpus, itself a
      CorpusReader, or walk::StreamedCorpus); `const Corpus&` parameters
      stay legal (they borrow, they do not materialize)

Usage: tools/lint.py [--root REPO_ROOT]
Exit code 0 = clean, 1 = findings (printed one per line as
path:line: rule: message).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Translation units intentionally exempt from R6 (e.g. pulled in indirectly
# and covered through higher-level suites). Keep this list short and
# justified.
TEST_REF_ALLOWLIST: set[str] = set()

# Files exempt from R7. Keep this list short and justified.
ELEMENTWISE_ALLOWLIST: set[str] = {
    # The kernel layer itself: the scalar reference and the per-ISA SIMD
    # variants are exactly where elementwise loops are supposed to live.
    "src/v2v/common/kernels.hpp",
    "src/v2v/common/kernels.cpp",
    # t-SNE's gradient integrator updates gains/velocity/embedding in one
    # fused pass over 2-D double state; the float row kernels do not apply.
    "src/v2v/ml/tsne.cpp",
    # The k-means engine's row arithmetic already goes through the kernel
    # layer; what trips the rule is O(k) scalar bound maintenance
    # (half_gap/drift updates), which is not row work.
    "src/v2v/ml/kmeans.cpp",
}

# Directories whose row arithmetic must go through common/kernels.hpp (R7),
# plus the kernel layer itself so the allowlist stays honest.
ELEMENTWISE_SCOPES = ("src/v2v/embed/", "src/v2v/ml/", "src/v2v/store/",
                      "src/v2v/index/", "src/v2v/common/kernels")

# Files exempt from R8 (embedding-scan ban). Keep short and justified.
EMBEDDING_SCAN_ALLOWLIST: set[str] = {
    # The trainer IS the producer: its epoch loop walks every row by design.
    "src/v2v/embed/trainer.cpp",
}

ENGINE_RE = re.compile(
    r"std::(mt19937(_64)?|minstd_rand0?|default_random_engine|random_device|"
    r"ranlux\w+|knuth_b)\b")
C_RAND_RE = re.compile(r"(?<![\w:.])s?rand\s*\(")
NAKED_NEW_RE = re.compile(r"(?<![\w_])new\s+[A-Za-z_:(]")
NAKED_DELETE_RE = re.compile(r"(?<![\w_])delete(\[\])?\s+[A-Za-z_(*]")
ENDL_RE = re.compile(r"std::endl\b")
BITS_INCLUDE_RE = re.compile(r'#\s*include\s*<bits/')
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
# R7: an indexed compound update (y[i] += ...x[i]...) or an indexed
# assignment that re-reads the same element with arithmetic on the right
# (y[i] = y[i] * s + ...). Both are the shape of a hand-unrolled axpy /
# scale / add over a row.
COMPOUND_UPDATE_RE = re.compile(r"\[\s*(\w+)\s*\]\s*[+\-*/]=\s*(?P<rhs>[^;]*)")
INDEXED_ASSIGN_RE = re.compile(
    r"(?P<arr>\w[\w.]*)\s*\[\s*(?P<idx>\w+)\s*\]\s*=(?!=)(?P<rhs>[^;]*)")
# R8: a for-loop bounded by vertex_count() whose body computes per-row
# distances is a brute-force nearest-neighbor scan.
VERTEX_LOOP_RE = re.compile(r"\bfor\s*\(.*vertex_count\s*\(\s*\)")
DISTANCE_CALL_RE = re.compile(
    r"\b(cosine_distance|squared_distance|cosine_similarity)\s*\(|"
    r"\bkernels::(ddot|sqdist)\s*\(")
# R9: a kernel distance whose arguments reference a centroid row...
CENTROID_DIST_RE = re.compile(
    r"\b(?:kernels::)?sqdist(?:_fd|_dd)?\s*\([^;]*centroid", re.IGNORECASE)
# ...combined with a running-best update in the same loop is a hand-rolled
# k-means assignment step. (Collect-then-sort rankings, like the IVF
# coarse probe, keep no running best and are not flagged.)
BEST_TRACK_RE = re.compile(r"\b(best|nearest|closest|min_d)\w*\s*=[^=]|argmin",
                           re.IGNORECASE)
FOR_LOOP_RE = re.compile(r"\bfor\s*\(")

# Files exempt from R9: the engine itself and the kernel layer.
CENTROID_SCAN_ALLOWLIST: set[str] = {
    "src/v2v/ml/kmeans.cpp",
    "src/v2v/common/kernels.hpp",
    "src/v2v/common/kernels.cpp",
}

# R10: raw standard sync primitives. std::atomic stays legal everywhere
# (the relaxed.hpp idiom builds on it); everything that blocks must wear
# the annotated wrappers.
RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"condition_variable|condition_variable_any)\b")

# Files exempt from R10: the sync layer itself (it wraps the primitives)
# and the lock-free helpers that never block.
RAW_SYNC_ALLOWLIST: set[str] = {
    "src/v2v/common/sync.hpp",
    "src/v2v/common/sync.cpp",
    "src/v2v/common/relaxed.hpp",
}

# R11: direct CSR construction. Only the graph layer (the builder's home)
# and the dynamic layer (whose record replay feeds it) may name it.
GRAPH_BUILDER_RE = re.compile(r"\bGraphBuilder\b")
GRAPH_BUILDER_SCOPES = ("src/v2v/graph/", "src/v2v/dynamic/")

# Files exempt from R11. Keep short and justified.
GRAPH_BUILDER_ALLOWLIST: set[str] = set()

# R12: a by-value Corpus declaration (`Corpus tmp` / `walk::Corpus out` —
# no & or *, so `const Corpus&` parameters stay legal) or a
# generate_corpus() call inside the embed layer materializes the whole
# token stream in RAM. generate_corpus_node2vec does not match (the \(
# anchor sits right after the name), and neither do StreamedCorpus (\b
# fails mid-identifier) nor CorpusReader/CorpusDriver (no whitespace
# right after "Corpus").
CORPUS_MATERIALIZE_RE = re.compile(
    r"\bCorpus\s+[A-Za-z_]|\bgenerate_corpus\s*\(")
CORPUS_MATERIALIZE_SCOPE = "src/v2v/embed/"

# Files exempt from R12. Keep short and justified.
CORPUS_MATERIALIZE_ALLOWLIST: set[str] = {
    # Vocabulary::remap exists to build a compacted corpus: producing a
    # new in-RAM Corpus is its contract, not an accident.
    "src/v2v/embed/vocabulary.hpp",
    "src/v2v/embed/vocabulary.cpp",
}


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string and char literals, preserving newlines so
    line numbers survive."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | '//' | '/*' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "//"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "/*"
                out.append("  ")
                i += 2
                continue
            if c in ('"', "'"):
                mode = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "//":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
        elif mode == "/*":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == mode:
                mode = None
            out.append(c if c in (mode, "\n") else " ")
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.findings: list[str] = []

    def report(self, path: pathlib.Path, line: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{line}: {rule}: {msg}")

    def lint_content_rules(self, path: pathlib.Path) -> None:
        raw = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(raw)
        for line_no, line in enumerate(code.splitlines(), start=1):
            if C_RAND_RE.search(line):
                self.report(path, line_no, "R1",
                            "C rand()/srand() banned; use v2v::Rng")
            if ENGINE_RE.search(line):
                self.report(path, line_no, "R2",
                            "<random> engines banned; use v2v::Rng (one-seed "
                            "reproducibility)")
            if NAKED_NEW_RE.search(line):
                self.report(path, line_no, "R3",
                            "naked new banned; use containers or make_unique")
            if NAKED_DELETE_RE.search(line):
                self.report(path, line_no, "R3",
                            "naked delete banned; use owning types")
            if ENDL_RE.search(line):
                self.report(path, line_no, "R4",
                            "std::endl banned (flushes); use '\\n'")
            if BITS_INCLUDE_RE.search(line):
                self.report(path, line_no, "R5",
                            "<bits/...> is a libstdc++ internal; include the "
                            "standard header")

    def lint_elementwise(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if not rel.startswith(ELEMENTWISE_SCOPES):
            return
        if rel in ELEMENTWISE_ALLOWLIST:
            return
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for line_no, line in enumerate(code.splitlines(), start=1):
            flagged = False
            m = COMPOUND_UPDATE_RE.search(line)
            if m and re.search(r"\[\s*%s\s*\]" % re.escape(m.group(1)),
                               m.group("rhs")):
                flagged = True
            if not flagged:
                m = INDEXED_ASSIGN_RE.search(line)
                if m:
                    same_elem = r"%s\s*\[\s*%s\s*\]" % (
                        re.escape(m.group("arr")), re.escape(m.group("idx")))
                    rhs = m.group("rhs")
                    if re.search(same_elem, rhs) and re.search(r"[+\-*/]", rhs):
                        flagged = True
            if flagged:
                self.report(path, line_no, "R7",
                            "hand-rolled elementwise row update; use "
                            "v2v/common/kernels.hpp (or allowlist in "
                            "tools/lint.py)")

    def lint_embedding_scans(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel.startswith("src/v2v/index/") or rel in EMBEDDING_SCAN_ALLOWLIST:
            return
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        lines = code.splitlines()
        in_loop = False
        depth = 0
        loop_line = 0
        for line_no, line in enumerate(lines, start=1):
            if not in_loop:
                if VERTEX_LOOP_RE.search(line):
                    in_loop = True
                    depth = 0
                    loop_line = line_no
                else:
                    continue
            # Track the loop's brace extent; a one-line loop body still gets
            # scanned before the depth hits zero below.
            if DISTANCE_CALL_RE.search(line):
                self.report(path, line_no, "R8",
                            "per-row distance inside a vertex_count() loop "
                            f"(opened at line {loop_line}) is a brute-force "
                            "embedding scan; use v2v/index (FlatIndex / "
                            "QueryEngine) or allowlist in tools/lint.py")
                in_loop = False
                continue
            depth += line.count("{") - line.count("}")
            if depth <= 0 and line_no > loop_line:
                in_loop = False

    def lint_centroid_scans(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel in CENTROID_SCAN_ALLOWLIST:
            return
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        lines = code.splitlines()
        in_loop = False
        depth = 0
        loop_line = 0
        dist_line = 0
        has_best = False
        for line_no, line in enumerate(lines, start=1):
            if not in_loop:
                if FOR_LOOP_RE.search(line):
                    in_loop = True
                    depth = 0
                    loop_line = line_no
                    dist_line = 0
                    has_best = False
                else:
                    continue
            if CENTROID_DIST_RE.search(line):
                dist_line = line_no
            if BEST_TRACK_RE.search(line):
                has_best = True
            if dist_line and has_best:
                self.report(path, dist_line, "R9",
                            "raw point-vs-centroid argmin loop (opened at line "
                            f"{loop_line}); use ml::assign_to_centroids / "
                            "ml::kmeans or allowlist in tools/lint.py")
                in_loop = False
                continue
            depth += line.count("{") - line.count("}")
            if depth <= 0 and line_no > loop_line:
                in_loop = False

    def lint_raw_sync(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel in RAW_SYNC_ALLOWLIST:
            return
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for line_no, line in enumerate(code.splitlines(), start=1):
            m = RAW_SYNC_RE.search(line)
            if m:
                self.report(path, line_no, "R10",
                            f"raw {m.group(0)} banned in src/; use the "
                            "annotated v2v::Mutex/LockGuard/UniqueLock/"
                            "CondVar from common/sync.hpp (thread-safety "
                            "analysis + lockdep)")

    def lint_graph_builder(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel.startswith(GRAPH_BUILDER_SCOPES) or rel in GRAPH_BUILDER_ALLOWLIST:
            return
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for line_no, line in enumerate(code.splitlines(), start=1):
            if GRAPH_BUILDER_RE.search(line):
                self.report(path, line_no, "R11",
                            "direct GraphBuilder use outside src/v2v/graph/ "
                            "and src/v2v/dynamic/; consume a built Graph or "
                            "go through dynamic::DynamicGraph (or allowlist "
                            "in tools/lint.py)")

    def lint_corpus_materialization(self, path: pathlib.Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        if (not rel.startswith(CORPUS_MATERIALIZE_SCOPE)
                or rel in CORPUS_MATERIALIZE_ALLOWLIST):
            return
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for line_no, line in enumerate(code.splitlines(), start=1):
            if CORPUS_MATERIALIZE_RE.search(line):
                self.report(path, line_no, "R12",
                            "whole-corpus materialization in src/v2v/embed/ "
                            "(by-value Corpus or generate_corpus call) defeats "
                            "the out-of-core streamed corpus; consume walks "
                            "through walk::CorpusReader (or allowlist in "
                            "tools/lint.py)")

    def lint_include_hygiene(self, path: pathlib.Path) -> None:
        raw = path.read_text(encoding="utf-8")
        if path.suffix == ".hpp":
            head = raw.splitlines()[:40]
            if not any(line.strip() == "#pragma once" for line in head):
                self.report(path, 1, "R5", "header missing #pragma once")
            return
        # .cpp: first include must be the matching header, when one exists.
        own_header = path.with_suffix(".hpp")
        if not own_header.exists():
            return
        expected = own_header.relative_to(self.root / "src").as_posix()
        code = strip_comments_and_strings(raw)
        for line_no, line in enumerate(code.splitlines(), start=1):
            m = INCLUDE_RE.search(line)
            if not m:
                continue
            if m.group(1) != expected:
                self.report(path, line_no, "R5",
                            f'first include must be own header "{expected}"')
            return

    def lint_test_references(self, src_dir: pathlib.Path,
                             tests_dir: pathlib.Path) -> None:
        test_blob = "\n".join(
            p.read_text(encoding="utf-8") for p in sorted(tests_dir.rglob("*.cpp")))
        for cpp in sorted(src_dir.rglob("*.cpp")):
            rel = cpp.relative_to(self.root).as_posix()
            if rel in TEST_REF_ALLOWLIST:
                continue
            header = cpp.with_suffix(".hpp")
            if not header.exists():
                continue  # main-style TU; nothing to reference
            include_path = header.relative_to(self.root / "src").as_posix()
            if f'"{include_path}"' not in test_blob:
                self.report(cpp, 1, "R6",
                            f"no test includes \"{include_path}\"; add coverage "
                            "or allowlist it in tools/lint.py")

    def run(self) -> int:
        src = self.root / "src"
        tests = self.root / "tests"
        bench = self.root / "bench"
        for path in sorted(src.rglob("*.[ch]pp")):
            self.lint_content_rules(path)
            self.lint_include_hygiene(path)
            self.lint_elementwise(path)
            self.lint_embedding_scans(path)
            self.lint_centroid_scans(path)
            self.lint_raw_sync(path)
            self.lint_graph_builder(path)
            self.lint_corpus_materialization(path)
        # Tests and benches get the behavioral rules (R1-R4) but not the
        # structural ones.
        for tree in (tests, bench):
            if not tree.is_dir():
                continue
            for path in sorted(tree.rglob("*.[ch]pp")):
                self.lint_content_rules(path)
        if tests.is_dir():
            self.lint_test_references(src, tests)
        for finding in self.findings:
            print(finding)
        if self.findings:
            print(f"lint: {len(self.findings)} finding(s)", file=sys.stderr)
            return 1
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    args = parser.parse_args()
    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
