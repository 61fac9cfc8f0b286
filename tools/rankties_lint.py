#!/usr/bin/env python3
"""rankties-lint: project-invariant checks clang-tidy cannot express.

Rules (rationale in docs/STATIC_ANALYSIS.md):

  RT001 unchecked-pair-arith   Raw `x * (y - 1)` / `x * (y + 1)` shaped
                               arithmetic outside util/checked_math.h.
                               Pair-count quantities are quadratic in the
                               domain size; unchecked products silently wrap
                               past 2^32 elements. Use CheckedMul /
                               CheckedChoose2. Scope: src/, bench/,
                               examples/ (tests hand-compute tiny
                               expectations and are exempt).

  RT002 raw-assert             `assert(` in src/. Library invariants must
                               use the contract macros (RANKTIES_DCHECK,
                               RANKTIES_DCHECK_OK, RANKTIES_BOUNDS) from
                               util/contracts.h so failures print uniform
                               diagnostics and release compile-out is
                               centrally controlled. static_assert is fine.

  RT003 banned-random-time     std::rand / rand( / srand( / time( in src/,
                               bench/, examples/. Results must be
                               reproducible from an explicit seed: use
                               util/rng.h (and util/stopwatch.h for time).

  RT004 include-guard          Every header must open with the project
                               include guard `RANKTIES_<PATH>_H_` (path
                               relative to the repo root, `src/` stripped,
                               upper-cased) or `#pragma once`.

  RT005 bucketorder-privates   Mention of a BucketOrder private field
                               (.bucket_of_ / .by_bucket_ / .bucket_offset_
                               / .twice_pos_ / .tied_pairs_ via . or ->)
                               outside src/rank/. The flat arrays are one
                               invariant (partition, offsets, doubled
                               positions, tied pairs) owned by src/rank/;
                               everything else goes through the public API
                               so Validate() stays authoritative.

  RT006 raw-intrinsics         Vector intrinsics (_mm*/__m128/__m256/__m512
                               or an *intrin.h include) anywhere but
                               src/util/simd.h. That header owns the SIMD
                               dispatch contract — every vector kernel lives
                               next to its bit-identical scalar twin and the
                               runtime level check; intrinsics scattered
                               elsewhere would dodge the scalar-fallback and
                               RANKTIES_NO_AVX2 guarantees the CI dispatch
                               matrix enforces.

  RT007 metric-name-literal    Metric / query-unit names at
                               RANKTIES_OBS_COUNT, RANKTIES_OBS_RECORD,
                               obs::GetCounter, obs::GetHistogram and
                               obs::QueryUnitScope call sites must be
                               string literals in `lowercase.dotted` form
                               (segments of [a-z][a-z0-9_]*, at least two,
                               joined by dots). Literal names keep the
                               counter catalog in docs/OBSERVABILITY.md
                               greppable and the OpenMetrics label space
                               predictable. Span and flight-event names
                               come from the closed obs::FlightEventId
                               table, which flight_test checks instead.
                               Scope: src/, bench/, examples/; src/obs/
                               itself is exempt (it manipulates names
                               generically), and a first argument on a
                               later line is skipped.

  RT008 raw-file-io            Raw file I/O (fopen/fread/fwrite family,
                               ::open/::read/::write, mmap/munmap,
                               pread/pwrite, std::*fstream) in src/ outside
                               src/store/. The store owns durable bytes:
                               store::File centralizes Status-carrying
                               error handling, EINTR retry, and the
                               store.io.* obs counters, and the corpus
                               format's CRC discipline only holds if every
                               byte passes through it. src/obs/export.cc is
                               exempt (the OpenMetrics text exporter writes
                               operator-facing snapshots, not corpus data).

  RT009 raw-std-sync           std::mutex / std::condition_variable /
                               std::lock_guard / std::unique_lock /
                               std::scoped_lock / std::shared_mutex (and
                               friends) in src/ outside src/util/mutex.h.
                               That header owns synchronization:
                               rankties::Mutex carries the Clang
                               thread-safety capability annotations the
                               `thread-safety` CI job enforces, and in
                               debug builds membership in the lock-order
                               DAG that turns latent deadlocks into
                               deterministic aborts. A raw std primitive
                               would dodge both.

A finding on a line carrying `rankties-lint: allow(RTxxx)` is suppressed.

Usage:
  rankties_lint.py [--root DIR]        lint the repo; non-zero exit on findings
  rankties_lint.py --self-test [--root DIR]
                                       check that every fixture under
                                       tests/lint_fixtures/ is flagged with
                                       the rule named in its
                                       `rankties-lint-fixture: expect RTxxx`
                                       header (guards against rule rot)
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

CXX_SUFFIXES = {".h", ".cc", ".cpp"}

PAIR_ARITH = re.compile(
    r"\b\w+\s*\*\s*\(\s*\w+\s*[-+]\s*1\s*\)|\(\s*\w+\s*[-+]\s*1\s*\)\s*\*\s*\w+"
)
RAW_ASSERT = re.compile(r"(?<![_A-Za-z])assert\s*\(")
BANNED_RANDOM = re.compile(
    r"std::rand\b|(?<![_A-Za-z:.>])s?rand\s*\(|(?<![_A-Za-z:.>])time\s*\("
)
FIELD_ACCESS = re.compile(
    r"(?:\.|->)\s*"
    r"(?:bucket_of_|by_bucket_|bucket_offset_|twice_pos_|tied_pairs_)\b"
)
RAW_INTRINSICS = re.compile(
    r"\b_mm\d*_\w+|\b__m(?:128|256|512)[di]?\b|#\s*include\s*<\w*intrin\.h>"
)
RAW_FILE_IO = re.compile(
    r"(?<![_A-Za-z])f(?:open|dopen|reopen|read|write)\s*\(|"
    r"::(?:open|read|write)\s*\(|"
    r"(?<![_A-Za-z])m(?:map|unmap)\s*\(|"
    r"(?<![_A-Za-z])p(?:read|write)\s*\(|"
    r"\bstd::[io]?fstream\b"
)
RAW_SYNC = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b|"
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)
METRIC_CALL = re.compile(
    r"RANKTIES_OBS_COUNT\s*\(|RANKTIES_OBS_RECORD\s*\(|"
    r"\b(?:obs::)?(?:GetCounter|GetHistogram)\s*\(|"
    r"\b(?:obs::)?QueryUnitScope\s+\w+\s*\(")
METRIC_NAME = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+")
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
ALLOW = re.compile(r"rankties-lint:\s*allow\((RT\d{3})\)")
FIXTURE_EXPECT = re.compile(r"rankties-lint-fixture:\s*expect\s+(RT\d{3})")
LINE_COMMENT = re.compile(r"//.*$")


def strip_strings(line: str) -> str:
    """Blanks out string and char literals so their contents never match.

    A single quote only opens a char literal when the preceding character
    is not alphanumeric: that keeps apostrophes in comments ("workload's")
    and digit separators (1'000'000) from swallowing the rest of the line.
    """
    out = []
    quote = None
    i = 0
    while i < len(line):
        c = line[i]
        if quote is None:
            if c == '"' or (c == "'" and
                            (i == 0 or not line[i - 1].isalnum())):
                quote = c
            out.append(c)
        else:
            if c == "\\":
                i += 1
            elif c == quote:
                quote = None
                out.append(c)
                i += 1
                continue
            else:
                out.append(" " if c != quote else c)
                i += 1
                continue
        i += 1
    return "".join(out)


def metric_name_problems(raw: str, code: str) -> list[str]:
    """RT007 findings for one line.

    Call sites are located on the raw line (the argument literal lives
    inside a string, which `code` has blanked), but a match must also
    survive in `code` so prose mentioning a call in a comment is ignored.
    A first argument on a later line is skipped — the rule is best-effort
    on the visible line, not a parser.
    """
    problems = []
    for match in METRIC_CALL.finditer(raw):
        if match.group(0) not in code:
            continue  # commented-out or quoted mention, not a call
        rest = raw[match.end():].lstrip()
        if not rest:
            continue  # first argument on the next line
        if not rest.startswith('"'):
            problems.append("metric/span name must be a string literal")
            continue
        literal = STRING_LITERAL.match(rest)
        if literal and not METRIC_NAME.fullmatch(literal.group(1)):
            problems.append(f'metric/span name "{literal.group(1)}" is not '
                            "lowercase.dotted")
    return problems


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, text: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.text = text

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.text.strip()}"


def lint_file(path: pathlib.Path, rel: pathlib.PurePosixPath,
              fixture_mode: bool = False) -> list[Finding]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    findings: list[Finding] = []
    top = rel.parts[0] if rel.parts else ""
    in_src = top == "src"
    in_prod = top in ("src", "bench", "examples") or fixture_mode
    is_checked_math = rel.as_posix() == "src/util/checked_math.h"
    in_rank = rel.as_posix().startswith("src/rank/")
    is_simd_home = rel.as_posix() == "src/util/simd.h"
    in_obs_home = rel.as_posix().startswith("src/obs/")
    in_store_home = (rel.as_posix().startswith("src/store/")
                     or rel.as_posix() == "src/obs/export.cc")
    is_mutex_home = rel.as_posix() == "src/util/mutex.h"
    in_block_comment = False

    for lineno, raw in enumerate(lines, start=1):
        if ALLOW.search(raw):
            continue
        line = strip_strings(raw)
        # Strip comments: rules target code, and prose like "the old
        # n*(n-1)/2 wrapped" must not trip RT001.
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        line = LINE_COMMENT.sub("", line)
        start = line.find("/*")
        while start >= 0:
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
            start = line.find("/*")

        if in_prod and not is_checked_math and PAIR_ARITH.search(line):
            findings.append(Finding(path, lineno, "RT001",
                                    "raw pair-count arithmetic; use "
                                    "CheckedMul/CheckedChoose2 "
                                    "(util/checked_math.h)"))
        if (in_src or fixture_mode) and "static_assert" not in line \
                and RAW_ASSERT.search(line):
            findings.append(Finding(path, lineno, "RT002",
                                    "raw assert(); use RANKTIES_DCHECK* "
                                    "(util/contracts.h)"))
        if in_prod and BANNED_RANDOM.search(line):
            findings.append(Finding(path, lineno, "RT003",
                                    "std::rand/srand/time are banned; use "
                                    "util/rng.h / util/stopwatch.h"))
        if (not in_rank or fixture_mode) and FIELD_ACCESS.search(line):
            findings.append(Finding(path, lineno, "RT005",
                                    "BucketOrder internals accessed outside "
                                    "src/rank/; use the public API"))
        if not is_simd_home and RAW_INTRINSICS.search(line):
            findings.append(Finding(path, lineno, "RT006",
                                    "raw vector intrinsics outside "
                                    "src/util/simd.h; use the dispatching "
                                    "kernels (simd::AbsDiffSumI64, "
                                    "simd::JointKeys32)"))
        if in_prod and not in_obs_home:
            for problem in metric_name_problems(raw, line):
                findings.append(Finding(path, lineno, "RT007", problem))
        if (in_src or fixture_mode) and not in_store_home \
                and RAW_FILE_IO.search(line):
            findings.append(Finding(path, lineno, "RT008",
                                    "raw file I/O outside src/store/; "
                                    "route bytes through store::File so "
                                    "Status handling and store.io.* "
                                    "accounting stay centralized"))
        if (in_src or fixture_mode) and not is_mutex_home \
                and RAW_SYNC.search(line):
            findings.append(Finding(path, lineno, "RT009",
                                    "raw std sync primitive outside "
                                    "src/util/mutex.h; use rankties::Mutex"
                                    " / MutexLock / CondVar so the clang "
                                    "thread-safety wall and the debug "
                                    "lock-order DAG apply"))

    if path.suffix == ".h":
        findings.extend(check_include_guard(path, rel, text))
    return findings


def expected_guard(rel: pathlib.PurePosixPath) -> str:
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts).replace(".", "_").replace("-", "_").upper()
    return f"RANKTIES_{stem}_"


def check_include_guard(path: pathlib.Path, rel: pathlib.PurePosixPath,
                        text: str) -> list[Finding]:
    if "#pragma once" in text:
        return []
    guard = expected_guard(rel)
    ifndef = re.search(r"#ifndef\s+(\w+)\s*\n\s*#define\s+(\w+)", text)
    if not ifndef or ifndef.group(1) != ifndef.group(2):
        return [Finding(path, 1, "RT004",
                        f"missing include guard (expected #ifndef {guard} "
                        "or #pragma once)")]
    if ifndef.group(1) != guard:
        return [Finding(path, 1, "RT004",
                        f"include guard {ifndef.group(1)} does not match "
                        f"the convention {guard}")]
    return []


def iter_sources(root: pathlib.Path):
    for top in ("src", "bench", "examples", "tests", "tools"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
            if rel.as_posix().startswith("tests/lint_fixtures/"):
                continue  # known-bad snippets, checked by --self-test
            yield path, rel


def run_lint(root: pathlib.Path) -> int:
    findings: list[Finding] = []
    count = 0
    for path, rel in iter_sources(root):
        count += 1
        findings.extend(lint_file(path, rel))
    for f in findings:
        print(f)
    print(f"rankties-lint: {count} files scanned, "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def run_self_test(root: pathlib.Path) -> int:
    fixture_dir = root / "tests" / "lint_fixtures"
    fixtures = sorted(p for p in fixture_dir.rglob("*")
                      if p.suffix in CXX_SUFFIXES)
    if not fixtures:
        print(f"rankties-lint: no fixtures under {fixture_dir}",
              file=sys.stderr)
        return 1
    failures = 0
    for path in fixtures:
        text = path.read_text(encoding="utf-8")
        expect = FIXTURE_EXPECT.search(text)
        if not expect:
            print(f"{path}: missing 'rankties-lint-fixture: expect RTxxx'")
            failures += 1
            continue
        rel = pathlib.PurePosixPath("src") / pathlib.PurePosixPath(
            path.relative_to(fixture_dir).as_posix())  # lint as if in src/
        rules = {f.rule for f in lint_file(path, rel, fixture_mode=True)}
        if expect.group(1) in rules:
            print(f"ok: {path.name} flagged with {expect.group(1)}")
        else:
            print(f"FAIL: {path.name} expected {expect.group(1)}, "
                  f"got {sorted(rules) or 'nothing'}")
            failures += 1
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the lint fixtures are each flagged")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    if args.self_test:
        return run_self_test(root)
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
