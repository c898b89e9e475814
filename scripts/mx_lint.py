#!/usr/bin/env python3
"""Repo-invariant linter for the mx tree.

Checks the layering/determinism contracts that neither the compiler
nor clang-tidy can see — the rules ARCHITECTURE.md promises:

  env-door      inside src/, std::getenv only in core/env.* (the knob
                parser) and src/obs/ (documented bootstrap exception:
                obs sits below core in the layer DAG and cannot link
                it).  The harness tier (bench/, tests/) may read
                string-valued vars like MX_BENCH_OUT_DIR directly —
                only src/ ships.
  thread-door   std::thread / <thread> only in core/thread_pool.*
                (the compute pool) and serve/engine.* (the engine
                workers) — everything else parallelizes through them.
  simd-tu       <immintrin.h> / _mm* intrinsics only in avx2_*/avx512_*
                TUs, the ones CMake compiles with the matching -m
                flags; intrinsics elsewhere would either fail to build
                or silently require host AVX in "scalar" builds.
  determinism   no wall-clock or libc randomness inside src/: no
                rand()/srand()/random_device, no system_clock /
                time(nullptr) / gettimeofday.  steady_clock (interval
                timing) is fine.  Seeds are explicit; bit-exactness
                across runs is a tested artifact property.
  bench-keys    string keys handed to Report::metric()/flag() in
                bench/ must already be [a-z0-9_] slugs, so report
                JSON keys never depend on the slugifier rewriting
                them (compare_benches.py matches keys literally).

Usage:
  scripts/mx_lint.py              lint the repo (exit 1 on violations)
  scripts/mx_lint.py --self-test  run the fixture suite in
                                  scripts/lint_fixtures/ (exit 1 on
                                  any mismatch)
  scripts/mx_lint.py PATH...      lint specific files (repo-relative)

Fixture manifest (scripts/lint_fixtures/MANIFEST): one line per case,
"<fixture-file> <virtual-repo-path> <rule-id,...|->", where "-" means
the fixture must lint clean at that path.
"""

import os
import re
import sys

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
FIXTURE_DIR = os.path.join(REPO_ROOT, "scripts", "lint_fixtures")

SOURCE_EXTS = (".cpp", ".h", ".hpp", ".cc")
LINT_DIRS = ("src", "bench", "tests", "examples")

# ---------------------------------------------------------------------------
# Comment stripping: rules 1-4 must not fire on documentation that
# *mentions* getenv or std::thread.  Keeps line structure so reported
# line numbers stay real; string literals are preserved (bench-keys
# scans them) but blanked for the code rules below.


def strip_comments(text):
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                i += 2
                continue
            if c == '"':
                mode = "str"
            elif c == "'":
                mode = "chr"
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append(c)
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == quote:
                mode = "code"
            out.append(c)
        i += 1
    return "".join(out)


def blank_strings(text):
    """Replace string-literal contents with spaces (layout preserved)."""
    out = []
    i, n = 0, len(text)
    in_str = False
    while i < n:
        c = text[i]
        if in_str:
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == '"':
                in_str = False
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        else:
            if c == '"':
                in_str = True
            out.append(c)
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules.  Each returns a list of (line_number, message).


def _matches(pattern, code):
    return [(code.count("\n", 0, m.start()) + 1, m.group(0).strip())
            for m in re.finditer(pattern, code)]


ENV_DOOR_ALLOW = ("src/core/env.cpp", "src/core/env.h")
ENV_DOOR_PREFIX = "src/obs/"

def rule_env_door(path, code, _raw):
    if not path.startswith("src/"):
        return []
    if path in ENV_DOOR_ALLOW or path.startswith(ENV_DOOR_PREFIX):
        return []
    return [(ln, f"'{tok}': read knobs through core/env.h "
                 "(std::getenv is confined to core/env.* and the "
                 "documented src/obs/ bootstrap exception)")
            for ln, tok in _matches(r"\b(?:std::)?getenv\s*\(", code)]


THREAD_DOOR_ALLOW = (
    "src/core/thread_pool.h", "src/core/thread_pool.cpp",
    "src/serve/engine.h", "src/serve/engine.cpp",
)

def rule_thread_door(path, code, _raw):
    if path in THREAD_DOOR_ALLOW or not path.startswith("src/"):
        return []
    hits = _matches(r"\bstd::thread\b", code)
    hits += _matches(r"#\s*include\s*<thread>", code)
    return [(ln, f"'{tok}': spawn through core::ThreadPool "
                 "(raw std::thread is confined to core/thread_pool.* "
                 "and the serve/engine.* workers)")
            for ln, tok in sorted(hits)]


SIMD_TU_RE = re.compile(r"^(avx2|avx512)_")

def rule_simd_tu(path, code, _raw):
    if not path.startswith("src/"):
        return []
    if SIMD_TU_RE.match(os.path.basename(path)):
        return []
    hits = _matches(r"#\s*include\s*<immintrin\.h>", code)
    hits += _matches(r"\b_mm\d*_\w+\s*\(", code)
    return [(ln, f"'{tok}': SIMD intrinsics belong in avx2_*/avx512_* "
                 "TUs (the ones CMake builds with the matching -m "
                 "flags); route through core/kernels/dispatch.h")
            for ln, tok in sorted(hits)]


NONDET_PATTERNS = (
    (r"\bs?rand\s*\(", "libc rand"),
    (r"\bstd::random_device\b", "nondeterministic seed source"),
    (r"\b(?:std::chrono::)?system_clock\b", "wall clock"),
    (r"\bhigh_resolution_clock\b", "alias that may be the wall clock"),
    (r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)", "wall clock"),
    (r"\bgettimeofday\s*\(", "wall clock"),
    (r"\blocaltime(?:_r)?\s*\(", "wall clock"),
)

def rule_determinism(path, code, _raw):
    if not path.startswith("src/"):
        return []
    out = []
    for pattern, why in NONDET_PATTERNS:
        out += [(ln, f"'{tok}': {why} inside src/ breaks run-to-run "
                     "bit-exactness; take seeds/timestamps as "
                     "arguments (steady_clock is fine for intervals)")
                for ln, tok in _matches(pattern, code)]
    return sorted(out)


BENCH_KEY_RE = re.compile(r"\b(?:metric|flag)\s*\(\s*\"([^\"]*)\"")
BENCH_KEY_OK = re.compile(r"^[a-z0-9_]*$")

def rule_bench_keys(path, _code, raw):
    if not path.startswith("bench/"):
        return []
    out = []
    for m in BENCH_KEY_RE.finditer(raw):
        key = m.group(1)
        if not BENCH_KEY_OK.match(key):
            ln = raw.count("\n", 0, m.start()) + 1
            out.append((ln, f'metric/flag key "{key}" is not a '
                            "[a-z0-9_] slug; report JSON keys must "
                            "not depend on the slugifier rewriting "
                            "them"))
    return out


RULES = (
    ("env-door", rule_env_door),
    ("thread-door", rule_thread_door),
    ("simd-tu", rule_simd_tu),
    ("determinism", rule_determinism),
    ("bench-keys", rule_bench_keys),
)


def lint_text(path, raw):
    """Lint one file's content at virtual repo path; returns
    [(rule_id, line, message)]."""
    code = blank_strings(strip_comments(raw))
    findings = []
    for rule_id, fn in RULES:
        for ln, msg in fn(path, code, strip_comments(raw)):
            findings.append((rule_id, ln, msg))
    return findings


# ---------------------------------------------------------------------------


def repo_files():
    for top in LINT_DIRS:
        for dirpath, _dirs, names in os.walk(os.path.join(REPO_ROOT, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, REPO_ROOT)


def lint_repo(paths):
    failures = 0
    checked = 0
    for rel in paths:
        rel = rel.replace(os.sep, "/")
        full = os.path.join(REPO_ROOT, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"mx_lint: cannot read {rel}: {exc}", file=sys.stderr)
            failures += 1
            continue
        checked += 1
        for rule_id, ln, msg in lint_text(rel, raw):
            print(f"{rel}:{ln}: [{rule_id}] {msg}")
            failures += 1
    if failures:
        print(f"mx_lint: {failures} violation(s)")
        return 1
    print(f"mx_lint: clean ({checked} files, {len(RULES)} rules)")
    return 0


def self_test():
    manifest = os.path.join(FIXTURE_DIR, "MANIFEST")
    if not os.path.exists(manifest):
        print(f"mx_lint: missing {manifest}", file=sys.stderr)
        return 1
    cases = []
    with open(manifest, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fixture, vpath, expected = line.split()
            want = set() if expected == "-" else set(expected.split(","))
            cases.append((fixture, vpath, want))
    bad = 0
    for fixture, vpath, want in cases:
        with open(os.path.join(FIXTURE_DIR, fixture),
                  encoding="utf-8") as fh:
            raw = fh.read()
        got = {rule_id for rule_id, _ln, _msg in lint_text(vpath, raw)}
        status = "ok"
        if got != want:
            status = (f"FAIL (want {sorted(want) or ['clean']}, "
                      f"got {sorted(got) or ['clean']})")
            bad += 1
        print(f"mx_lint self-test: {fixture} as {vpath}: {status}")
    untested = {r for r, _ in RULES} - {r for _, _, w in cases for r in w}
    if untested:
        print(f"mx_lint self-test: FAIL — rules with no failing "
              f"fixture: {sorted(untested)}")
        bad += 1
    if bad:
        print(f"mx_lint self-test: {bad} case(s) failed")
        return 1
    print(f"mx_lint self-test: {len(cases)} cases passed")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    paths = [a for a in argv if not a.startswith("-")]
    return lint_repo(paths if paths else repo_files())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
