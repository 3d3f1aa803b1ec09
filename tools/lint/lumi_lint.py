#!/usr/bin/env python3
"""lumi-lint: repo-specific determinism and concurrency invariants as lint.

The campaign engine's headline guarantee — byte-identical reports across
thread counts, shards, batch sizes and platforms — rests on conventions no
compiler checks: random decisions must flow through src/core/rng.hpp,
report/checkpoint code must never iterate unordered containers, mergeable
accumulators must sum exact integers, and the threaded core must not grow
ad-hoc synchronization.  This tool turns those conventions into machine
checks (docs/DETERMINISM.md catalogues the invariant behind each rule).

Mechanics: every C++ source file is split into code and comment channels by
a small tokenizer (line/block comments, string/char literals and raw
strings are blanked out of the code channel), rules match the code channel
only, and a comment `// lumi-lint: allow(<rule>)` on the same or the
immediately preceding line suppresses that rule there (use sparingly; say
why on the same comment).  Each rule carries its own path scope and
allowlist, so e.g. wall-clock reads are legal in examples/ but not in src/.

Usage:
  lumi_lint.py [--root DIR] [--json FILE] [paths...]   lint the tree (or files)
  lumi_lint.py --list-rules                            describe every rule
  lumi_lint.py --self-test                             run the fixture suite

Exit status: 0 clean, 1 findings (or a failed self-test), 2 usage/internal
error.  Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SCAN = ["src", "tests", "examples", "tools"]
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx"}

ALLOW = re.compile(r"lumi-lint:\s*allow\(([^)]*)\)")


@dataclass
class Rule:
    name: str
    summary: str
    pattern: re.Pattern
    include: list[str]           # fnmatch globs relative to root; empty = everywhere
    exempt: list[str] = field(default_factory=list)  # per-rule allowlist
    message: str = ""

    def applies_to(self, rel: str) -> bool:
        if self.include and not any(fnmatch.fnmatch(rel, g) for g in self.include):
            return False
        return not any(fnmatch.fnmatch(rel, g) for g in self.exempt)


# Paths whose iteration order or arithmetic lands in reports, checkpoints or
# fingerprints — the merge-identity surface (docs/DETERMINISM.md).
REPORT_PATHS = [
    "src/trace/*",
    "src/campaign/checkpoint.*",
    "src/campaign/aggregate.*",
]

RULES = [
    Rule(
        name="banned-rng",
        summary="raw RNG primitives outside src/core/rng.hpp",
        pattern=re.compile(
            r"std::uniform_int_distribution|std::uniform_real_distribution"
            r"|std::shuffle\b|std::random_device|std::mt19937(?:_64)?\b"
            r"|\b(?:s)?rand\s*\("
        ),
        include=["src/*"],
        exempt=["src/core/rng.hpp"],
        message=(
            "random decisions must flow through src/core/rng.hpp (rng::Engine, "
            "bounded_draw, fisher_yates): std::uniform_int_distribution and "
            "friends are implementation-defined, so direct use breaks "
            "cross-platform byte-identity (see docs/DETERMINISM.md#rng-discipline)"
        ),
    ),
    Rule(
        name="unordered-in-report",
        summary="unordered containers in report/checkpoint/accumulator code",
        pattern=re.compile(r"\bunordered_(?:multi)?(?:map|set)\b"),
        include=REPORT_PATHS,
        message=(
            "iteration order of unordered containers is hash-seed and "
            "platform dependent; anything feeding reports, checkpoints or "
            "fingerprints must use ordered or index-keyed containers.  The "
            "rule bans the container outright in these files because a "
            "tokenizer cannot prove no iteration; a keyed-lookup-only use "
            "needs an allow comment explaining why it never iterates"
        ),
    ),
    Rule(
        name="wall-clock",
        summary="wall-clock reads in result-affecting code",
        pattern=re.compile(
            r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)::now"
        ),
        include=["src/*"],
        # src/obs/ is telemetry by definition: spans and the progress meter
        # exist to read the clock, and the obs-isolation rule fences them out
        # of every result path, so per-call allow comments would be noise.
        exempt=["src/obs/*"],
        message=(
            "clock reads in src/ risk leaking execution time into results "
            "(merge identity forbids it).  Wall-time diagnostics that never "
            "reach checkpoints or merged reports (e.g. CampaignSummary::"
            "wall_seconds) carry an allow comment saying so; the CLIs in "
            "examples/ and the tests are out of scope by path"
        ),
    ),
    Rule(
        name="float-accumulator",
        summary="floating-point fields in mergeable accumulators",
        pattern=re.compile(r"^\s*(?:float|double)\s+\w+(?:\s*=[^;()]*)?;"),
        include=["src/campaign/aggregate.*", "src/campaign/checkpoint.*"],
        message=(
            "mergeable accumulator state must be exact integers: float "
            "addition is not associative, so per-thread partial sums would "
            "merge to different bytes depending on which thread ran which "
            "job.  Derive floating-point statistics at render time from the "
            "exact sums (LongStat::mean/variance are member functions, not "
            "fields)"
        ),
    ),
    Rule(
        name="thread-detach",
        summary="detached threads",
        pattern=re.compile(r"(?:\.|->)detach\s*\("),
        include=["src/*", "tests/*", "examples/*"],
        message=(
            "a detached thread outlives scoped ownership and cannot be "
            "joined before results are read — every thread in this codebase "
            "is joined (run_orchestrated joins its batch workers before a "
            "pass returns, CheckpointFlusher joins in finish())"
        ),
    ),
    Rule(
        name="volatile-sync",
        summary="volatile used where synchronization is meant",
        pattern=re.compile(r"\bvolatile\b"),
        include=["src/*"],
        message=(
            "volatile is not a synchronization primitive in C++ (no "
            "atomicity, no ordering); use std::atomic or a mutex.  Benches "
            "may use it as an optimizer barrier, which is why the rule "
            "scopes to src/"
        ),
    ),
    Rule(
        name="obs-isolation",
        summary="telemetry (obs::) in report rendering or checkpoint serialization",
        # Matches obs:: symbol uses, src/obs/ includes (include paths are
        # re-injected into the code channel by lint_file — as string-literal
        # contents they are otherwise blanked by the tokenizer), and the
        # flight-recorder entry points by bare name: `using namespace` or ADL
        # would otherwise let a serializer call them without the obs:: prefix.
        pattern=re.compile(
            r"\bobs::|\bsrc/obs/"
            r"|\b(?:recording_write|recording_serialize|make_recording)\s*\("
        ),
        include=REPORT_PATHS,
        message=(
            "telemetry must observe results, never feed them: report "
            "rendering, checkpoint serialization and mergeable accumulators "
            "stay free of obs:: symbols so metrics/tracing can be toggled "
            "without any risk to byte-identity (the on/off differential is "
            "pinned by tests/test_obs_identity.cpp).  Instrument the callers "
            "— CLIs, orchestrator, batch runner — not these files"
        ),
    ),
    Rule(
        name="relaxed-atomic",
        summary="memory_order_relaxed without an allow comment",
        pattern=re.compile(r"\bmemory_order_relaxed\b"),
        include=["src/*", "tests/*", "examples/*"],
        message=(
            "relaxed atomics are correct only with a proof that no other "
            "memory depends on their ordering; each use must carry "
            "'// lumi-lint: allow(relaxed-atomic)' plus that proof in the "
            "surrounding comment"
        ),
    ),
]


def split_channels(text: str) -> list[tuple[str, str]]:
    """Per line: (code with comments/literals blanked, comment text).

    Handles // and /* */ comments, "..." / '...' literals with escapes, and
    raw strings R"delim(...)delim".  Literal contents are blanked from the
    code channel (quotes kept) so rule patterns cannot match inside them.
    """
    out: list[tuple[list[str], list[str]]] = [([], [])]
    code, comment = out[0]
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_end = ""
    quote = ""
    while i < n:
        c = text[i]
        if c == "\n":
            out.append(([], []))
            code, comment = out[-1]
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == "R" and nxt == '"' and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
                m = re.match(r'R"([^()\\ \n]{0,16})\(', text[i:])
                if m:
                    raw_end = ")" + m.group(1) + '"'
                    code.append('R"' + m.group(1) + "(")
                    state = "raw"
                    i += len(m.group(0))
                    continue
            if c in "\"'":
                quote = c
                state = "string" if c == '"' else "char"
                code.append(c)
                i += 1
                continue
            code.append(c)
            i += 1
            continue
        if state == "line_comment":
            comment.append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = "code"
                i += 2
                continue
            comment.append(c)
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\" and i + 1 < n:
                i += 2
                continue
            if c == quote:
                code.append(c)
                state = "code"
            i += 1
            continue
        # raw string
        if text.startswith(raw_end, i):
            code.append(raw_end)
            state = "code"
            i += len(raw_end)
            continue
        i += 1
    return [("".join(c), "".join(m)) for c, m in out]


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    snippet: str
    message: str


def allowed_rules(comment: str) -> set[str]:
    names: set[str] = set()
    for m in ALLOW.finditer(comment):
        names.update(p.strip() for p in m.group(1).split(",") if p.strip())
    return names


def lint_file(path: Path, rel: str, rules: list[Rule]) -> list[Finding]:
    active = [r for r in rules if r.applies_to(rel)]
    if not active:
        return []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Finding("io-error", rel, 0, "", f"unreadable: {err}")]
    lines = split_channels(text)
    # Re-inject #include paths into the code channel: the tokenizer blanks
    # string-literal contents, which would hide `#include "src/obs/..."` from
    # path-sensitive rules like obs-isolation.
    raw_lines = text.split("\n")
    include_re = re.compile(r'^\s*#\s*include\s*["<]([^">]+)[">]')
    lines = [
        (code + " " + m.group(1) if (m := include_re.match(raw)) else code, comment)
        for (code, comment), raw in zip(lines, raw_lines)
    ]
    findings: list[Finding] = []
    prev_allow: set[str] = set()
    for lineno, (code, comment) in enumerate(lines, start=1):
        here_allow = allowed_rules(comment)
        suppress = here_allow | prev_allow
        # A standalone allow comment covers the next line; a trailing allow
        # comment covers its own.  Code on the line consumes the carry.
        prev_allow = here_allow if not code.strip() else set()
        for rule in active:
            if rule.name in suppress:
                continue
            if rule.pattern.search(code):
                findings.append(
                    Finding(rule.name, rel, lineno, code.strip()[:120], rule.message)
                )
    return findings


def iter_sources(root: Path, paths: list[str]) -> list[Path]:
    out: list[Path] = []
    bases = [root / p for p in paths] if paths else [root / p for p in DEFAULT_SCAN]
    for base in bases:
        if base.is_file():
            out.append(base)
        elif base.is_dir():
            out.extend(p for p in sorted(base.rglob("*")) if p.suffix in CPP_SUFFIXES)
    return out


def run_lint(root: Path, paths: list[str], json_path: str | None) -> int:
    files = iter_sources(root, paths)
    findings: list[Finding] = []
    for f in files:
        rel = f.relative_to(root).as_posix()
        findings.extend(lint_file(f, rel, RULES))
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.snippet}", file=sys.stderr)
    report = {
        "tool": "lumi-lint",
        "version": 1,
        "files_scanned": len(files),
        "rules": [{"name": r.name, "summary": r.summary} for r in RULES],
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "snippet": f.snippet,
                "message": f.message,
            }
            for f in findings
        ],
    }
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"lumi-lint: {len(files)} files, {len(findings)} findings")
    return 1 if findings else 0


def run_self_test(fixtures: Path) -> int:
    """Each fixtures/<rule>/ holds bad/ (≥1 finding, all of <rule>) and
    clean/ (0 findings) mini-trees; every shipped rule must have both."""
    failures: list[str] = []
    cases = sorted(p for p in fixtures.iterdir() if p.is_dir()) if fixtures.is_dir() else []
    fixture_rules = {p.name for p in cases}
    for rule in RULES:
        if rule.name not in fixture_rules:
            failures.append(f"rule '{rule.name}' has no fixture directory")
    for case in cases:
        if case.name not in {r.name for r in RULES}:
            failures.append(f"fixture '{case.name}' names no shipped rule")
            continue
        for leg, expect_bad in (("bad", True), ("clean", False)):
            tree = case / leg
            if not tree.is_dir():
                failures.append(f"{case.name}: missing {leg}/ tree")
                continue
            found: list[Finding] = []
            for f in iter_sources(tree, []):
                rel = f.relative_to(tree).as_posix()
                found.extend(lint_file(f, rel, RULES))
            if expect_bad:
                if not found:
                    failures.append(f"{case.name}/bad: expected ≥1 finding, got none")
                for f in found:
                    if f.rule != case.name:
                        failures.append(
                            f"{case.name}/bad: stray finding [{f.rule}] at {f.path}:{f.line}"
                        )
            elif found:
                for f in found:
                    failures.append(
                        f"{case.name}/clean: unexpected [{f.rule}] at {f.path}:{f.line}"
                    )
    for msg in failures:
        print(f"self-test: {msg}", file=sys.stderr)
    print(f"lumi-lint self-test: {len(cases)} fixtures, {len(failures)} failures")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="lumi_lint.py", description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None, help="repo root (default: two dirs above this file)")
    ap.add_argument("--json", default=None, metavar="FILE", help="write machine-readable report")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true", help="run the fixture suite and exit")
    ap.add_argument("paths", nargs="*", help="files or directories relative to root")
    args = ap.parse_args(argv)

    here = Path(__file__).resolve()
    root = Path(args.root).resolve() if args.root else here.parent.parent.parent

    if args.list_rules:
        for r in RULES:
            scope = ", ".join(r.include) or "(everywhere)"
            exempt = f"  exempt: {', '.join(r.exempt)}" if r.exempt else ""
            print(f"{r.name}: {r.summary}\n  scope: {scope}{exempt}")
        return 0
    if args.self_test:
        return run_self_test(here.parent / "fixtures")
    return run_lint(root, args.paths, args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
