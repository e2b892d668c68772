#!/usr/bin/env python
"""Docs-consistency checker: links, CLI usage blocks, example coverage.

Four classes of rot this catches, all of which have actually happened
to this repo or will:

1. **Dead relative links** — ``[text](docs/FILE.md)`` pointing at a
   file that moved or never existed.  External links and anchors are
   out of scope (no network in CI).
2. **CLI drift** — a fenced shell block showing ``python -m repro.x
   --flag`` where ``--flag`` is no longer (or never was) accepted.
   Flags are validated against the live ``--help`` of each CLI.
3. **Catalogue drift** — a live listing and the doc table that
   catalogues it disagreeing in either direction: an entry the program
   has that the doc omits, or one the doc names that the program does
   not have.  One table, :data:`CATALOGUES`, holds a row per catalogue:
   lint rule ids (``--list-rules``) against ARCHITECTURE §9 (every doc
   is scanned for unknown ``L###`` ids), scheduling classes
   (``--list-sched-classes``) against the ARCHITECTURE catalogue table,
   and docs/SCALING.md's ``bakeoff --help`` flag reference and
   ``--list-arrivals`` arrival-process table.
4. **Example-list drift** — a file in ``examples/`` missing from the
   README's inventory, or the README naming an example that is gone.

Run:  python tools/check_docs.py   (exit 1 on any finding)
The CI ``docs`` job runs this; tests/test_docs.py wraps the same
functions so plain ``pytest`` catches rot too.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from typing import Callable, NamedTuple, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown files under the consistency contract.  SNIPPETS/PAPERS are
#: scraped reference material with external-repo paths; skip them.
DOC_FILES = [
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
    "docs/ARCHITECTURE.md", "docs/PAPER_MAP.md", "docs/OBSERVABILITY.md",
    "docs/SCALING.md",
]

#: CLI commands whose --help defines the set of legal flags.
CLI_COMMANDS = {
    "python -m repro.explore": [sys.executable, "-m", "repro.explore"],
    "python -m repro.lint": [sys.executable, "-m", "repro.lint"],
    "python -m repro.obs": [sys.executable, "-m", "repro.obs"],
    "python -m repro.load bakeoff": [
        sys.executable, "-m", "repro.load", "bakeoff"],
    "python -m repro.load trace": [
        sys.executable, "-m", "repro.load", "trace"],
    "python -m repro.load": [sys.executable, "-m", "repro.load"],
    "python -m repro": [sys.executable, "-m", "repro"],
    "python benchmarks/perf/run.py": [
        sys.executable, os.path.join("benchmarks", "perf", "run.py")],
}

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"```(?:bash|sh|console)?\n(.*?)```", re.DOTALL)
_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")


def _doc_paths() -> list[str]:
    return [p for p in DOC_FILES
            if os.path.exists(os.path.join(REPO, p))]


# ------------------------------------------------------------- 1. links

def check_links() -> list[str]:
    """Every relative markdown link must resolve to an existing file."""
    problems = []
    for rel in _doc_paths():
        path = os.path.join(REPO, rel)
        with open(path) as fh:
            text = fh.read()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target_path))
            if not os.path.exists(resolved):
                problems.append(f"{rel}: dead link -> {target}")
    return problems


# --------------------------------------------------------- 2. CLI drift

def _run(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``argv`` from the repo root against the in-tree package."""
    return subprocess.run(argv, capture_output=True, text=True, cwd=REPO,
                          env={**os.environ,
                               "PYTHONPATH": os.path.join(REPO, "src")})


def _help_flags(argv: list[str]) -> set[str]:
    out = _run(argv + ["--help"])
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} --help failed:\n"
                           f"{out.stderr}")
    return set(_FLAG_RE.findall(out.stdout))


def check_cli_blocks() -> list[str]:
    """Flags shown in fenced shell blocks must exist in live --help."""
    problems = []
    help_cache: dict[str, set] = {}
    for rel in _doc_paths():
        with open(os.path.join(REPO, rel)) as fh:
            text = fh.read()
        for block in _FENCE_RE.findall(text):
            for line in block.splitlines():
                line = line.strip()
                # Longest command prefix wins (python -m repro vs
                # python -m repro.explore).
                cmd = max((c for c in CLI_COMMANDS if c in line),
                          key=len, default=None)
                if cmd is None:
                    continue
                if cmd not in help_cache:
                    help_cache[cmd] = _help_flags(CLI_COMMANDS[cmd])
                for flag in _FLAG_RE.findall(line.split(cmd, 1)[1]):
                    if flag not in help_cache[cmd]:
                        problems.append(
                            f"{rel}: `{cmd} ... {flag}` — flag not in "
                            f"--help (CLI drift)")
    return problems


# ------------------------------------------------ 3. catalogue drift

def _found(pattern: str) -> Callable[[str], set]:
    """Entries captured by ``pattern``'s group (``^`` = line start)."""
    return lambda text: set(re.findall(pattern, text, re.MULTILINE))


def _usage_flags(help_text: str) -> set:
    # The usage block lists each accepted flag exactly once (option
    # descriptions mention other commands' flags; skip them).
    usage = help_text.split("\noptions:", 1)[0]
    return set(_FLAG_RE.findall(usage)) - {"--help"}


def _bullet_flags(section: str) -> set:
    # Only the bullet lines claim flags; prose references
    # (``--list-arrivals`` etc.) are out of scope.
    return {flag for line in section.splitlines()
            if line.startswith("* `--") for flag in _FLAG_RE.findall(line)}


class Catalogue(NamedTuple):
    """One catalogue: a live listing and the doc section listing it."""
    noun: str                     # what an entry is, for messages
    argv: list                    # ``python -m`` args printing the listing
    live: Callable[[str], set]    # entries in the listing's stdout
    doc: str                      # the doc holding the catalogue
    section: Optional[str]        # its ``## `` heading regex; None: all
    documented: Callable[[str], set]   # entries the section claims
    everywhere: bool = False      # look for unknown entries in every doc


CATALOGUES = {
    "rules": Catalogue(
        "rule", ["repro.lint", "--list-rules"], _found(r"^(L\d{3}):"),
        "docs/ARCHITECTURE.md", None, _found(r"\b(L\d{3})\b"),
        everywhere=True),
    "sched-classes": Catalogue(
        "class", ["repro.explore", "--list-sched-classes"],
        _found(r"^([A-Z]+):"), "docs/ARCHITECTURE.md",
        r"\d+\. Kernel scheduling classes",
        # Only the table's first column counts as a class claim; prose
        # backticks elsewhere (errno names etc.) are out of scope.
        _found(r"^\| `([A-Z]+)` \|")),
    "bakeoff-flags": Catalogue(
        "bakeoff flag", ["repro.load", "bakeoff", "--help"], _usage_flags,
        "docs/SCALING.md", "Flag reference", _bullet_flags),
    "arrivals": Catalogue(
        "arrival process", ["repro.load", "--list-arrivals"],
        _found(r"^([a-z]+):"), "docs/SCALING.md",
        "Arrival-process catalogue", _found(r"^\| `([a-z]+)` \|")),
}


def compare_catalogue(name: str, listing: str, docs: dict) -> list[str]:
    """Catalogue ``name``'s live ``listing`` against ``docs`` (doc path
    -> text), both ways: no undocumented entry, no unknown one."""
    row = CATALOGUES[name]
    live = row.live(listing)
    if not live:
        return [f"{' '.join(row.argv)} listed no {row.noun} entries"]
    section = docs[row.doc]
    if row.section is not None:
        m = re.search(rf"^## {row.section}\b.*?(?=^## |\Z)", section,
                      re.MULTILINE | re.DOTALL)
        if m is None:
            return [f"{row.doc}: '## {row.section}' section not found"]
        section = m.group(0)
    problems = [f"{row.doc}: {row.noun} {entry} missing from the catalogue"
                for entry in sorted(live - row.documented(section))]
    scanned = docs if row.everywhere else {row.doc: section}
    for rel, text in scanned.items():
        problems += [f"{rel}: names unknown {row.noun} {entry}"
                     for entry in sorted(row.documented(text) - live)]
    return problems


def check_catalogue(name: str) -> list[str]:
    """Run catalogue ``name``'s live listing and compare it with the
    docs (see :func:`compare_catalogue`)."""
    row = CATALOGUES[name]
    out = _run([sys.executable, "-m", *row.argv])
    if out.returncode != 0:
        return [f"{' '.join(row.argv)} failed:\n{out.stderr}"]
    docs = {}
    for rel in (_doc_paths() if row.everywhere else [row.doc]):
        with open(os.path.join(REPO, rel)) as fh:
            docs[rel] = fh.read()
    return compare_catalogue(name, out.stdout, docs)


# ------------------------------------------------- 4. example inventory

def check_example_inventory() -> list[str]:
    """examples/*.py and the README inventory must agree both ways."""
    problems = []
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    on_disk = {f for f in os.listdir(os.path.join(REPO, "examples"))
               if f.endswith(".py")}
    for fname in sorted(on_disk):
        if fname not in readme:
            problems.append(f"README.md: examples/{fname} not mentioned")
    for fname in set(re.findall(r"(\w+\.py)", readme)):
        if (fname.islower() and fname not in on_disk
                and os.sep not in fname
                and ("examples/" + fname) in readme):
            problems.append(f"README.md: examples/{fname} listed but "
                            f"missing on disk")
    return problems


def main() -> int:
    problems = check_links() + check_cli_blocks()
    for name in CATALOGUES:
        problems += check_catalogue(name)
    problems += check_example_inventory()
    for p in problems:
        print(f"DOCS: {p}")
    print(f"check_docs: {len(problems)} problem(s) across "
          f"{len(_doc_paths())} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
