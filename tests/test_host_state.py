"""No host state in a run: the static half of the hermeticity rule.

``id()`` is a host address.  A table keyed by it hands a dead object's
entry to whatever the host allocates at that address next, and a report
that prints it differs from one interpreter run to the next.  Key by the
object, or name the thing, instead.  Each allowed file says why its uses
cannot reach a result.

A module- or class-level ``itertools.count()`` outlives a simulation:
every run in the host process draws from it, so what a run sees depends
on what ran before.  Count per kernel, or keep creation order in a dict.

Both scans cover ``src/repro`` except ``lint/``, which keys its own AST
nodes while they are alive and never runs inside a simulation.
"""

import ast
import functools
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Path under src/repro -> why its ``id()`` calls are harmless.
ALLOWED = {
    "sync/guards.py": "the undriven-generator guard's warning label",
    "sync/variants.py": "the default name of an unnamed sync variable, "
                        "which metrics fold into <anon>",
}


def _id_calls(path: pathlib.Path) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "id"]


def _process_counters(path: pathlib.Path) -> list[int]:
    """Lines of ``itertools.count()`` calls outside every function body,
    where they run once per host process."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"itertools.count"} | {
        a.asname or a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for a in node.names if a.name == "count"}
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func) in names):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


@functools.cache
def _scanned(scan=_id_calls) -> dict[str, list[int]]:
    calls = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith("lint/"):
            calls[rel] = scan(path)
    return calls


def test_no_id_calls_outside_the_allow_list():
    found = [f"{rel}:{line}" for rel, lines in _scanned().items()
             if rel not in ALLOWED for line in lines]
    assert found == []


def test_every_allowed_file_still_needs_its_entry():
    calls = _scanned()
    assert [rel for rel in ALLOWED if not calls.get(rel)] == []


def test_no_counter_outlives_a_simulation():
    found = [f"{rel}:{line}"
             for rel, lines in _scanned(_process_counters).items()
             for line in lines]
    assert found == []
