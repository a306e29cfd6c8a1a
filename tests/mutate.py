"""Mutation runs: find the checks in a module that no focused test catches.

    python tests/mutate.py src/scmkit/identify.py

Run it from the repository root.  Each mutant changes one site of the
module's syntax tree: a comparison becomes its negation (== and !=, < and
>=, <= and >, in and not in, is and is not), `and` and `or` swap, a `not`
is dropped, `|` and `&` swap, or `+` and `-` swap (in `+=` and `-=` too).
Annotations are left alone: under `from __future__ import annotations` no
mutant of one can fail a test.

The module's focused test files (`FOCUSED`) run with `-x` against a copy of
`src/` and `tests/` in a temporary directory that holds the mutant and is
removed at the end; the repository itself is never written.  A mutant that
fails a test is killed, one that runs past `TIMEOUT` seconds is hung, one
that passes survives.  `tests/mutation_survivors.json` holds, per module,
the tally of its last run and each survivor with the reason it is equivalent
to the original code; the run prints every survivor and exits 1 when one
is not listed there.  Not collected by pytest: its name does not start
with `test_`.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SURVIVORS = ROOT / "tests" / "mutation_survivors.json"
TIMEOUT = 300  # seconds; a killed mutant of identify.py takes about 3.5 s

# module -> the test files whose subject it is, run for each of its mutants.
FOCUSED = {
    "casecontrol.py": ["test_casecontrol.py"],
    "cli.py": ["test_cli.py", "test_cli_contract.py", "test_replay.py", "test_report_corpus.py"],
    "diagnostics.py": ["test_diagnostics.py"],
    "docalc.py": ["test_docalc.py", "test_scans.py"],
    "errors.py": ["test_records.py"],
    "estimands.py": ["test_estimands.py", "test_scans.py", "test_bindings.py"],
    "examples.py": ["test_examples.py", "test_cli_contract.py"],
    "exogenous.py": ["test_exogenous.py"],
    "gaussian.py": ["test_gaussian.py"],
    "graph.py": ["test_graph.py", "test_graph_oracle.py"],
    "identify.py": ["test_identify.py", "test_scans.py", "test_bindings.py",
                    "test_float_kernels.py"],
    "scm.py": ["test_scm.py", "test_scans.py", "test_float_kernels.py", "test_imports.py",
               "test_exogenous.py"],
}

_NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPPED = {ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.Add: ast.Sub, ast.Sub: ast.Add,
            ast.And: ast.Or, ast.Or: ast.And}


def _nodes(tree: ast.AST):
    """Every node of the tree in a fixed order, annotations left out."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        skip = set()
        if isinstance(node, ast.arg):
            skip.add("annotation")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip.add("returns")
        elif isinstance(node, ast.AnnAssign):
            skip.add("annotation")
        children = []
        for name, value in ast.iter_fields(node):
            if name in skip:
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    children.append(child)
        stack.extend(reversed(children))


def _sites(node: ast.AST) -> list:
    """The mutations of one node, as (slot, new operator class or None)."""
    if isinstance(node, ast.Compare):
        return [(i, _NEGATED[type(op)]) for i, op in enumerate(node.ops)]
    if isinstance(node, ast.BoolOp):
        return [(None, _SWAPPED[type(node.op)])]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [(None, None)]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
        return [(None, _SWAPPED[type(node.op)])]
    return []


class _Drop(ast.NodeTransformer):
    """Replaces one `not x` by `x`."""

    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutants(source: str):
    """(label, mutated source) for every site of the module."""
    count = sum(len(_sites(n)) for n in _nodes(ast.parse(source)))
    for k in range(count):
        tree = ast.parse(source)
        sites = [(n, slot, new) for n in _nodes(tree) for slot, new in _sites(n)]
        node, slot, new = sites[k]
        before = ast.unparse(node)
        if isinstance(node, ast.Compare):
            node.ops[slot] = new()
        elif new is not None:
            node.op = new()
        after = ast.unparse(node if new else node.operand)
        if new is None:
            tree = _Drop(node).visit(tree)
        yield f"L{node.lineno}: {before} -> {after}", ast.unparse(tree)


def _run(workdir: Path, files: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(f"tests/{f}" for f in files)]
    try:
        done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "hung"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("module", help="path of the module under src/scmkit")
    module = Path(p.parse_args(argv).module).resolve()
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        return _mutate(module, Path(tmp))


def _mutate(module: Path, workdir: Path) -> int:
    files = FOCUSED[module.name]
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, workdir / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    target = workdir / module.relative_to(ROOT)
    source = module.read_text(encoding="utf-8")
    known = json.loads(SURVIVORS.read_text(encoding="utf-8")).get(module.name, {})
    known = known.get("survivors", {})
    tally, unexplained = {"killed": 0, "hung": 0, "survived": 0}, 0
    if _run(workdir, files) != "survived":
        print("the focused tests fail on the unmutated module", file=sys.stderr)
        return 2
    for label, mutated in mutants(source):
        target.write_text(mutated, encoding="utf-8")
        start = time.perf_counter()
        verdict = _run(workdir, files)
        tally[verdict] += 1
        if verdict == "survived":
            reason = known.get(label)
            unexplained += reason is None
            print(f"SURVIVED {label}  ({reason or 'not in the survivors file'})")
        else:
            print(f"{verdict} in {time.perf_counter() - start:.1f} s: {label}")
        sys.stdout.flush()
    print(json.dumps({"module": module.name, "tests": files, **tally, "unexplained": unexplained}))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
