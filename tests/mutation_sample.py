"""Seeded mutation sample of one gainops module (stdlib only; pytest does not collect it).

Each mutant flips one operator (arithmetic, augmented assignment, comparison
or unary minus) or changes one numeric constant of the module.  It is written
into a temporary copy of ``src`` and ``tests`` and run against the module's
tests, every other test file that imports the module by name, and the
non-slow acceptance tests; a mutant that every test passes survives.  Run
from the repository root:

    python tests/mutation_sample.py analysis --count 30 --seed 1

Mutants are drawn without replacement from every site of the module, so a
seed and a count name the same sample as long as the module is unchanged.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
    ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.USub: ast.UAdd,
}


def changed_constant(value):
    """The mutated value of a numeric constant: 0 becomes 1, an int doubles, a float grows by half."""
    if value == 0:
        return type(value)(1)
    return value * 2 if isinstance(value, int) else value * 1.5


def sites(tree):
    """(node, field, index, new) for every mutable operator and numeric constant, in walk order."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)) and type(node.op) in FLIPS:
            out.append((node, "op", None, FLIPS[type(node.op)]()))
        elif isinstance(node, ast.Compare):
            out += [(node, "ops", k, FLIPS[type(op)]()) for k, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            out.append((node, "value", None, changed_constant(node.value)))
    return out


def describe(source_lines, node, field, index, new):
    old = getattr(node, field) if index is None else getattr(node, field)[index]
    old, new = (old, new) if field == "value" else (type(old).__name__, type(new).__name__)
    return f"line {node.lineno}: {old} -> {new}    | {source_lines[node.lineno - 1].strip()}"


def mutant_source(source, k=None):
    """The module's source with site k mutated, or none if k is None (unparsed, so comments are dropped)."""
    tree = ast.parse(source)
    if k is not None:
        node, field, index, new = sites(tree)[k]
        if index is None:
            setattr(node, field, new)
        else:
            getattr(node, field)[index] = new
    return ast.unparse(tree)


def importers(module):
    """The test files that import ``gainops.<module>`` by name (``import``, ``from ... import``)."""
    name = f"gainops.{module}"
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hit = any(alias.name == name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == name or node.module == "gainops" and any(a.name == module for a in node.names)
            else:
                continue
            if hit:
                found.append(f"tests/{path.name}")
                break
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module name under src/gainops, e.g. analysis")
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per mutant; a timeout counts as killed")
    args = parser.parse_args(argv)

    source = (ROOT / "src" / "gainops" / f"{args.module}.py").read_text()
    lines = source.splitlines()
    found = sites(ast.parse(source))
    picks = sorted(random.Random(args.seed).sample(range(len(found)), min(args.count, len(found))))
    tests = list(dict.fromkeys([f"tests/test_{args.module}.py", *importers(args.module), "tests/test_acceptance.py"]))
    print(f"{args.module}: {len(found)} sites, {len(picks)} mutants, seed {args.seed}; {' '.join(tests)}", flush=True)

    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = Path(tmp) / "src" / "gainops" / f"{args.module}.py"
        # no bytecode cache: two mutants of one size written in one second would share a stale one
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests, "-m", "not slow"]

        def passes(text):
            target.write_text(text)
            try:
                return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=args.timeout).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        if not passes(mutant_source(source)):
            raise SystemExit("the tests fail on the unmutated (unparsed) module; no sample drawn")
        for k in picks:
            label = describe(lines, *found[k])
            survived = passes(mutant_source(source, k))
            print(f"{'SURVIVED' if survived else 'killed  '}  {label}", flush=True)
            if survived:
                survivors.append(label)
    print(f"{len(picks) - len(survivors)} / {len(picks)} killed; survivors:")
    for label in survivors:
        print(f"  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
