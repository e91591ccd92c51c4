"""Seeded mutation sampling: how many small faults in `src/quatstar` tier-1 kills.

Each mutant changes one site inside a function body: `+`/`-` swapped, `*` to
`+`, `//` to `*`, `<`/`<=` and `>`/`>=` swapped, `==`/`!=` swapped, `and`/`or`
swapped, `<<` to `>>`, `&` to `|`, or an int constant 0-3 raised by one.  The
script copies the repository to a temporary directory, writes one mutant at a
time there with `ast.unparse`, and runs tier-1 with `-x` in one child process
at a time, each under a timeout and an address-space cap.  The unmutated
`ast.unparse` output of every sampled module runs first and must pass.

A mutant is killed when tier-1 fails or times out; its line ends with the
first failing test id, or `timeout`, so a kill by a timing bound can be told
from one by a check of the result.  A survivor listed in
EQUIVALENT was reviewed and behaves as the original on every input; any other
survivor makes the script exit 1.  An EQUIVALENT entry of a sampled module
that matches no site's mutant is stale: the script prints it and exits 2
before any mutant runs.  pytest does not collect this file.  From the
repository root:

    python tests/mutants.py --seed 1 --count 40 star.py verify.py
"""

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "quatstar"
TIMEOUT_S = 300
ADDRESS_SPACE = 3 << 30

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
         ast.LShift: ast.RShift, ast.BitAnd: ast.BitOr, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.And: ast.Or, ast.Or: ast.And}

V1_REALS = "(1, -1, 2, Fraction(-3, 2), 0)"
V1_REAL_RECORD = ("add(_quat_forall, 'V1.real', 'Eq. (3)', 'conj(q1) = q1 for real q1', {}, "
                  "_eq_check(lambda x: x.conj(), lambda x: x, 'conj(q1)', 'q1'), reals_only=True)")

# (module, function, text before, text after) of the reviewed equivalent mutants.
EQUIVALENT = {
    # The triangle law holds, so gap = 0 or 0 < gap <= 1 never separates.
    ("verify.py", "_registry.triangle_check", "gap <= 0", "gap < 0"),
    ("verify.py", "_registry.triangle_check", "gap <= 0", "gap <= 1"),
    # V1.real holds for every real, so any five fixed reals give its record.
    *(("verify.py", "_arg_tuples", before, after) for before, after in [
        (V1_REALS, "(2, -1, 2, Fraction(-3, 2), 0)"), ("-1", "-2"),
        (V1_REALS, "(1, -1, 3, Fraction(-3, 2), 0)"), ("-3", "-4"),
        ("Fraction(-3, 2)", "Fraction(-3, 3)"), (V1_REALS, "(1, -1, 2, Fraction(-3, 2), 1)")]),
    # _arg_tuples reads no arity when reals_only is set.
    ("verify.py", "_registry", V1_REAL_RECORD.format(1), V1_REAL_RECORD.format(2)),
    # Every nonzero quaternion's left and right inverses agree, so both
    # products are 1 or neither is.
    ("verify.py", "_registry.inverse_check", "left == ONE and right == ONE",
     "left == ONE or right == ONE"),
    # A packed monomial of total degree EXPONENT_LIMIT + 1 has a nonzero
    # exponent field, so it never equals the guard; mono_mul decides.  (A
    # signed-unit key is a monomial shifted by 2 over its unit bits.)
    ("poly.py", "mul_unit_rows", "mono >= guard", "mono > guard"),
    ("poly.py", "add_partial_unit_rows", "moved >= guard", "moved > guard"),
    ("poly.py", "mono_mul", "product >= DEGREE_GUARD", "product > DEGREE_GUARD"),
    *((module, function, "mono >= DEGREE_GUARD", "mono > DEGREE_GUARD") for module, function in [
        ("poly.py", "mul_rows"), ("poly.py", "add_partial_rows"), ("poly.py", "QPolynomial.__mul__"),
        ("oracle.py", "_add_product")]),
    # The exp == 1 branch comes first, and quat_text signs only nonzero values.
    ("poly.py", "mono_text", "exp > 1", "exp >= 1"),
    ("quat.py", "quat_text", "value < 0", "value <= 0"),
    # The early return only shortens the loop: cap 0 stops it before its
    # first order, and with no steps its first order has no pair.
    ("oracle.py", "_order_sums", "cap == 0 or not steps", "cap == 0 and (not steps)"),
    # random() returns exactly 0.3 with probability 2**-53 per draw.
    ("oracle.py", "random_monomial", "rng.random() < 0.3", "rng.random() <= 0.3"),
}


def _sites(tree):
    """[(function, shown, mutate)] in a fixed order: `mutate()` changes one
    site in place, and `shown` is the node whose text names the mutant."""
    sites = []

    def swap(node, field, index=None):
        def mutate():
            if index is None:
                setattr(node, field, SWAPS[type(getattr(node, field))]())
            else:
                getattr(node, field)[index] = SWAPS[type(getattr(node, field)[index])]()
        return mutate

    def visit(node, parent, scope, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                visit(stmt, node, scope + (node.name,), True)
            return
        if isinstance(node, ast.ClassDef):
            scope += (node.name,)
        name = ".".join(scope)
        if inside and isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) \
                and type(node.op) in SWAPS:
            sites.append((name, node, swap(node, "op")))
        if inside and isinstance(node, ast.Compare):
            sites.extend((name, node, swap(node, "ops", index))
                         for index, op in enumerate(node.ops) if type(op) in SWAPS)
        if inside and isinstance(node, ast.Constant) and type(node.value) is int \
                and 0 <= node.value <= 3:
            sites.append((name, parent, lambda: setattr(node, "value", node.value + 1)))
        for child in ast.iter_child_nodes(node):
            visit(child, node, scope, inside)

    visit(tree, None, (), False)
    return sites


def _mutant(source, index):
    """(function, before, after, mutated tree) of site `index` of `source`."""
    tree = ast.parse(source)
    name, shown, mutate = _sites(tree)[index]
    before = ast.unparse(shown)
    mutate()
    return name, before, ast.unparse(shown), tree


def _stale(sources):
    """The EQUIVALENT entries of the modules in `sources` that match no
    site's (function, before, after), sorted."""
    listed = {entry for entry in EQUIVALENT if entry[0] in sources}
    for module, source in sources.items():
        functions = {function for entry_module, function, _, _ in listed if entry_module == module}
        for index, (name, _, _) in enumerate(_sites(ast.parse(source))):
            if name in functions:
                listed.discard((module, *_mutant(source, index)[:3]))
    return sorted(listed)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _tier1(copy):
    """(outcome, first) for tier-1 in `copy`, stopping at the first failure:
    ('passed', None), ('failed', the first failing test id, or pytest's exit
    code if it names none) or ('timeout', 'timeout')."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    try:
        # No bytecode cache: a mutant can keep its module's size and mtime second.
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(command, cwd=copy, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=TIMEOUT_S, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired:
        return "timeout", "timeout"
    if done.returncode == 0:
        return "passed", None
    # pytest's short summary: "FAILED <id> - <message>" or "ERROR <id> ...".
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "failed", failed[0] if failed else f"exit {done.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("modules", nargs="*", help="files under src/quatstar (default: all)")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(path.name for path in (ROOT / PACKAGE).glob("*.py"))
    sources = {module: (ROOT / PACKAGE / module).read_text(encoding="utf-8") for module in modules}
    if stale := _stale(sources):
        print("EQUIVALENT entries that match no mutant; no mutant run:")
        for entry in stale:
            print("  " + " | ".join(entry))
        return 2
    population = [(module, index) for module in modules
                  for index in range(len(_sites(ast.parse(sources[module]))))]
    sample = random.Random(args.seed).sample(population, min(args.count, len(population)))
    print(f"{len(sample)} mutants of {len(population)} sites in {', '.join(modules)}")
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for module in modules:
            (copy / PACKAGE / module).write_text(ast.unparse(ast.parse(sources[module])))
        baseline, first = _tier1(copy)
        if baseline != "passed":
            print(f"unmutated modules: tier-1 {baseline} ({first}); no mutant run")
            return 2
        counts = {"killed": 0, "equivalent": 0, "survived": 0}
        for module, index in sample:
            name, before, after, tree = _mutant(sources[module], index)
            target = copy / PACKAGE / module
            original = target.read_text()
            target.write_text(ast.unparse(tree))
            outcome, first = _tier1(copy)
            target.write_text(original)
            if outcome != "passed":
                verdict = "killed"
            elif (module, name, before, after) in EQUIVALENT:
                verdict = "equivalent"
            else:
                verdict = "survived"
            counts[verdict] += 1
            print(f"{verdict:<10} {module} {name}: {before} -> {after}"
                  + (f" ({first})" if first else ""), flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
