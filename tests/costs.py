"""Exact work counts of the star engine's and the oracle's kernels on fixed inputs.

The engine's four row kernels (`mul_rows`, `mul_unit_rows`,
`add_partial_rows`, `add_partial_unit_rows`) are wrapped where `quatstar.star`
binds them, and the oracle's `_add_product` and `_gradient` in
`quatstar.oracle`, from outside `src/`, and restored after each input.  For
each input the script prints one JSON line: the input, the term pairs the
products formed (left rows times right rows, for the oracle times the terms
of the pair's weight, summed over their calls), the calls per kernel and the
terms of the result.  The counts do not depend on the host, so a change that
claims less work quotes them before and after.  pytest does not collect this
file; `tests/test_star.py` bounds three engine inputs and
`tests/test_oracle.py` one oracle input.  From the repository root:

    python tests/costs.py
"""

import importlib
import json
import sys
from contextlib import contextmanager
from math import prod
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from quatstar.poly import QPolynomial, gen_q, gen_qbar  # noqa: E402
from quatstar.quat import Quaternion  # noqa: E402

star_module = importlib.import_module("quatstar.star")  # `quatstar.star` is the function
oracle_module = importlib.import_module("quatstar.oracle")
KERNELS = ("mul_rows", "mul_unit_rows", "add_partial_rows", "add_partial_unit_rows")
ORACLE_KERNELS = ("_add_product", "_gradient")
# The arguments whose lengths multiply into a product kernel's term pairs.
PAIR_ARGS = {"mul_rows": slice(1, 3), "mul_unit_rows": slice(1, 3), "_add_product": slice(1, 4)}
Q, QBAR = gen_q(), gen_qbar()

# Each input's name maps to (module, its wrapped kernels, the computation).
INPUTS = {
    **{f"star(q^{n}, qbar^{n})": (star_module, KERNELS,
                                  lambda n=n: star_module.star(Q ** n, QBAR ** n))
       for n in range(6, 10)},
    "associator(q^3, qbar^2, q^2)": (star_module, KERNELS, lambda: star_module.associator(
        Q ** 3, QBAR ** 2, Q ** 2)),
    "star((1 + i) q^4, qbar^4)": (star_module, KERNELS, lambda: star_module.star(
        QPolynomial.constant(Quaternion(1, 1, 0, 0)) * Q ** 4, QBAR ** 4)),
    **{f"star_oracle(q^{n}, qbar^{n})": (oracle_module, ORACLE_KERNELS,
                                         lambda n=n: oracle_module.star_oracle(Q ** n, QBAR ** n))
       for n in range(4, 8)},
}


@contextmanager
def counting(module, kernels):
    """A dict of counts, "pairs" and one per kernel, that grows while the
    block runs with `kernels` wrapped on `module`."""
    counts = dict.fromkeys(("pairs", *kernels), 0)

    def wrap(name, kernel):
        def counted(*args):
            counts[name] += 1
            if name in PAIR_ARGS:
                counts["pairs"] += prod(len(arg) for arg in args[PAIR_ARGS[name]])
            return kernel(*args)
        return counted

    originals = {name: getattr(module, name) for name in kernels}
    try:
        for name, kernel in originals.items():
            setattr(module, name, wrap(name, kernel))
        yield counts
    finally:
        for name, kernel in originals.items():
            setattr(module, name, kernel)


def measure(name):
    """The counts of input `name`, plus "terms", the terms of its result."""
    module, kernels, compute = INPUTS[name]
    with counting(module, kernels) as counts:
        result = compute()
    return {**counts, "terms": len(result)}


if __name__ == "__main__":
    for name in INPUTS:
        print(json.dumps({"input": name, **measure(name)}), flush=True)
