"""Exact work counts of the star engine's row kernels on fixed inputs.

The four row kernels (`mul_rows`, `mul_unit_rows`, `add_partial_rows`,
`add_partial_unit_rows`) are wrapped where `quatstar.star` binds them, from
outside `src/`, and restored after each input.  For each input the script
prints one JSON line: the input, the term pairs the two products formed
(left rows times right rows, summed over their calls), the calls per kernel
and the terms of the result.  The counts do not depend on the host, so a
change that claims less work quotes them before and after.  pytest does not
collect this file; `tests/test_star.py` bounds three of its inputs.  From the
repository root:

    python tests/costs.py
"""

import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from quatstar.poly import QPolynomial, gen_q, gen_qbar  # noqa: E402
from quatstar.quat import Quaternion  # noqa: E402

star_module = importlib.import_module("quatstar.star")  # `quatstar.star` is the function
KERNELS = ("mul_rows", "mul_unit_rows", "add_partial_rows", "add_partial_unit_rows")
Q, QBAR = gen_q(), gen_qbar()

INPUTS = {
    **{f"star(q^{n}, qbar^{n})": (lambda n=n: star_module.star(Q ** n, QBAR ** n))
       for n in range(6, 10)},
    "associator(q^3, qbar^2, q^2)": lambda: star_module.associator(Q ** 3, QBAR ** 2, Q ** 2),
    "star((1 + i) q^4, qbar^4)": lambda: star_module.star(
        QPolynomial.constant(Quaternion(1, 1, 0, 0)) * Q ** 4, QBAR ** 4),
}


@contextmanager
def counting():
    """A dict of counts, "pairs" and one per kernel, that grows while the
    block runs with the kernels on `quatstar.star` wrapped."""
    counts = dict.fromkeys(("pairs", *KERNELS), 0)

    def wrap(name, kernel):
        def counted(*args):
            counts[name] += 1
            if name in ("mul_rows", "mul_unit_rows"):
                counts["pairs"] += len(args[1]) * len(args[2])
            return kernel(*args)
        return counted

    originals = {name: getattr(star_module, name) for name in KERNELS}
    try:
        for name, kernel in originals.items():
            setattr(star_module, name, wrap(name, kernel))
        yield counts
    finally:
        for name, kernel in originals.items():
            setattr(star_module, name, kernel)


def measure(name):
    """The counts of input `name`, plus "terms", the terms of its result."""
    with counting() as counts:
        result = INPUTS[name]()
    return {**counts, "terms": len(result)}


if __name__ == "__main__":
    for name in INPUTS:
        print(json.dumps({"input": name, **measure(name)}), flush=True)
