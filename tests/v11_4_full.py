"""All 125 V11.4 associators on `refimpl`'s third route (about 4 s).

Tier-1 checks a seeded sample of them (tests/test_catalogue_route.py); this
script checks every candidate and exits 1 if any associator is nonzero.
pytest does not collect it.  From the repository root:

    PYTHONPATH=src python tests/v11_4_full.py
"""

import sys
import time

import refimpl
from quatstar import verify


def main() -> int:
    start = time.perf_counter()
    candidates = verify._assoc_candidates(verify._registry()["V11.4"].args[3])
    memo = {}
    nonzero = [desc for desc, lhs, rhs in candidates
               if refimpl.text_parts(lhs, memo) != refimpl.text_parts(rhs, memo)]
    elapsed = time.perf_counter() - start
    for desc in nonzero:
        print(f"nonzero associator: {desc}")
    print(f"V11.4: {len(candidates) - len(nonzero)} of {len(candidates)} associators "
          f"vanish on the third route ({elapsed:.1f} s)")
    return 1 if nonzero else 0


if __name__ == "__main__":
    sys.exit(main())
