"""Fault-injection self-test of the benchmark's output checks.

    python3 bench/selftest.py

Builds a small version of each workload and runs one pass of it twice:
with the real engine, where no item may fail, and with the engine's `star`
replaced, under every name it is bound to, by `star(f, g) + nu` (the fault
acceptance criterion 8 injects), where the failure ratio must be above 0.
Exits 0 when both hold on every workload.
"""

from __future__ import annotations

import sys

import tracer as T
import workloads as W


def checked_pass(workload):
    result = W.check_pass(workload, W.run_pass(workload))
    return len(result.failed_items) / result.attempted, result.final_ok


def main() -> int:
    W.import_quatstar()
    S, P = W.mod("star"), W.mod("poly")
    engine_star = S.star
    nu = P.QPolynomial.variable("nu")

    def wrong_star(f, g, config=S.DEFAULT_CONFIG):
        return engine_star(f, g, config) + nu

    all_ok = True
    for name in W.WORKLOADS:
        workload = W.build(name, 0, small=True)
        real_ratio, real_final_ok = checked_pass(workload)
        patched = T.rebind(engine_star, wrong_star)
        try:
            injected_ratio, _ = checked_pass(workload)
        finally:
            T.restore(patched)
        ok = real_ratio == 0 and real_final_ok and injected_ratio > 0
        all_ok &= ok
        print(f"{name:<10} {len(workload.items):>3} items  fail_ratio real {real_ratio:.3f}, "
              f"injected {injected_ratio:.3f}  {'ok' if ok else 'FAILED'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
