"""Regenerate the reference outputs in bench/ref/.

    python3 bench/make_refs.py

- ref/catalogue.json: the `verify --format json` report, captured from the
  engine at the commit that defined the benchmark.  Later commits must
  reproduce it byte for byte.
- ref/highdeg.json: SHA-256 digests of the canonical text of the highdeg
  star products, computed by the series-enumeration oracle (never by the
  engine under test), with digests of the operands they belong to.

Regenerating catalogue.json accepts whatever the current engine reports,
so do it only when the catalogue's expected output has deliberately
changed.
"""

from __future__ import annotations

import json

import workloads as W


def main() -> None:
    W.import_quatstar()
    V, O, P = W.mod("verify"), W.mod("oracle"), W.mod("poly")
    W.REF_DIR.mkdir(exist_ok=True)
    report = V.render_report(V.run_all(), "json")
    (W.REF_DIR / "catalogue.json").write_text(report, encoding="utf-8")

    pairs = []
    for index, (f, g) in enumerate(W.highdeg_pairs()):
        pairs.append({"operands": W.digest(f) + W.digest(g),
                      "star": W.digest(O.star_oracle(f, g))})
        print(f"pair {index + 1}/{W.HIGHDEG_PAIRS}", flush=True)
    q, qbar = P.gen_q(), P.gen_qbar()
    qqbar = {str(n): W.digest(O.star_oracle(q ** n, qbar ** n)) for n in W.QQBAR_POWERS}
    refs = {"pair_seed": W.PAIR_SEED, "pairs": pairs, "qqbar": qqbar}
    (W.REF_DIR / "highdeg.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
