"""Check an operation's report against its stored reference.

Rules, per column (``RULES``):

- ``exact``: integers and strings match exactly.
- ``rel:T``: floats match to relative tolerance T.  T is 1e-12 (the ROADMAP
  bound for reported constants) unless the column's measured noise is
  larger; README.md lists the noise behind each wider T.
- ``err``: an error column, checked only against the runner's own
  tolerance (the report's ``tol`` parameter), never against the stored
  value.
- ``seeded:T``: depends on the random input.  Compared at relative
  tolerance T where a reference exists for this seed (the default and the
  held-out seed); for other seeds only checked to be finite.
- ``argmax``: the argument of a maximum.  A different argument is accepted
  when the value there, recomputed through the public API, ties the
  reference maximum within that column's tolerance.

Parameters and metadata must match, except the seed itself when the
reference comes from another seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

REL = "rel:1e-12"

RULES: dict[str, dict[str, str]] = {
    "high-low": {
        "J": "exact", "trial": "exact", "split_err": "err",
        "high_ratio": "seeded:1e-12", "high_ref": REL,
        "low_ratio": "seeded:1e-12", "low_ref": REL,
    },
    "c8-sample": {"piece": "exact", "sum_abs": "rel:1e-10", "max_abs": REL},
    "c8-trial": {"J": "exact", "split_err": "err", "high_ratio": "seeded:1e-12", "low_ratio": "seeded:1e-11"},
    "lowpass-scan": {"J": "exact", "argmax_x": "argmax", "max_S": REL, "max_S_per_log2": REL},
    "fjk-constant": {
        "N": "exact", "max_normalized": REL, "argmax_xi_num": "argmax", "argmax_q": "argmax",
    },
    "multifreq": {"s": "exact", "n_scales": "exact", "max_ratio": "seeded:1e-12", "normalized": "seeded:1e-12"},
    "c7-sweep": {"s": "exact", "M": "exact", "sup_c": REL, "normalized": REL},
    "gauss-check": {"q": "exact", "max_err_G": "err", "max_err_G0": "err", "max_err_norm": "err"},
    "hsum-identities": {"identity": "exact", "cases": "exact", "max_err": "err"},
    "sqrt-count-vector": {"q_lo": "exact", "q_hi": "exact", "total": "exact", "sha256": "exact"},
    "sparse-demo": {"quantity": "exact", "value": "seeded:1e-12"},
    "improving-ratio": {
        "N": "exact", "max_ratio": "seeded:1e-12", "const_ratio": REL,
        "extremal_pairing": REL, "extremal_lower": REL,
    },
    "orlicz-ratio": {"N": "exact", "max_ratio": "seeded:1e-12", "full_ratio": REL, "extremal_ratio": REL},
}


def _tol(rule: str) -> float:
    return float(rule.split(":")[1])


def _close(a, b, tol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= tol * max(abs(a), abs(b))
    return a == b


def _same_value(a, b) -> bool:
    """Parameters and metadata: exact, floats to 1e-12."""
    if isinstance(a, float) or isinstance(b, float):
        return _close(a, b, 1e-12)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    return a == b


def compare(got_text: str, ref: dict, same_seed: bool) -> list[str]:
    """Mismatches between a report (as rendered) and its reference."""
    got = json.loads(got_text)
    name = ref["name"]
    if got.get("name") != name or got.get("columns") != ref["columns"]:
        return [f"{name}: name or columns differ"]
    problems = []
    for section in ("parameters", "metadata"):
        want, have = ref.get(section, {}), got.get(section, {})
        keys = set(want) | set(have)
        if not same_seed:
            keys.discard("seed")
        for k in sorted(keys):
            if not _same_value(have.get(k), want.get(k)):
                problems.append(f"{name}: {section}.{k} = {have.get(k)!r}, reference {want.get(k)!r}")
    if len(got["rows"]) != len(ref["rows"]):
        return problems + [f"{name}: {len(got['rows'])} rows, reference {len(ref['rows'])}"]
    rules = RULES[name]
    tol_param = got.get("parameters", {}).get("tol")
    for r, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        for c, col in enumerate(ref["columns"]):
            rule, v, w = rules[col], row[c], ref_row[c]
            where = f"{name}: row {r} {col} = {v!r}"
            if rule == "exact":
                ok = v == w and type(v) is type(w)
            elif rule == "err":
                ok = isinstance(v, (int, float)) and 0 <= v <= tol_param
                where += f" (tolerance {tol_param})"
            elif rule.startswith("rel:"):
                ok = _close(v, w, _tol(rule))
            elif rule.startswith("seeded:"):
                ok = _close(v, w, _tol(rule)) if same_seed else isinstance(v, (int, float)) and math.isfinite(v)
            elif rule == "argmax":
                ok = v == w or _argmax_ties(name, got, row, ref_row)
            else:
                raise ValueError(f"unknown rule {rule!r}")
            if not ok:
                problems.append(f"{where}, reference {w!r}")
    return problems


def _argmax_ties(name: str, report: dict, row: list, ref_row: list) -> bool:
    """Recompute the maximised value at the reported argument and compare
    it with the reference maximum."""
    cols = report["columns"]
    if name == "lowpass-scan":
        from sqlab import hsums

        J, x = row[cols.index("J")], row[cols.index("argmax_x")]
        value = math.fsum(abs(hsums.h_sum("H", q, x)) / q for q in range(1, J + 1))
        return _close(value, ref_row[cols.index("max_S")], _tol(RULES[name]["max_S"]))
    if name == "fjk-constant":
        from sqlab import circle

        N, j = row[cols.index("N")], row[cols.index("argmax_xi_num")]
        xi = Fraction(j, report["parameters"]["grid"])
        _, normalized = circle.fjk_remainder(xi, N)
        tol = _tol(RULES[name]["max_normalized"])
        return (
            _close(normalized, ref_row[cols.index("max_normalized")], tol)
            and circle.dirichlet_approx(xi, N).q == row[cols.index("argmax_q")]
        )
    return False
