"""Output checks for the nfcrb benchmark.

Every operation's user-visible result is reduced to a list of
(name, kind, text) fields: the headline numbers exactly as the program
printed or wrote them.  A result matches its reference when the exit codes
agree and every field agrees for its kind:

* ``exact``: grid displacements, box positions, FIM ranks and counts must be
  the same text;
* ``num``: det and the det / gf / power objectives may differ by
  ``RTOL["num"]`` relative plus one unit in the last printed digit;
* ``crb``: CRB values and crb objectives of a full-rank information matrix
  may differ by ``RTOL["crb"]`` relative plus one unit in the last digit;
* ``pinv``: CRB values and crb objectives that the program computed with a
  pseudo-inverse, because it reported the information matrix rank deficient,
  may differ by ``RTOL["pinv"]`` relative plus one unit in the last digit;
* ``row``: a sweep CSV row; point, mode and FIM rank exact, det as ``num``,
  the two bound totals as ``crb`` or ``pinv`` by the row's rank.

The CRB tolerances are measured.  Replacing the trace loop of ``fim_generic``
with a mathematically equal ``solve`` + ``einsum`` left every exit code,
rank, displacement, position and det unchanged on the seeded inputs of seeds
0..19.  It moved pseudo-inverse bounds by up to 1.5e-3 relative (the after
report of ``s13_m6n5/grid-gf``, search_phase seed 11), full-rank bounds of
ill-conditioned matrices by up to 6.8e-5 (``s03_m6n3/linesearch-crb_r``,
search_bound seed 2), and full-rank crb objectives by up to 2.3e-6.  Each
tolerance is about seven times the largest move of its kind.
"""

from __future__ import annotations

import math
import re

RTOL = {"num": 1e-9, "crb": 5e-4, "pinv": 1e-2}

_NUM = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)"


def _ranks(text: str) -> list[tuple[str, bool]]:
    """(rank/size, rank deficient?) of every report in the text, in order."""
    rx = r"^FIM rank: (\d+/\d+)( \(rank deficient)?"
    return [(m.group(1), bool(m.group(2))) for m in re.finditer(rx, text, re.M)]


def fields_compute(text: str) -> list[tuple[str, str, str]]:
    """det, FIM rank, then the per-source and total bounds of every report in the text."""
    out = []
    for i, m in enumerate(re.finditer(rf"^det\(R_x\): ({_NUM})$", text, re.M)):
        out.append((f"det{i}", "num", m.group(1)))
    ranks = _ranks(text)
    out += [(f"rank{i}", "exact", rank) for i, (rank, _) in enumerate(ranks)]
    for axis in ("bearing", "range"):
        rx = rf"^CRB {axis} \([^)]*\): \[([^\]]*)\], total ({_NUM})$"
        for i, m in enumerate(re.finditer(rx, text, re.M)):
            kind = "pinv" if i < len(ranks) and ranks[i][1] else "crb"
            values = [v.strip() for v in m.group(1).split(",")]
            out.append((f"{axis}{i}.count", "exact", str(len(values))))
            out += [(f"{axis}{i}[{j}]", kind, v) for j, v in enumerate(values)]
            out.append((f"{axis}{i}.total", kind, m.group(2)))
    return out


def fields_validate(stdout: str) -> list[tuple[str, str, str]]:
    m = re.search(r"^(OK|FAILED): (\d+) failing check", stdout, re.M)
    return [("verdict", "exact", m.group(0) if m else "missing")]


def fields_reposition(stdout: str) -> list[tuple[str, str, str]]:
    """Displacement and objectives, then the before (0) and after (1) reports."""
    m = re.search(r"^plan: .*, objective (\w+)$", stdout, re.M)
    crb = bool(m and m.group(1).startswith("crb"))
    deficient = [d for _, d in _ranks(stdout)] + [False, False]
    out = []
    m = re.search(r"^displacement: (\S+) m", stdout, re.M)
    out.append(("displacement", "exact", m.group(1) if m else "missing"))
    m = re.search(rf"^objective before/after: ({_NUM}) / ({_NUM})$", stdout, re.M)
    for k, when in enumerate(("before", "after")):
        kind = ("pinv" if deficient[k] else "crb") if crb else "num"
        out.append((f"objective_{when}", kind, m.group(k + 1) if m else "missing"))
    return out + fields_compute(stdout)


def fields_sweep_csv(csv_text: str) -> list[tuple[str, str, str]]:
    """The header, then one field per row: point, mode, det, the two totals and the FIM rank.

    The rank comes from the row's free-text flags ("full" when none is
    reported); the rest of the flags is not compared.
    """
    lines = csv_text.splitlines()
    out = [("header", "exact", lines[0] if lines else "missing")]
    for i, line in enumerate(lines[1:]):
        cols = line.split(",")
        m = re.search(r"rank deficient \((\d+/\d+)\)", cols[5] if len(cols) > 5 else "")
        out.append((f"row{i}", "row", ",".join(cols[:5] + [m.group(1) if m else "full"])))
    return out


def fields_box(plan) -> list[tuple[str, str, str]]:
    x, y = plan.new_position_m
    return [
        ("position", "exact", f"{x!r},{y!r}"),
        ("objective_before", "num", f"{plan.objective_before:.15e}"),
        ("objective_after", "num", f"{plan.objective_after:.15e}"),
    ]


def _last_digit_unit(text: str) -> float:
    """One unit in the last printed digit of a decimal or scientific literal."""
    m = re.fullmatch(r"[-+]?\d+(?:\.(\d*))?(?:[eE]([-+]?\d+))?", text.strip())
    if not m:
        return 0.0
    decimals = len(m.group(1) or "")
    exponent = int(m.group(2) or 0)
    return 10.0 ** (exponent - decimals)


def value_matches(kind: str, ref: str, got: str) -> bool:
    if ref == got:
        return True
    if kind == "row":
        a, b = ref.split(","), got.split(",")
        bounds = "crb" if a[-1] == "full" else "pinv"
        return (
            len(a) == len(b) == 6
            and (a[:2], a[5]) == (b[:2], b[5])
            and value_matches("num", a[2], b[2])
            and all(value_matches(bounds, x, y) for x, y in zip(a[3:5], b[3:5]))
        )
    if kind not in RTOL:
        return False
    try:
        x, y = float(ref), float(got)
    except ValueError:
        return False
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    return abs(x - y) <= RTOL[kind] * abs(x) + _last_digit_unit(ref)


def as_reference(got: dict) -> dict:
    """What a reference file stores for one operation: exit code and field texts."""
    return {"rc": got["rc"], "fields": {name: text for name, _, text in got["fields"]}}


def compare(ref: dict, got: dict) -> list[str]:
    """Differences between a stored reference and an observed result (empty when they match)."""
    problems = []
    if ref["rc"] != got["rc"]:
        problems.append(f"exit code {got['rc']} (reference {ref['rc']})")
    kinds = {name: kind for name, kind, _ in got["fields"]}
    texts = {name: text for name, _, text in got["fields"]}
    if ref["fields"].keys() != texts.keys():
        missing = sorted(ref["fields"].keys() - texts.keys())
        extra = sorted(texts.keys() - ref["fields"].keys())
        problems.append(f"fields differ: missing {missing[:5]}, unexpected {extra[:5]}")
    for name in ref["fields"].keys() & texts.keys():
        if not value_matches(kinds[name], ref["fields"][name], texts[name]):
            problems.append(f"{name}: {texts[name]} (reference {ref['fields'][name]})")
    return sorted(problems)


def sanity(got: dict) -> list[str]:
    """Checks that need no reference: success, every headline number finite.

    ``validate`` may also exit 1 with a FAILED verdict: that is its documented
    answer when a self-check does not hold, and the reference pins which
    scenarios give it.
    """
    problems = []
    texts = {name: text for name, _, text in got["fields"]}
    if got["rc"] != 0 and not (got["rc"] == 1 and texts.get("verdict", "").startswith("FAILED")):
        problems.append(f"exit code {got['rc']}")
    if got.get("error"):
        problems.append(got["error"])
    for name, kind, text in got["fields"]:
        numbers = text.split(",")[2:5] if kind == "row" else [text] if kind in RTOL else []
        if text == "missing":
            problems.append(f"{name}: not found in the output")
        elif not all(math.isfinite(_float_or_nan(v)) for v in numbers):
            problems.append(f"{name}: {text} has a value that is not finite")
    return problems


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")
