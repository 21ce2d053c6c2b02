"""Check the CLI's outputs against references computed apart from the program.

Each check takes the `Inputs` a workload wrote and the bytes the CLI
produced, and returns a list of problems; an empty list means the output is
correct. A problem starts with the kind of check that found it:
"reference" (disagrees with the exact model built from the written rows),
"property" (breaks an invariant that holds whatever the reference says) or
"format" (unparseable, or not the shape the command documents).

Tolerances. A share may differ from its exact value by ABS_TOL and a total
or ratio by REL_TOL of its size; float summation in row order stays far
inside both. A ratio within EDGE_TOL (relative) of a band edge may carry
either label, as acceptance criterion 7 allows.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from inputs import Flow, Inputs

ABS_TOL = 1e-9
REL_TOL = 1e-12
EDGE_TOL = 1e-9
MAX_PROBLEMS = 20

H, VH, VL = "horizontal", "vertical_high", "vertical_low"


class Problems(list):
    """A capped list of problems, so one systematic fault prints a few lines."""

    def add(self, kind: str, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(f"{kind}: {message}")


def band(family: str, alpha: str) -> tuple[float, float]:
    """Band edges (lo, hi), exact from the alpha's decimal text, rounded once."""
    a = Fraction(alpha)
    lo = 1 - a if family == "ghm" else 1 / (1 + a)
    return float(lo), float(1 + a)


def exact_ratio(f: Flow) -> float | None:
    """(X/x)/(M/m) = X*m / (x*M), correctly rounded; None when it cannot be formed."""
    if f.xq is None or f.mq is None or 0 in (f.xq, f.mq, f.x, f.m):
        return None
    return (f.x * f.mq) / (f.xq * f.m)


def allowed_labels(ratio: float, lo: float, hi: float) -> frozenset[str]:
    # The ratio and edges are each within one rounding of their exact values,
    # so outside EDGE_TOL the float comparison decides the exact one.
    if abs(ratio - hi) <= EDGE_TOL * hi:
        return frozenset((H, VH))
    if abs(ratio - lo) <= EDGE_TOL * lo:
        return frozenset((H, VL))
    if ratio > hi:
        return frozenset((VH,))
    if ratio < lo:
        return frozenset((VL,))
    return frozenset((H,))


def iit_amount(f: Flow, family: str, type_method: str, aer_threshold: Fraction) -> int:
    """IIT amount in cents: overlap 2*min (GHM), full trade of two-way industries (FF)."""
    if family == "ghm":
        return 2 * min(f.x, f.m)
    minority, majority = min(f.x, f.m), max(f.x, f.m)
    two_way = minority > 0 and (
        type_method == "vona" or Fraction(minority, majority) >= aer_threshold
    )
    return f.x + f.m if two_way else 0


def groups_of(inputs: Inputs) -> dict[tuple[str, str, str, str], list]:
    """(period, reporter, partner, group_id) -> [(key, flow)], as apply_grouping builds them."""
    groups: dict[tuple[str, str, str, str], list] = {}
    for key, flow in inputs.flows.items():
        groups.setdefault((*key[:3], inputs.group_of(key[3])), []).append((key, flow))
    return groups


def _close(value: float, exact: float, tol: float) -> bool:
    return abs(value - exact) <= tol


def check_validate(inputs: Inputs, stdout: bytes) -> Problems:
    problems = Problems()
    expected = (
        f"ok: {inputs.rows} rows, {len(inputs.flows)} industry flows, "
        f"{inputs.dropped_zero_trade} zero-trade industries dropped\n"
    )
    if stdout.decode("utf-8", "replace") != expected:
        problems.add("reference", f"validate printed {stdout[:200]!r}, expected {expected!r}")
    return problems


COMPUTE_COLUMNS = [
    "period", "reporter", "partner", "group_id", "family", "alpha", "type_method",
    "aer_threshold", "total_trade", "iit", "hiit", "viit", "hqviit", "lqviit",
    "unclassified_share",
]


def check_compute_csv(
    inputs: Inputs, output: bytes, family: str, alpha: str, type_method: str,
    aer_threshold: str,
) -> Problems:
    """One row per group: every share against the exact decomposition."""
    problems = Problems()
    rows = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    if not rows or rows[0] != COMPUTE_COLUMNS:
        problems.add("format", f"compute header {rows[:1]!r}")
        return problems
    lo, hi = band(family, alpha)
    threshold = Fraction(aer_threshold)
    expected = groups_of(inputs)
    seen = set()
    for row in rows[1:]:
        if len(row) != len(COMPUTE_COLUMNS):
            problems.add("format", f"compute row {row!r}")
            continue
        rec = dict(zip(COMPUTE_COLUMNS, row))
        gkey = (rec["period"], rec["reporter"], rec["partner"], rec["group_id"])
        if gkey in seen or gkey not in expected:
            problems.add("reference", f"unexpected or repeated group {gkey}")
            continue
        seen.add(gkey)
        try:
            method = (rec["family"], float(rec["alpha"]), rec["type_method"], float(rec["aer_threshold"]))
            got = {c: float(rec[c]) for c in COMPUTE_COLUMNS[8:]}
        except ValueError:
            problems.add("format", f"group {gkey} has a non-numeric field {row[4:]}")
            continue
        if method != (family, float(alpha), "abd_el_rahman" if type_method == "aer" else "vona",
                      float(aer_threshold)):
            problems.add("reference", f"group {gkey} reports method {row[4:8]}")
        _check_group_shares(problems, gkey, got, expected[gkey], family, type_method,
                            threshold, lo, hi)
    missing = len(expected) - len(seen)
    if missing:
        problems.add("reference", f"{missing} groups missing from the report")
    return problems


def _check_group_shares(problems, gkey, got, members, family, type_method, threshold, lo, hi):
    total = sum(f.x + f.m for _, f in members)
    iit = unclassified = 0
    # Per bucket: amounts that must land there, and amounts that may (edge cases).
    sure = {H: 0, VH: 0, VL: 0}
    maybe = {H: 0, VH: 0, VL: 0}
    for _, f in members:
        amount = iit_amount(f, family, type_method, threshold)
        iit += amount
        if amount == 0:
            continue
        ratio = exact_ratio(f)
        if ratio is None:
            unclassified += amount
            continue
        labels = allowed_labels(ratio, lo, hi)
        for label in labels:
            (sure if len(labels) == 1 else maybe)[label] += amount

    if not _close(got["total_trade"], total / 100, REL_TOL * total / 100):
        problems.add("reference", f"group {gkey} total_trade {got['total_trade']!r}, exact {total / 100!r}")
    for name, exact in (("iit", iit), ("unclassified_share", unclassified)):
        if not _close(got[name], exact / total, ABS_TOL):
            problems.add("reference", f"group {gkey} {name} {got[name]!r}, exact {exact / total!r}")
    for name, label in (("hiit", H), ("hqviit", VH), ("lqviit", VL)):
        low, high = sure[label] / total, (sure[label] + maybe[label]) / total
        if not low - ABS_TOL <= got[name] <= high + ABS_TOL:
            problems.add("reference", f"group {gkey} {name} {got[name]!r}, exact {low!r}..{high!r}")

    if not _close(got["hiit"] + got["viit"] + got["unclassified_share"], got["iit"], REL_TOL):
        problems.add("property", f"group {gkey}: hiit + viit + unclassified != iit")
    if not _close(got["hqviit"] + got["lqviit"], got["viit"], REL_TOL):
        problems.add("property", f"group {gkey}: hqviit + lqviit != viit")


SWEEP_COLUMNS = [
    "group_id", "period", "reporter", "partner", "industry_code", "alpha",
    "label_before", "label_after",
]


def check_sweep_csv(
    inputs: Inputs, output: bytes, family: str, alphas: list[str], type_method: str,
    aer_threshold: str,
) -> Problems:
    """Flip table: exactly the flips the exact labels imply, each toward horizontal."""
    problems = Problems()
    rows = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    if not rows or rows[0] != SWEEP_COLUMNS:
        problems.add("format", f"sweep header {rows[:1]!r}")
        return problems
    grid = {float(a): j for j, a in enumerate(alphas)}
    flips: dict[tuple[str, str, str, str], list[tuple[int, str, str]]] = {}
    for row in rows[1:]:
        if len(row) != len(SWEEP_COLUMNS):
            problems.add("format", f"sweep row {row!r}")
            continue
        group_id, period, reporter, partner, code, alpha, before, after = row
        key = (period, reporter, partner, code)
        if key not in inputs.flows or group_id != inputs.group_of(code):
            problems.add("reference", f"flip for unknown industry {key} in group {group_id}")
            continue
        try:
            j = grid.get(float(alpha))
        except ValueError:
            j = None
        if not j:  # None, or the first grid point, where nothing can flip yet
            problems.add("reference", f"flip of {key} at alpha {alpha}, not a later grid point")
            continue
        if before not in (VH, VL) or after != H:
            problems.add("property", f"flip of {key} at alpha {alpha} goes {before} -> {after}, "
                                     "not toward horizontal")
        flips.setdefault(key, []).append((j, before, after))

    threshold = Fraction(aer_threshold)
    bands = [band(family, a) for a in alphas]
    for key, f in inputs.flows.items():
        found = flips.pop(key, [])
        ratio = exact_ratio(f)
        if ratio is None or iit_amount(f, family, type_method, threshold) == 0:
            if found:
                problems.add("reference", f"{key} has no label but flips at {found}")
            continue
        allowed = [allowed_labels(ratio, lo, hi) for lo, hi in bands]
        if not _labels_explain_flips(allowed, found):
            labels = [sorted(a) for a in allowed]
            problems.add("reference", f"{key} ratio {ratio!r}: flips {found} do not match labels {labels}")
    return problems


def _labels_explain_flips(allowed: list[frozenset], flips: list[tuple[int, str, str]]) -> bool:
    """Whether some label sequence, each label allowed at its grid point, has exactly these flips."""
    at = {}
    for j, before, after in flips:
        if j in at or before == after:
            return False
        at[j] = (before, after)
    states = set(allowed[0])
    for j in range(1, len(allowed)):
        if j in at:
            before, after = at[j]
            if before not in states or after not in allowed[j]:
                return False
            states = {after}
        else:
            states &= allowed[j]
        if not states:
            return False
    return True


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON")


def check_transitions_json(
    inputs: Inputs, output: bytes, family: str, alpha: str, type_method: str,
    aer_threshold: str,
) -> Problems:
    """Every panel's transitions and skipped count against the exact labels."""
    problems = Problems()
    try:
        doc = json.loads(output, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.add("format", f"transitions output is not strict JSON: {exc}")
        return problems

    lo, hi = band(family, alpha)
    threshold = Fraction(aer_threshold)
    panels: dict[tuple[str, str, str], dict[str, dict[str, Flow]]] = {}
    for (period, reporter, partner, group_id), members in groups_of(inputs).items():
        periods = panels.setdefault((reporter, partner, group_id), {})
        periods[period] = {key[3]: f for key, f in members}

    def label_of(f: Flow | None):
        if f is None or iit_amount(f, family, type_method, threshold) == 0:
            return None
        ratio = exact_ratio(f)
        return None if ratio is None else (ratio, allowed_labels(ratio, lo, hi))

    single = sum(1 for periods in panels.values() if len(periods) < 2)
    config = doc.get("config", {})
    if config.get("single_period_panels_skipped") != single:
        problems.add("reference", f"single_period_panels_skipped "
                                  f"{config.get('single_period_panels_skipped')!r}, expected {single}")
    if (config.get("family"), config.get("alpha")) != (family, float(alpha)):
        problems.add("reference", f"config family/alpha {config.get('family')!r}/{config.get('alpha')!r}")

    seen: set = set()
    try:
        _check_panels(problems, doc["panels"], panels, seen, label_of)
    except (KeyError, TypeError, AttributeError) as exc:
        problems.add("format", f"transitions output lacks a field: {exc!r}")
    missing = sum(1 for k, p in panels.items() if len(p) >= 2 and k not in seen)
    if missing:
        problems.add("reference", f"{missing} panels missing from the report")
    return problems


def _check_panels(problems, doc_panels, panels, seen, label_of):
    for panel in doc_panels:
        pkey = (panel.get("reporter"), panel.get("partner"), panel.get("group_id"))
        periods = panels.get(pkey)
        if periods is None or len(periods) < 2 or pkey in seen:
            problems.add("reference", f"unexpected or repeated panel {pkey}")
            continue
        seen.add(pkey)
        expected = {}
        skipped = 0
        order = sorted(periods)
        for p_from, p_to in zip(order, order[1:]):
            a, b = periods[p_from], periods[p_to]
            for code in a.keys() | b.keys():
                ends = label_of(a.get(code)), label_of(b.get(code))
                if None in ends:
                    skipped += 1
                else:
                    expected[(code, p_from, p_to)] = ends
        if panel.get("skipped") != skipped:
            problems.add("reference", f"panel {pkey} skipped {panel.get('skipped')!r}, expected {skipped}")
        for t in panel.get("transitions", []):
            tkey = (t["industry_code"], t["period_from"], t["period_to"])
            ends = expected.pop(tkey, None)
            if ends is None or (t["reporter"], t["partner"]) != pkey[:2]:
                problems.add("reference", f"panel {pkey}: unexpected or repeated transition {tkey}")
                continue
            if t["flipped"] is not (t["label_from"] != t["label_to"]):
                problems.add("property", f"panel {pkey} {tkey}: flipped {t['flipped']!r} with labels "
                                         f"{t['label_from']} -> {t['label_to']}")
            for side, (ratio, labels) in zip(("from", "to"), ends):
                got = t[f"ratio_{side}"]
                if not _close(got, ratio, REL_TOL * ratio):
                    problems.add("reference", f"panel {pkey} {tkey}: ratio_{side} {got!r}, exact {ratio!r}")
                if t[f"label_{side}"] not in labels:
                    problems.add("reference", f"panel {pkey} {tkey}: label_{side} "
                                              f"{t[f'label_{side}']}, expected {sorted(labels)}")
        if expected:
            problems.add("reference", f"panel {pkey}: {len(expected)} transitions missing, "
                                      f"e.g. {next(iter(expected))}")
