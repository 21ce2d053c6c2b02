"""Seeded inputs of the benchmark workloads and their exact merged flows.

Every generator writes a flow table (and, where the workload uses one, a
grouping map) and returns an `Inputs` holding what it wrote: the merged
flows of each key as exact integers, read back from the decimal strings in
the file. Money is written with two decimals and quantities with one, so a
value is held in cents and a quantity in tenths; a unit-value ratio
(X/x)/(M/m) is then the exact fraction X*m / (x*M), the scales cancelling.
Nothing here imports iitkit: the reference is computed apart from the
program it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HEADER = (
    "period,reporter,partner,industry_code,export_value,import_value,"
    "export_qty,import_qty,qty_unit\n"
)


@dataclass
class Flow:
    """Merged exact sums of one key: values in cents, quantities in tenths."""

    x: int
    m: int
    xq: int | None
    mq: int | None


@dataclass
class Inputs:
    table: Path
    group_map: Path | None
    rows: int
    flows: dict[tuple[str, str, str, str], Flow]
    dropped_zero_trade: int
    mapping: dict[str, str] = field(default_factory=dict)

    def group_of(self, code: str) -> str:
        return self.mapping.get(code, code)


def _money(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _qty(tenths: int) -> str:
    return f"{tenths // 10}.{tenths % 10}"


def _scaled(text: str) -> int:
    """Exact integer of a fixed-point decimal string, its point dropped."""
    return int(text.replace(".", ""))


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(HEADER)
        fh.writelines(lines)


def _drop_zero_trade(flows: dict) -> int:
    dead = [key for key, f in flows.items() if f.x == 0 and f.m == 0]
    for key in dead:
        del flows[key]
    return len(dead)


def _write_group_map(path: Path, mapping: dict[str, str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("industry_code,group_id\n")
        fh.writelines(f"{code},{group}\n" for code, group in mapping.items())


def ingest_table(workdir: Path, seed: int, rows: int = 1_000_000, keys: int = 50_000) -> Inputs:
    """The acceptance suite's criterion-8 table; seed 8 gives it byte for byte.

    Row i has key (2020, FRA, P{i % 20}, {i % keys}), so each key repeats
    rows/keys times and every merge after the first takes the update path.
    Values are uniform on [0, 1e6] with two decimals, quantities uniform on
    [1, 1e4] with one, all in kg.
    """
    rng = random.Random(seed)
    uniform = rng.uniform
    partners = [f"P{i:02d}" for i in range(20)]
    flows: dict[tuple[str, str, str, str], Flow] = {}
    path = workdir / "table.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(HEADER)
        lines: list[str] = []
        for i in range(rows):
            key = ("2020", "FRA", partners[i % 20], f"{i % keys:06d}")
            xv = f"{uniform(0, 1e6):.2f}"
            mv = f"{uniform(0, 1e6):.2f}"
            xq = f"{uniform(1, 1e4):.1f}"
            mq = f"{uniform(1, 1e4):.1f}"
            lines.append(f"2020,FRA,{key[2]},{key[3]},{xv},{mv},{xq},{mq},kg\n")
            x, m, xt, mt = _scaled(xv), _scaled(mv), _scaled(xq), _scaled(mq)
            f = flows.get(key)
            if f is None:
                flows[key] = Flow(x, m, xt, mt)
            else:
                f.x += x
                f.m += m
                f.xq += xt
                f.mq += mt
            if len(lines) == 100_000:
                fh.writelines(lines)
                lines.clear()
        fh.writelines(lines)
    return Inputs(path, None, rows, flows, _drop_zero_trade(flows))


def _priced_row(rng: random.Random, key, log_ratio: float, one_way: bool, no_qty: bool):
    """One row with unit-value ratio exp(log_ratio), before rounding to cents."""
    xq = rng.randint(10, 100_000)
    mq = rng.randint(10, 100_000)
    price = math.exp(rng.uniform(0.0, math.log(1000.0)))  # import unit value, per unit
    m = max(1, round(mq * price * 10))  # tenths * price * 10 = cents
    x = max(1, round(xq * price * math.exp(log_ratio) * 10))
    if one_way:
        if rng.random() < 0.5:
            x = 0
        else:
            m = 0
    cells = (_money(x), _money(m), "", "", "") if no_qty else (
        _money(x), _money(m), _qty(xq), _qty(mq), "kg")
    flow = Flow(x, m, None, None) if no_qty else Flow(x, m, xq, mq)
    return ",".join((*key, *cells)) + "\n", flow


def sweep_table(
    workdir: Path, seed: int, codes: int = 25_000, groups: int = 100
) -> Inputs:
    """One period and reporter, two partners, `codes` industries each.

    Every key is unique. Codes map into `groups` group ids at random, so each
    of the 2 * groups industry groups has about codes/groups members.
    Unit-value ratios are log-normal around 1 (sigma 0.25), 5% of rows carry
    no quantities and 2% trade one way only.
    """
    rng = random.Random(seed)
    mapping = {f"{c:06d}": f"G{rng.randrange(groups):03d}" for c in range(codes)}
    flows: dict[tuple[str, str, str, str], Flow] = {}
    lines: list[str] = []
    for partner in ("DEU", "USA"):
        for code in mapping:
            key = ("2020", "FRA", partner, code)
            roll = rng.random()
            line, flow = _priced_row(
                rng, key, rng.gauss(0.0, 0.25), one_way=roll < 0.02, no_qty=roll > 0.95
            )
            lines.append(line)
            flows[key] = flow
    table, group_map = workdir / "table.csv", workdir / "groups.csv"
    _write_lines(table, lines)
    _write_group_map(group_map, mapping)
    return Inputs(table, group_map, len(lines), flows, _drop_zero_trade(flows), mapping)


def panel_table(
    workdir: Path, seed: int, codes: int = 1_500, groups: int = 50, periods: int = 8
) -> Inputs:
    """Yearly periods 2016.. x 3 reporters x 4 partners x `codes` industries.

    Each (reporter, partner, industry) has a log ratio that starts at
    N(0, 0.2) and takes a N(0, 0.05) step each year, so some industries
    drift across a band edge. Of the rows, 2% are left out (the industry is
    absent that year), 5% carry no quantities and 3% trade one way only.
    Codes map into `groups` group ids at random.
    """
    rng = random.Random(seed)
    mapping = {f"{c:06d}": f"G{rng.randrange(groups):03d}" for c in range(codes)}
    flows: dict[tuple[str, str, str, str], Flow] = {}
    lines: list[str] = []
    for reporter in ("DEU", "FRA", "ITA"):
        for partner in ("CHN", "GBR", "JPN", "USA"):
            for code in mapping:
                log_ratio = rng.gauss(0.0, 0.2)
                for year in range(2016, 2016 + periods):
                    log_ratio += rng.gauss(0.0, 0.05)
                    roll = rng.random()
                    if roll < 0.02:
                        continue
                    key = (str(year), reporter, partner, code)
                    line, flow = _priced_row(
                        rng, key, log_ratio, one_way=roll < 0.05, no_qty=roll > 0.95
                    )
                    lines.append(line)
                    flows[key] = flow
    table, group_map = workdir / "table.csv", workdir / "groups.csv"
    _write_lines(table, lines)
    _write_group_map(group_map, mapping)
    return Inputs(table, group_map, len(lines), flows, _drop_zero_trade(flows), mapping)
