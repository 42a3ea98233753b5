"""Compare two trees that ``tools/run_configs.py`` wrote.

    python3 tools/compare_runs.py A B

Every file under A or B is compared byte for byte; a file that only one tree
has differs.  For each differing CSV or JSON file the report gives the largest
relative change |a - b| / max(|a|, |b|) of any numeric field the two files
hold at the same place (a CSV cell, a JSON leaf; the strings "inf", "-inf" and
"nan" that the CLI writes for non-finite numbers count as numbers), where it
is, and "-" when no numeric field changed.  The last line gives how many files
differ and the largest relative change over them all, the figure a change
that moves an element in its last digit reports.  Exit 0 when the trees are
identical, 1 when they differ.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def number(value) -> float | None:
    """``value`` as a float when it is a number or a string of one, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def relative_change(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal numbers (NaN equals NaN), inf when
    one of two unequal numbers is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def leaves(value, place: str = ""):
    """(place, leaf) for every leaf of a parsed JSON value, places as dotted paths."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{place}.{key}" if place else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{place}[{i}]")
    else:
        yield place, value


def fields(path: Path) -> dict:
    """{place: value} of every CSV cell ("row R column NAME") or JSON leaf of a file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return dict(leaves(json.loads(text)))
    rows = list(csv.reader(text.splitlines()))
    header = rows[0] if rows else []
    return {f"row {r} column {header[c] if c < len(header) else c}": cell
            for r, row in enumerate(rows[1:], start=1) for c, cell in enumerate(row)}


def largest_change(a: Path, b: Path) -> tuple[float, str] | None:
    """(largest relative change, its place) over the numeric fields that a and b
    hold at the same place, or None when no numeric field changed."""
    if a.suffix not in (".csv", ".json"):
        return None
    fa, fb = fields(a), fields(b)
    best = None
    for place in fa.keys() & fb.keys():
        x, y = number(fa[place]), number(fb[place])
        if x is not None and y is not None:
            change = relative_change(x, y)
            if change > 0.0 and (best is None or change > best[0]):
                best = (change, place)
    return best


def compare(a_root: Path, b_root: Path) -> tuple[list[str], float]:
    """(one report line per differing file, largest relative change over them)."""
    names = sorted({p.relative_to(root).as_posix() for root in (a_root, b_root)
                    for p in root.rglob("*") if p.is_file()})
    lines, largest = [], 0.0
    for name in names:
        a, b = a_root / name, b_root / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {a_root if a.is_file() else b_root}")
        elif a.read_bytes() != b.read_bytes():
            change = largest_change(a, b)
            if change is None:
                lines.append(f"{name}: -")
            else:
                lines.append(f"{name}: {change[0]:.3g} at {change[1]}")
                largest = max(largest, change[0])
    return lines, largest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_root, b_root = map(Path, argv)
    for root in (a_root, b_root):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    lines, largest = compare(a_root, b_root)
    for line in lines:
        print(line)
    print(f"{len(lines)} files differ; largest relative change {largest:.3g}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
