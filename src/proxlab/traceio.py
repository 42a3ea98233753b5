"""Trace CSV emission and parsing.

The CSV is the figure-level contract of the package: one row per iterate,
full-precision scientific notation, LF newlines, empty fields where a column
does not apply to the run (NaN in the trace, None when read back).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ppm import IterationTrace

CSV_HEADER = "k,c_k,f,cost_gap,dist_S,residual_norm,eps_k,delta_k"


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.17e}"


def emit_trace_csv(trace: IterationTrace, path) -> None:
    """Write one row per iterate k = 0..K (transition fields live on row k).

    Each distinct value is formatted once.  The memo is keyed by the value's
    bits, so -0.0 and 0.0, which compare equal but print differently, stay apart."""
    text, columns = {}, []
    for col in (trace.steps, trace.values, trace.gaps, trace.dists, trace.residuals,
                trace.eps, trace.deltas):
        bits = col.view(np.int64).tolist()
        for key, value in zip(bits, col.tolist()):
            if key not in text:
                text[key] = _fmt(value)
        columns.append(map(text.__getitem__, bits))
    rows = (",".join([str(k), *row]) for k, row in enumerate(zip(*columns, strict=True)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([CSV_HEADER, *rows, ""]))


@dataclass
class ParsedTrace:
    """Column-wise numeric view of an emitted trace CSV."""

    k: list[int]
    c: list[float]
    f: list[float]
    cost_gap: list[float | None]
    dist: list[float | None]
    residual_norm: list[float | None]
    eps: list[float | None]
    delta: list[float | None]

    def __len__(self) -> int:
        return len(self.k)


def read_trace_csv(path) -> ParsedTrace:
    cols: list[list] = [[] for _ in range(8)]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 8:
                raise ValueError(f"bad row {line!r}")
            cols[0].append(int(parts[0]))
            for i in range(1, 8):
                cols[i].append(float(parts[i]) if parts[i] else None)
    return ParsedTrace(*cols)
