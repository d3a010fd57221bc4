"""File formats: UAI MARKOV models, a native JSON model, and solver traces.

UAI MARKOV grammar (whitespace separated tokens)::

    MARKOV
    <num_vars>
    <card_0> ... <card_{n-1}>
    <num_factors>
    <scope_size> <var> ... <var>     (one line per factor, any order of vars)
    ...
    <table_size> <w_0> ... <w_{size-1}>   (one block per factor, in order)

Table weights are probabilities or nonnegative weights, laid out row-major
over the factor's scope *as listed*.  They are converted to the log domain;
zeros are floored at a configurable weight (default ``1e-300``) rather than
rejected.  Because UAI weights cannot represent negative log-potentials
losslessly, a native JSON model format is provided alongside: it stores
cardinalities, sorted cluster scopes and flat row-major log-potential
arrays and round-trips exactly.

Traces are written as CSV (header ``sweep,seconds,dual,primal,
pursuit_round,algorithm``) or as a JSON array of records.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from pathlib import Path

import numpy as np

from .engine import DualTrace, TraceRecord
from .factor_graph import FactorGraph

DEFAULT_ZERO_FLOOR = 1e-300


class ParseError(ValueError):
    """Malformed model text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((tok, lineno))
        self.pos = 0
        self.last_line = 1

    def next(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of input, expected {what}", self.last_line)
        tok, line = self.items[self.pos]
        self.pos += 1
        self.last_line = line
        return tok, line

    def next_int(self, what: str) -> int:
        tok, line = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", line) from None

    def next_float(self, what: str) -> float:
        tok, line = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", line) from None


def parse_uai(text: str, zero_floor: float = DEFAULT_ZERO_FLOOR) -> FactorGraph:
    """Parse a UAI MARKOV model into a log-domain factor graph.  Raises
    ``ValueError`` unless ``zero_floor`` is finite and > 0."""
    if not (math.isfinite(zero_floor) and zero_floor > 0):
        raise ValueError(f"zero_floor must be finite and > 0, got {zero_floor!r}")
    toks = _Tokens(text)
    header, line = toks.next("network type")
    if header != "MARKOV":
        raise ParseError(f"unsupported network type {header!r} (only MARKOV)", line)
    num_vars = toks.next_int("variable count")
    if num_vars < 0:
        raise ParseError("variable count must be nonnegative", toks.last_line)
    cards = []
    for i in range(num_vars):
        k = toks.next_int(f"cardinality of variable {i}")
        if k < 1:
            raise ParseError(f"variable {i} has cardinality {k}", toks.last_line)
        cards.append(k)
    num_factors = toks.next_int("factor count")
    scopes: list[tuple[int, ...]] = []
    for f in range(num_factors):
        size = toks.next_int(f"scope size of factor {f}")
        if size < 1:
            raise ParseError(f"factor {f} has empty scope", toks.last_line)
        scope = []
        for _ in range(size):
            v = toks.next_int("scope variable")
            if v < 0 or v >= num_vars:
                raise ParseError(
                    f"factor {f} references variable {v} of {num_vars}",
                    toks.last_line,
                )
            scope.append(v)
        if len(set(scope)) != len(scope):
            raise ParseError(f"factor {f} repeats a variable", toks.last_line)
        scopes.append(tuple(scope))
    tables: list[np.ndarray] = []
    for f, scope in enumerate(scopes):
        want = 1
        for v in scope:
            want *= cards[v]
        size = toks.next_int(f"table size of factor {f}")
        if size != want:
            raise ParseError(
                f"factor {f} table has {size} entries, scope needs {want}",
                toks.last_line,
            )
        values = np.empty(size)
        for i in range(size):
            w = toks.next_float("table entry")
            if w < 0 or math.isnan(w) or math.isinf(w):
                raise ParseError(
                    f"table entry {w!r} is not a nonnegative weight", toks.last_line
                )
            values[i] = math.log(max(w, zero_floor))
        tables.append(values)
    if toks.pos != len(toks.items):
        tok, line = toks.items[toks.pos]
        raise ParseError(f"unexpected trailing token {tok!r}", line)
    # FactorGraph sorts each scope and permutes the (as-listed row-major)
    # table to match, and merges duplicate scopes by summing.
    return FactorGraph(cards, scopes, tables)


# ---------------------------------------------------------------------------
# Native JSON model
# ---------------------------------------------------------------------------


def model_to_dict(graph: FactorGraph) -> dict:
    return {
        "format": "maplp-model",
        "version": 1,
        "cardinalities": list(graph.cardinalities),
        "clusters": [list(c) for c in graph.clusters],
        "log_potentials": [p.values.reshape(-1).tolist() for p in graph.potentials],
    }


def model_from_dict(data: dict) -> FactorGraph:
    if data.get("format") != "maplp-model":
        raise ValueError("not a maplp model document")
    # FactorGraph checks the indices and copies the tables into one array.
    return FactorGraph(data["cardinalities"], data["clusters"], data["log_potentials"])


def save_model(graph: FactorGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(graph)) + "\n")


def load_model(path: str | Path) -> FactorGraph:
    """Load a model file; dispatches on extension (.uai or .json)."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".uai":
        return parse_uai(text)
    return model_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

TRACE_FIELDS = ("sweep", "seconds", "dual", "primal", "pursuit_round", "algorithm")


def trace_to_csv(trace: DualTrace) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_FIELDS)
    for r in trace.records:
        writer.writerow([r.sweep, repr(r.seconds), repr(r.dual), repr(r.primal),
                         r.pursuit_round, r.algorithm])
    return buf.getvalue()


def trace_to_json(trace: DualTrace) -> str:
    return json.dumps([
        {
            "sweep": r.sweep,
            "seconds": r.seconds,
            "dual": r.dual,
            "primal": r.primal,
            "pursuit_round": r.pursuit_round,
            "algorithm": r.algorithm,
        }
        for r in trace.records
    ])


def emit_trace(trace: DualTrace, path: str | Path, fmt: str = "csv") -> None:
    """Write a trace; ``fmt`` is ``csv`` or ``json``."""
    if fmt == "csv":
        Path(path).write_text(trace_to_csv(trace))
    elif fmt == "json":
        Path(path).write_text(trace_to_json(trace) + "\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def load_trace(path: str | Path) -> DualTrace:
    """Read back a trace written by :func:`emit_trace` (either format)."""
    p = Path(path)
    text = p.read_text()
    trace = DualTrace()
    if text.lstrip().startswith("["):
        for row in json.loads(text):
            trace.append(TraceRecord(**row))
        return trace
    reader = csv.DictReader(_io.StringIO(text))
    for row in reader:
        trace.append(TraceRecord(
            sweep=int(row["sweep"]),
            seconds=float(row["seconds"]),
            dual=float(row["dual"]),
            primal=float(row["primal"]),
            pursuit_round=int(row["pursuit_round"]),
            algorithm=row["algorithm"],
        ))
    return trace

