"""Measurement machinery shared by the workloads.

A workload is a closed loop: one caller issues library calls back to back,
and each pass over the workload's inputs is one *repeat*.  Every call into a
public ``maplp`` function is wrapped in :meth:`Recorder.span`, which always
adds the call's wall time to its phase (``setup`` or ``solve``, the two
timed end-to-end phases) and, only when the repeat is traced, also keeps a
span record (name, start, end, parent, attributes) in memory.  Spans are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# A repeat-exact comparison needs two repeats, and a traced run needs one
# untraced repeat to measure the tracing overhead against.
MIN_REPEATS = 2
DUAL_SLACK = 1e-9


class Timing:
    seconds = 0.0


class Recorder:
    """Phase totals for one repeat, plus its spans when it is traced."""

    def __init__(self, traced: bool, rep_id: int):
        self.traced = traced
        self.rep_id = rep_id
        self.phase_s = {"setup": 0.0, "solve": 0.0}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, phase: str | None = None, **attrs):
        """Time the enclosed call; the yielded :class:`Timing` holds its
        duration once the block has ended."""
        timing = Timing()
        start = perf_counter()
        if self.traced:
            idx = len(self.spans)
            self.spans.append({
                "rep": self.rep_id,
                "name": name,
                "start": start,
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "attrs": attrs,
            })
            self._open.append(idx)
        try:
            yield timing
        finally:
            end = perf_counter()
            timing.seconds = end - start
            if phase is not None:
                self.phase_s[phase] += end - start
            if self.traced:
                self._open.pop()
                self.spans[idx]["end"] = end

    def durations(self, name: str, **attrs) -> list[float]:
        """Durations of the spans with this name and these attributes."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))


class Checks:
    """Attempted and failed operations over a whole invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: {'; '.join(problems)}")

    @contextmanager
    def guard(self, label: str):
        """Count an exception in the block as one failed operation."""
        try:
            yield
        except Exception as exc:
            traceback.print_exc()
            self.record(label, [f"{type(exc).__name__}: {exc}"])


@dataclass
class RelStats:
    """Belief-mode solves of one relaxation within a repeat; ``support``,
    ``updates`` and ``scalars`` are sums over its ``solves``."""

    solves: int = 0
    support: int = 0
    updates: int = 0
    scalars: int = 0
    written: int = 0
    run_s: float = 0.0
    deltas_ms: list[float] = field(default_factory=list)
    first_ms: list[float] = field(default_factory=list)


@dataclass
class Rep:
    """Everything one repeat measured."""

    rec: Recorder
    checks: Checks
    sweep_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"beliefs": [], "messages": []}
    )
    rels: dict[str, RelStats] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    probe_counts: dict[str, int] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    memory: list[int] = field(default_factory=lambda: [0, 0])
    gap_sum: float = 0.0
    rss_mb: float = 0.0  # the process's peak RSS when the repeat ended

    def bump(self, key: str, n: int = 1, probe: bool = False) -> None:
        counts = self.probe_counts if probe else self.counts
        counts[key] = counts.get(key, 0) + n


def sweep_deltas_ms(trace) -> list[float]:
    """Per-sweep latency from consecutive trace records of one inner solve.

    The first record of a solve (and of each pursuit round) also covers the
    work before its first sweep, so it has no predecessor in the same round.
    """
    recs = trace.records
    return [
        (b.seconds - a.seconds) * 1e3
        for a, b in zip(recs, recs[1:])
        if a.pursuit_round == b.pursuit_round
    ]


def trace_problems(trace) -> list[str]:
    """Monotone dual and primal <= dual on every record, within 1e-9."""
    recs = trace.records
    if not recs:
        return ["empty trace"]
    problems = []
    if any(b.dual > a.dual + DUAL_SLACK for a, b in zip(recs, recs[1:])):
        problems.append("dual increased")
    if any(r.primal > r.dual + DUAL_SLACK for r in recs):
        problems.append("primal above dual")
    return problems


def trace_digest(trace) -> str:
    """Hash of the dual trace's float64 bytes: equal digests mean
    bit-identical traces."""
    duals = np.asarray(trace.duals, dtype=np.float64)
    return hashlib.sha256(duals.tobytes()).hexdigest()[:16]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def measure(workload, inputs, seconds: float, trace: bool, checks: Checks) -> list[Rep]:
    """Repeat the workload until the next repeat would end past ``seconds``.

    With ``trace`` on, repeats alternate untraced and traced, starting
    untraced, so the run carries its own reference for the tracing overhead.
    An exception counts as one failed operation and ends the loop; the
    repeat it interrupted is dropped.
    """
    reps: list[Rep] = []
    start = perf_counter()
    while True:
        done = len(reps)
        rep = Rep(Recorder(trace and done % 2 == 1, done), checks)
        with checks.guard(f"repeat {done}"):
            workload.repeat(inputs, rep)
            rep.rss_mb = peak_rss_mb()
            reps.append(rep)
        if len(reps) == done:
            break
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPEATS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    return reps


def check_repeat_exact(reps: list[Rep], checks: Checks) -> None:
    """Work counts must not change between repeats of one invocation.

    Every repeat is compared with the first; the counts of the probes that
    only traced repeats run are compared among the traced repeats.
    """
    traced = [r for r in reps if r.rec.traced]
    for attr, group in (("counts", reps), ("probe_counts", traced)):
        for rep in group[1:]:
            ref, got = getattr(group[0], attr), getattr(rep, attr)
            diff = sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))
            checks.record(
                f"repeat-exact {attr} {rep.rec.rep_id}",
                [f"differ from repeat {group[0].rec.rep_id}: {', '.join(diff)}"] if diff else [],
            )


def all_sweeps_ms(rep: Rep) -> list[float]:
    return [x for xs in rep.sweep_ms.values() for x in xs]


def peak_rss_mb() -> float:
    """The process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(reps: list[Rep], base_rss_mb: float) -> dict:
    """Medians over repeats.  The sweep median is taken within each repeat
    first, so a burst of host contention moves one repeat, not the result.
    ``peak_rss_mb`` is the growth of the peak past ``base_rss_mb``, the peak
    once the interpreter, numpy and maplp are imported, by the end of the
    first repeat: later repeats raise the peak a little each, and how many
    of them fit in the run depends on the host's speed."""
    if not reps:
        return {}
    return {
        "setup_s": median([r.rec.phase_s["setup"] for r in reps]),
        "solve_s": median([r.rec.phase_s["solve"] for r in reps]),
        "sweep_ms.p50": median([percentile(all_sweeps_ms(r), 50) for r in reps]),
        "peak_rss_mb": reps[0].rss_mb - base_rss_mb,
    }


def per_layer(reps: list[Rep]) -> dict:
    """Medians over the traced repeats, plus the tracing overhead: traced
    over untraced setup+solve time, both medians over repeats.  Empty when
    no traced repeat completed."""
    traced = [r for r in reps if r.rec.traced]
    untraced = [r for r in reps if not r.rec.traced]
    if not traced:
        return {}
    timed = lambda group: median([sum(r.rec.phase_s.values()) for r in group])
    values = {}
    for name, first in traced[0].layers.items():
        value = median([r.layers[name] for r in traced])
        values[name] = int(value) if isinstance(first, int) else value
    values["tracing.overhead_pct"] = 100.0 * (timed(traced) / timed(untraced) - 1.0)
    return values
