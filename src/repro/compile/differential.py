"""Differential oracle for the cohort compiler.

Compiling a thread changes how its generator is driven, not which
events the machine fires, so an interpreted and a compiled run of the
same shape must agree on **everything** — metrics, ``events_fired``,
the serialized :class:`~repro.experiments.common.RunRecord`, and the
Perfetto export of the full event stream — except the report's
``cohort`` accounting section and the diagnostic ``COHORT`` obs events,
which only exist on the compiled side.

:class:`CompileDifferentialHarness` runs both sides: ``check()`` raises
on any difference and ``shrink()`` reduces a failing shape to a minimal
reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..api import _with_compiled, get_app, result_ok

__all__ = [
    "diff_paths",
    "comparable_compile_report",
    "CompileDifferentialResult",
    "CompileDifferentialHarness",
]


def diff_paths(a: Any, b: Any, prefix: str = "") -> list[str]:
    """Dotted paths at which two JSON-like values differ (leaves only)."""
    if isinstance(a, dict) and isinstance(b, dict):
        out: list[str] = []
        for key in sorted(set(a) | set(b), key=str):
            here = f"{prefix}.{key}" if prefix else str(key)
            if key not in a or key not in b:
                out.append(here)
            else:
                out.extend(diff_paths(a[key], b[key], here))
        return out
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return [f"{prefix}.len" if prefix else "len"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_paths(x, y, f"{prefix}[{i}]"))
        return out
    return [] if a == b else [prefix or "<root>"]


def comparable_compile_report(report) -> dict:
    """Full report serialisation minus only the ``cohort`` section.

    ``events_fired`` stays in: the compiled path must not change the
    event structure at all.
    """
    from ..metrics.serialize import report_to_dict

    out = report_to_dict(report)
    out.pop("cohort", None)
    return out


@dataclass
class CompileDifferentialResult:
    """One interpreted-vs-compiled comparison of a single shape."""

    app: str
    shape: dict
    interpreted: Any  #: interpreted MachineReport (ground truth)
    compiled: Any  #: compiled MachineReport
    diff: list[str] = field(default_factory=list)
    records_equal: bool = True
    perfetto_equal: bool = True

    @property
    def identical(self) -> bool:
        return not self.diff and self.records_equal and self.perfetto_equal

    def describe(self) -> str:
        shape = " ".join(f"{k}={v}" for k, v in self.shape.items())
        if self.diff:
            return f"{self.app} {shape}: DIVERGED at {', '.join(self.diff[:4])}"
        if not self.records_equal:
            return f"{self.app} {shape}: RunRecords differ"
        if not self.perfetto_equal:
            return f"{self.app} {shape}: Perfetto exports differ"
        cohort = self.compiled.cohort or {}
        return (
            f"{self.app} {shape}: identical "
            f"(occupancy {cohort.get('occupancy', 0.0):.2f})"
        )


class CompileDifferentialHarness:
    """Differential oracle: the interpreter is ground truth.

    ``harness.check(n_pes=4, n=64, h=2)`` runs the shape interpreted
    and compiled, compares reports, RunRecords and Perfetto
    exports, and raises ``AssertionError`` naming the differing paths
    (after shrinking the shape) on any mismatch.
    """

    def __init__(self, app: str = "sort", **base_kwargs: Any) -> None:
        self.app = app
        self.base_kwargs = base_kwargs

    # -- execution ----------------------------------------------------
    def _run(self, compiled: bool, shape: dict, obs=None):
        from ..errors import ProgramError

        fn = get_app(self.app)
        kwargs = {**self.base_kwargs, **shape, "obs": obs}
        kwargs["config"] = _with_compiled(kwargs.get("config"), compiled)
        result = fn(**kwargs)
        if not result_ok(result):
            raise ProgramError(f"{self.app} {shape} failed self-verification")
        return result.report

    def _run_record(self, report, shape: dict) -> dict:
        from ..metrics.serialize import run_record_from_report, run_record_to_dict

        n_pes = report.config.n_pes
        n = shape.get("n", 0)
        return run_record_to_dict(
            run_record_from_report(
                self.app,
                n_pes,
                n // n_pes if n_pes else 0,
                shape.get("h", 1),
                report,
                True,
            )
        )

    def _perfetto(self, compiled: bool, shape: dict) -> dict:
        from ..obs import Category, EventBus, RingRecorder
        from ..obs.perfetto import to_perfetto

        bus = EventBus()
        rec = RingRecorder(bus)
        report = self._run(compiled, shape, obs=bus)
        events = [ev for ev in rec.events if ev.category is not Category.COHORT]
        return to_perfetto(events, n_pes=report.config.n_pes)

    def run_pair(self, **shape: Any) -> CompileDifferentialResult:
        """Run the shape both ways and compare all three serialisations."""
        interpreted = self._run(False, shape)
        compiled = self._run(True, shape)
        diff = diff_paths(
            comparable_compile_report(interpreted),
            comparable_compile_report(compiled),
        )
        records_equal = self._run_record(interpreted, shape) == self._run_record(
            compiled, shape
        )
        perfetto_equal = self._perfetto(False, shape) == self._perfetto(True, shape)
        return CompileDifferentialResult(
            self.app, shape, interpreted, compiled, diff, records_equal, perfetto_equal
        )

    def check(self, **shape: Any) -> CompileDifferentialResult:
        """Assert full identity for one shape; returns the result."""
        result = self.run_pair(**shape)
        if not result.identical:
            small = self.shrink(dict(shape))
            raise AssertionError(
                f"compiled diverged from interpreted: {result.describe()}\n"
                f"minimal failing shape: {small.shape}\n"
                f"diff paths: {small.diff[:8]}"
            )
        return result

    # -- diagnosis ----------------------------------------------------
    def shrink(self, shape: dict) -> CompileDifferentialResult:
        """Greedy-halve n, then h, then n_pes while the shape still fails."""
        from ..errors import ProgramError

        current = self.run_pair(**shape)
        if current.identical:
            return current
        shrinking = True
        while shrinking:
            shrinking = False
            for axis in ("n", "h", "n_pes"):
                value = current.shape.get(axis)
                while isinstance(value, int) and value > 1:
                    candidate = {**current.shape, axis: value // 2}
                    try:
                        attempt = self.run_pair(**candidate)
                    except ProgramError:
                        break
                    if attempt.identical:
                        break
                    current = attempt
                    value = current.shape[axis]
                    shrinking = True
        return current
