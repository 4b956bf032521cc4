"""One front door to the paper's workloads.

Every workload (`repro.apps`) registers itself in :data:`APPS` under its
CLI name via :func:`register_app`; :func:`run` is the single public
entry point that looks the app up, runs it with the unified keyword-only
signature, checks verification, and returns the
:class:`~repro.machine.MachineReport`::

    import repro

    report = repro.run("sort", n=1024, n_pes=16, h=4)
    print(report.runtime_cycles)

The CLI (``python -m repro``) and the experiment runner dispatch through
the same registry, so adding a workload is one ``@register_app("name")``
decorator — not parallel edits to three hand-maintained dicts.
Every entry point is keyword-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .errors import PlanError, ProgramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import MachineReport

__all__ = [
    "APPS",
    "ExecutionPlan",
    "register_app",
    "get_app",
    "app_names",
    "result_ok",
    "call_with_plan",
    "run",
]

#: Registry of runnable workloads, keyed by CLI name (and aliases).
#: Populated as a side effect of importing :mod:`repro.apps`; use
#: :func:`get_app`/:func:`app_names` to read it with loading handled.
APPS: dict[str, Callable[..., Any]] = {}


def register_app(name: str, *aliases: str) -> Callable:
    """Register a workload entry point under ``name`` (plus aliases).

    The decorated function must take keyword-only arguments including at
    least ``n_pes``, ``n``, ``h``, ``config`` and ``obs``, and return a
    result object exposing ``.report`` (a MachineReport) and a
    verification flag (``sorted_ok`` or ``verified``).  The function
    itself is registered and returned, tagged with ``app_names``.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        fn.app_names = (name, *aliases)  # type: ignore[attr-defined]
        for key in (name, *aliases):
            if key in APPS:
                raise ProgramError(f"app name {key!r} registered twice")
            APPS[key] = fn
        return fn

    return decorate


def _load_apps() -> None:
    """Make sure the registry is populated (idempotent)."""
    from . import apps  # noqa: F401  (import side effect: decorators run)


def get_app(name: str) -> Callable[..., Any]:
    """The registered entry point for ``name``; raises ProgramError."""
    _load_apps()
    try:
        return APPS[name]
    except KeyError:
        raise ProgramError(
            f"unknown app {name!r}; registered apps: {', '.join(app_names())}"
        ) from None


def app_names() -> tuple[str, ...]:
    """All registered app names (sorted, aliases included)."""
    _load_apps()
    return tuple(sorted(APPS))


def result_ok(result: Any) -> bool:
    """Did an app result pass its self-verification?

    Apps flag verification as ``sorted_ok`` (the sorters) or
    ``verified`` (FFT); results with neither are treated as passing.
    """
    ok = getattr(result, "sorted_ok", None)
    if ok is None:
        ok = getattr(result, "verified", True)
    return bool(ok)


@dataclass(frozen=True)
class ExecutionPlan:
    """How to execute a workload — the one bundle of engine-mode knobs.

    It reaches a run two ways: :func:`run` takes ``plan=``, and the CLI's
    ``repro trace --plan compiled`` builds one::

        report = repro.run("emc-sort", n=1024, n_pes=16, h=4,
                           plan=repro.ExecutionPlan(compiled=True))

    * ``compiled`` — route thread creation through the cohort compiler
      (:mod:`repro.compile`).  Only EM-C threads compile; the native
      apps run on the interpreter either way.

    The class is frozen (hashable); :meth:`validate` checks the field's
    type.
    """

    compiled: bool = False

    def validate(self) -> "ExecutionPlan":
        """Check field types; returns ``self`` so call sites can chain.

        Malformed plans raise :class:`~repro.errors.PlanError`.
        """
        if type(self.compiled) is not bool:
            raise PlanError(f"compiled must be a bool, got {self.compiled!r}")
        return self


def call_with_plan(fn: Callable[..., Any], kwargs: dict, plan: ExecutionPlan) -> Any:
    """Run ``fn(**kwargs)`` under ``plan`` — the single dispatch funnel.

    :func:`run` and ``repro trace`` land here.  ``kwargs`` is the app's
    keyword dict (``config``/``obs`` included); ``compiled=False`` defers
    to any machine config already present, so a config built with
    ``compiled=True`` keeps meaning what it always did.
    """
    plan.validate()
    config = kwargs.get("config")
    if plan.compiled and (config is None or not config.compiled):
        kwargs = {**kwargs, "config": _with_compiled(config, True)}
    return fn(**kwargs)


def _with_compiled(config: Any, compiled: bool) -> Any:
    """``config`` (or a default machine) with ``compiled`` set."""
    from dataclasses import replace

    from .config import MachineConfig

    if config is None:
        return MachineConfig(compiled=compiled)
    return replace(config, compiled=compiled)


def run(
    app: str,
    *,
    n: int,
    n_pes: int,
    h: int,
    config: Any = None,
    obs: Any = None,
    plan: ExecutionPlan | None = None,
    **app_kwargs: Any,
) -> "MachineReport":
    """Run one workload and return its :class:`~repro.machine.MachineReport`.

    ``app`` is a registry name (see :func:`app_names`); ``n`` the problem
    size, ``n_pes`` the processor count, ``h`` the threads per processor.
    Execution strategy comes in as ``plan=ExecutionPlan(...)`` — see
    :class:`ExecutionPlan` for what each field does.  Extra keywords are
    forwarded to the app (e.g. ``seed=``, ``verify=``, ``kernel=``), so
    an unknown keyword is the app's own ``TypeError``.  Raises
    :class:`~repro.errors.ProgramError` for unknown apps or when the run
    fails its self-verification.
    """
    fn = get_app(app)
    kwargs = dict(n_pes=n_pes, n=n, h=h, config=config, obs=obs, **app_kwargs)
    result = call_with_plan(fn, kwargs, plan or ExecutionPlan())
    if not result_ok(result):
        raise ProgramError(f"app {app!r} (n={n}, n_pes={n_pes}, h={h}) failed verification")
    return result.report
