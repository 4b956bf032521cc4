"""The `repro.api` front door: registry, facade, and unified signatures."""

import inspect

import pytest

import repro
from repro.api import app_names, get_app, result_ok
from repro.apps.bitonic import run_bitonic
from repro.errors import ProgramError
from repro.machine import MachineReport

#: Every registered app must take these, keyword-only, in any order.
CORE_PARAMS = ("n_pes", "n", "h", "config", "obs", "seed")


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def test_run_from_bare_import():
    report = repro.run("sort", n=16, n_pes=2, h=2)
    assert isinstance(report, MachineReport)
    assert report.runtime_cycles > 0
    assert report.events_fired > 0


def test_run_matches_direct_app_call():
    direct = run_bitonic(n_pes=2, n=16, h=2, seed=0)
    via_api = repro.run("sort", n=16, n_pes=2, h=2, seed=0)
    assert via_api.runtime_cycles == direct.report.runtime_cycles
    assert via_api.events_fired == direct.report.events_fired


def test_run_forwards_app_kwargs():
    # Unknown keywords surface as the app's own TypeError …
    with pytest.raises(TypeError):
        repro.run("sort", n=16, n_pes=2, h=2, bogus_kwarg=1)
    # … and a real app keyword changes behaviour (block reads batch
    # the element fetches, so the packet count must drop).
    a = repro.run("sort", n=64, n_pes=2, h=2, block_reads=False)
    b = repro.run("sort", n=64, n_pes=2, h=2, block_reads=True)
    assert a.network.packets != b.network.packets


def test_failed_verification_raises():
    with pytest.raises(ProgramError, match="failed verification"):
        repro.run("fft", n=16, n_pes=2, h=2, tolerance=-1.0)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def test_registry_contains_cli_names_and_aliases():
    names = app_names()
    for expected in ("sort", "bitonic", "fft", "transpose", "emc-sort", "emc-bitonic"):
        assert expected in names
    assert get_app("sort") is get_app("bitonic")
    assert get_app("emc-sort") is get_app("emc-bitonic")


def test_unknown_app_raises_with_listing():
    with pytest.raises(ProgramError, match="unknown app 'quicksort'.*sort"):
        get_app("quicksort")
    with pytest.raises(ProgramError):
        repro.run("quicksort", n=16, n_pes=2, h=2)


def test_public_surface_reexported():
    for name in ("run", "APPS", "app_names", "get_app", "register_app"):
        assert name in repro.__all__
        assert hasattr(repro, name)


# ----------------------------------------------------------------------
# Unified signatures
# ----------------------------------------------------------------------
def test_every_app_signature_has_unified_core():
    for name in app_names():
        fn = inspect.unwrap(get_app(name))
        params = inspect.signature(fn).parameters
        for pname in CORE_PARAMS:
            assert pname in params, f"{name} lacks parameter {pname!r}"
            assert params[pname].kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{name}'s {pname!r} is not keyword-only"
            )
        # Nothing is accepted positionally on the real entry points.
        assert all(
            p.kind in (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.VAR_KEYWORD)
            for p in params.values()
        ), f"{name} still has positional parameters"


# ----------------------------------------------------------------------
# result_ok
# ----------------------------------------------------------------------
def test_result_ok_reads_either_flag():
    class R:
        pass

    plain = R()
    assert result_ok(plain) is True  # no flag: trusted

    verified = R()
    verified.verified = False
    assert result_ok(verified) is False

    sorter = R()
    sorter.sorted_ok = False
    sorter.verified = True  # sorted_ok takes precedence
    assert result_ok(sorter) is False
