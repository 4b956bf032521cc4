"""Configuration surface and the error hierarchy."""

import pytest

from repro import CLOCK_HZ, CYCLE_SECONDS, MachineConfig, TimingModel
from repro import errors as E


def test_clock_constants():
    assert CLOCK_HZ == 20_000_000
    assert CYCLE_SECONDS == pytest.approx(50e-9)


def test_default_machine_config_is_valid():
    MachineConfig().validate()


def test_with_returns_validated_copy():
    base = MachineConfig()
    derived = base.with_(n_pes=64, em4_mode=True)
    assert derived.n_pes == 64 and derived.em4_mode
    assert base.n_pes == 16 and not base.em4_mode  # original untouched
    with pytest.raises(E.ConfigError):
        base.with_(n_pes=-1)


def test_timing_switch_cost_derivation():
    tm = TimingModel()
    assert tm.switch_cost == tm.reg_save + tm.match_invoke


def test_timing_every_field_must_be_positive():
    tm = TimingModel()
    for field in tm.__dict__:
        with pytest.raises(E.ConfigError):
            tm.scaled(**{field: 0}).validate()


def test_calibrated_barrier_values():
    """The calibration DESIGN.md documents (recheck=48, check=8)."""
    tm = TimingModel()
    assert tm.barrier_recheck_interval == 48
    assert tm.barrier_check == 8


def test_error_hierarchy_roots_at_repro_error():
    leaves = [
        E.ConfigError,
        E.SimulationError,
        E.DeadlockError,
        E.AddressError,
        E.MemoryFault,
        E.NetworkError,
        E.RoutingError,
        E.PacketError,
        E.SchedulerError,
        E.ThreadProtocolError,
        E.BarrierError,
        E.ProgramError,
    ]
    for cls in leaves:
        assert issubclass(cls, E.ReproError)
    assert issubclass(E.DeadlockError, E.SimulationError)
    assert issubclass(E.RoutingError, E.NetworkError)


def test_single_except_catches_everything():
    with pytest.raises(E.ReproError):
        MachineConfig(n_pes=0).validate()
    with pytest.raises(E.ReproError):
        raise E.RoutingError("x")
