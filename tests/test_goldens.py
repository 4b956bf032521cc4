"""Golden-run regression: the simulator's exact determinism, pinned.

The simulator is fully deterministic, so small runs can be pinned
exactly: any change to timing constants, scheduling, routing or
accounting produces a diff here.  After an *intentional* model change,
regenerate with::

    PYTHONPATH=src python tests/test_goldens.py > tests/goldens/golden_runs.json
"""

import json
import pathlib

from repro.api import get_app, result_ok

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "golden_runs.json"

#: (name, app, n_pes, npp, h, seed) — small, fast, deterministic runs.
GOLDEN_CONFIGS = (
    ("sort_p4_n64_h1", "sort", 4, 16, 1, 0),
    ("sort_p4_n64_h4", "sort", 4, 16, 4, 0),
    ("sort_p8_n128_h2", "sort", 8, 16, 2, 1),
    ("fft_p4_n64_h1", "fft", 4, 16, 1, 0),
    ("fft_p4_n64_h4", "fft", 4, 16, 4, 0),
    ("fft_p8_n128_h2", "fft", 8, 16, 2, 1),
    ("transpose_p4_n64_h2", "transpose", 4, 16, 2, 0),
)


def make_goldens() -> dict[str, dict]:
    """Run every golden configuration and collect its fingerprint."""
    out: dict[str, dict] = {}
    for name, app, n_pes, npp, h, seed in GOLDEN_CONFIGS:
        result = get_app(app)(n_pes=n_pes, n=n_pes * npp, h=h, seed=seed)
        assert result_ok(result), f"golden run {name} produced a wrong answer"
        report = result.report
        out[name] = {
            "runtime_cycles": report.runtime_cycles,
            "events_fired": report.events_fired,
            "comm_cycles": report.breakdown.communication,
            "switching_cycles": report.breakdown.switching,
            "computation_cycles": report.breakdown.computation,
            "overhead_cycles": report.breakdown.overhead,
            "network_packets": report.network.packets,
            "total_switches": sum(c.total_switches for c in report.counters),
        }
    return out


def test_goldens_match_stored():
    assert make_goldens() == json.loads(GOLDEN.read_text())


def test_goldens_cover_all_apps():
    apps = {cfg[1] for cfg in GOLDEN_CONFIGS}
    assert apps == {"sort", "fft", "transpose"}


def test_make_goldens_is_deterministic():
    assert make_goldens() == make_goldens()


if __name__ == "__main__":
    print(json.dumps(make_goldens(), indent=2, sort_keys=True))
