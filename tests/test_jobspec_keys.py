"""JobSpec content-key stability: golden hashes and cross-process checks.

The content key names cache files shared between processes, machines
and CLI runs — a key that drifted between runs would silently turn
every warm hit into a re-execution (or worse, a collision).  The golden
fixture pins the exact hex digests; the subprocess test proves a fresh
interpreter derives the same keys.  Each golden's `spec` dict holds
`JobSpec` keyword arguments.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.runner.jobs import JobSpec, spec_to_dict

GOLDENS_PATH = pathlib.Path(__file__).parent / "goldens" / "jobspec_keys.json"
GOLDENS = json.loads(GOLDENS_PATH.read_text())


@pytest.mark.parametrize(
    "golden", GOLDENS, ids=[g["key"][:8] for g in GOLDENS]
)
def test_golden_key_is_stable(golden):
    spec = JobSpec(**golden["spec"])
    assert spec.key() == golden["key"]


def test_goldens_cover_every_spec_field():
    """Every JobSpec field is exercised by at least one golden, so a
    field that stops affecting (or starts affecting) the key fails here."""
    defaults = spec_to_dict(JobSpec(app="x", n_pes=1, npp=1, h=1))
    non_default = set()
    for golden in GOLDENS:
        for name, value in golden["spec"].items():
            if name in ("app", "n_pes", "npp", "h") or value != defaults[name]:
                non_default.add(name)
    assert non_default == set(defaults)


def test_key_is_invariant_to_dict_round_trip():
    for golden in GOLDENS:
        spec = JobSpec(**golden["spec"])
        again = JobSpec(**spec_to_dict(spec))
        assert again == spec
        assert again.key() == spec.key()


def test_key_is_invariant_to_field_order():
    payload = dict(GOLDENS[0]["spec"])
    reordered = dict(reversed(list(payload.items())))
    assert JobSpec(**reordered).key() == GOLDENS[0]["key"]


def test_distinct_specs_have_distinct_keys():
    keys = [golden["key"] for golden in GOLDENS]
    assert len(set(keys)) == len(keys)


def test_seed_and_machine_flags_move_the_key():
    base = JobSpec(app="sort", n_pes=4, npp=32, h=2)
    variants = [
        JobSpec(app="sort", n_pes=4, npp=32, h=2, seed=1),
        JobSpec(app="sort", n_pes=4, npp=32, h=2, em4_mode=True),
        JobSpec(app="sort", n_pes=4, npp=32, h=2, priority_replies=True),
    ]
    keys = {base.key()} | {variant.key() for variant in variants}
    assert len(keys) == len(variants) + 1


def test_keys_match_across_processes():
    """A fresh interpreter (fresh hash seed, fresh imports) derives the
    same key for every golden spec — the property that lets separate
    processes and CLI runs share one cache."""
    script = (
        "import json, sys\n"
        "from repro.runner.jobs import JobSpec\n"
        "goldens = json.load(open(sys.argv[1]))\n"
        "print(json.dumps([JobSpec(**g['spec']).key() for g in goldens]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(GOLDENS_PATH)],
        capture_output=True,
        text=True,
        check=True,
        cwd=pathlib.Path(__file__).parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": "random"},
    )
    assert json.loads(out.stdout) == [golden["key"] for golden in GOLDENS]
