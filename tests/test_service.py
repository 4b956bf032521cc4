"""End-to-end tests for the sweep service: dedup, warm hits,
backpressure, streaming, and graceful drain.

The server runs inline (thread-pool batch workers) inside each test's
event loop; clients are the real blocking ``SweepClient`` driven
through ``asyncio.to_thread``, so every test exercises the actual HTTP
wire format.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading

import pytest

from repro.runner import JobSpec, ResultCache
from repro.service import (
    ServiceError,
    ServiceUnavailable,
    SweepClient,
    SweepService,
)

SPECS = [JobSpec(app="sort", n_pes=2, npp=8, h=h) for h in (1, 2)]


def service_test(coro_fn, tmp_path, **service_kwargs):
    """Run ``coro_fn(service, url)`` against a live inline service."""
    kwargs = dict(
        cache_dir=str(tmp_path / "svc-cache"),
        inline=True,
        workers=2,
        batch_size=4,
        linger_s=0.01,
        max_queue=32,
    )
    kwargs.update(service_kwargs)

    async def _main():
        service = SweepService(**kwargs)
        host, port = await service.start()
        try:
            return await coro_fn(service, f"http://{host}:{port}")
        finally:
            if not service._stopped.is_set():
                await service.shutdown(drain=True)

    return asyncio.run(_main())


def record_bytes(summary) -> dict[str, str]:
    """Canonical serialisation of each result record, keyed by job key."""
    return {
        entry["key"]: json.dumps(entry["record"], sort_keys=True)
        for entry in summary["results"]
    }


def raw_request(url: str, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None):
    """One raw http.client round trip; returns (status, headers, body)."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Dedup and warm paths (the acceptance criteria)
# ----------------------------------------------------------------------

def test_two_concurrent_clients_one_execution_per_key(tmp_path):
    """N clients racing the same cold sweep cost one execution per key."""

    async def scenario(service, url):
        barrier = threading.Barrier(2)

        def submit():
            barrier.wait(timeout=30)
            return SweepClient(url, timeout_s=120).submit(SPECS)

        first, second = await asyncio.gather(
            asyncio.to_thread(submit), asyncio.to_thread(submit)
        )
        return service.stats, first, second

    stats, first, second = service_test(scenario, tmp_path)
    # Exactly one execution per content key, however the two requests
    # interleaved (the loser sees dedup or — if it arrived after the
    # batch finished — warm hits; never a second execution).
    assert stats.executed == len(SPECS)
    assert stats.failed == 0
    for summary in (first, second):
        assert summary["jobs"] == len(SPECS)
        assert summary["failed"] == 0
        assert all(entry["record"] is not None for entry in summary["results"])
    assert record_bytes(first) == record_bytes(second)


def test_inflight_dedup_is_deterministic_at_admission(tmp_path):
    """Back-to-back admission in one loop step: second request attaches."""

    async def scenario(service, url):
        plan1 = service._admit_sweep(SPECS)
        plan2 = service._admit_sweep(SPECS)
        assert [row[2] for row in plan1] == ["admitted"] * len(SPECS)
        assert [row[2] for row in plan2] == ["dedup"] * len(SPECS)
        # Both plans share the same futures object-for-object.
        assert [id(row[3]) for row in plan1] == [id(row[3]) for row in plan2]
        outcomes = await asyncio.gather(*(row[3] for row in plan1))
        assert all(outcome.error is None for outcome in outcomes)
        return service.stats

    stats = service_test(scenario, tmp_path)
    assert stats.executed == len(SPECS)
    assert stats.dedup_hits == len(SPECS)


def test_duplicate_specs_within_one_request_dedup(tmp_path):
    async def scenario(service, url):
        doubled = [SPECS[0], SPECS[0]]
        summary = await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit(doubled)
        )
        return service.stats, summary

    stats, summary = service_test(scenario, tmp_path)
    assert stats.executed == 1
    assert summary["dedup"] == 1
    entries = summary["results"]
    assert entries[0]["record"] == entries[1]["record"] is not None


def test_warm_resubmission_executes_zero_and_is_byte_identical(tmp_path):
    async def scenario(service, url):
        cold = await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit(SPECS)
        )
        warm = await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit(SPECS)
        )
        return service.stats, cold, warm

    stats, cold, warm = service_test(scenario, tmp_path)
    assert stats.executed == len(SPECS)  # only the cold pass ran anything
    assert warm["warm"] == len(SPECS)
    assert warm["executed"] == 0 and warm["failed"] == 0
    assert all(entry["source"] == "warm" for entry in warm["results"])
    assert record_bytes(cold) == record_bytes(warm)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

def test_oversized_sweep_sheds_with_429_and_retry_after(tmp_path):
    cold = [JobSpec(app="sort", n_pes=2, npp=8, h=h) for h in (1, 2, 4)]

    async def scenario(service, url):
        payload = json.dumps(
            {"jobs": [dict(app=s.app, n_pes=s.n_pes, npp=s.npp, h=s.h) for s in cold]}
        ).encode()
        status, headers, body = await asyncio.to_thread(
            raw_request, url, "POST", "/sweep", payload,
            {"Content-Type": "application/json"},
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert b"retry" in body.lower()
        # Nothing was admitted: the request shed whole.
        assert service.stats.admitted == 0
        assert service.stats.shed_requests == 1

        # The client surfaces exhausted retries as ServiceUnavailable.
        with pytest.raises(ServiceUnavailable):
            await asyncio.to_thread(
                lambda: SweepClient(url, retries=1, backoff_s=0.01,
                                    timeout_s=30).submit(cold)
            )

        # A request that fits the bound still goes through afterwards.
        summary = await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit(cold[:2])
        )
        assert summary["failed"] == 0
        return service.stats

    stats = service_test(scenario, tmp_path, max_queue=2)
    assert stats.shed_requests >= 2
    assert stats.max_queue_depth <= 2


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------

def test_graceful_shutdown_drains_queued_jobs_to_cache(tmp_path):
    cold = [JobSpec(app="sort", n_pes=2, npp=8, h=h) for h in (1, 2, 4)]

    async def scenario(service, url):
        plan = service._admit_sweep(cold)
        # Shut down immediately: every admitted job must still complete
        # and persist before the service reports stopped.
        await service.shutdown(drain=True)
        for row in plan:
            outcome = row[3].result()
            assert outcome.error is None
        return service.stats

    stats = service_test(scenario, tmp_path)
    assert stats.executed == len(cold)
    cache = ResultCache(str(tmp_path / "svc-cache"))
    assert len(cache) == len(cold)
    for spec in cold:
        assert cache.get(spec) is not None


def test_shutdown_endpoint_stops_the_server(tmp_path):
    async def scenario(service, url):
        payload = await asyncio.to_thread(SweepClient(url).shutdown)
        assert payload["ok"] is True
        await asyncio.wait_for(service.wait_stopped(), timeout=30)
        healthy = await asyncio.to_thread(
            SweepClient(url, retries=0, timeout_s=5).health
        )
        assert healthy is False
        return True

    assert service_test(scenario, tmp_path)


# ----------------------------------------------------------------------
# HTTP surface details
# ----------------------------------------------------------------------

def test_http_error_paths(tmp_path):
    async def scenario(service, url):
        checks = []
        for method, path, body, want in [
            ("GET", "/nowhere", None, 404),
            ("GET", "/sweep", None, 405),
            ("POST", "/sweep", b"{not json", 400),
            ("POST", "/sweep", b'{"jobs": []}', 400),
            ("POST", "/sweep", b'{"jobs": [{"app": "no-such-app", "n_pes": 2, "npp": 8, "h": 1}]}', 400),
            ("POST", "/sweep", b'{"jobs": [{"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "bogus": 1}]}', 400),
            # Wire types are checked, never coerced.
            ("POST", "/sweep", b'{"jobs": [{"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "em4_mode": "false"}]}', 400),
            ("POST", "/sweep", b'{"jobs": [{"app": "sort", "n_pes": 2, "npp": 8, "h": true}]}', 400),
            ("POST", "/sweep", b'{"jobs": [{"app": "sort", "n_pes": 4.9, "npp": 8, "h": 1}]}', 400),
            # The execution plan is validated at admission.
            ("POST", "/sweep", b'{"jobs": [{"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "shards": -1}]}', 400),
        ]:
            headers = {"Content-Length": str(len(body))} if body else {}
            status, _, _ = await asyncio.to_thread(
                raw_request, url, method, path, body, headers
            )
            checks.append((method, path, status, want))
        return checks, service.stats

    checks, stats = service_test(scenario, tmp_path)
    for method, path, status, want in checks:
        assert status == want, (method, path, status)
    assert stats.bad_requests == len(checks)
    assert stats.executed == 0


def test_status_shares_the_cache_stats_schema(tmp_path):
    async def scenario(service, url):
        await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit([SPECS[0]])
        )
        return await asyncio.to_thread(SweepClient(url).status)

    status = service_test(scenario, tmp_path)
    assert status["ok"] is True
    assert status["queue"]["capacity"] == 32
    assert status["stats"]["executed"] == 1
    # The cache section is CacheStats.to_dict() — same keys the CLI's
    # `cache stats --json` prints — plus the service's dedup counter.
    cache = status["cache"]
    assert {"root", "schema", "entries", "bytes", "timed_entries",
            "wall_seconds", "peak_rss_kb", "counters"} <= set(cache)
    assert {"hits", "misses", "writes", "discards", "dedup"} <= set(cache["counters"])
    assert cache["entries"] == 1


def test_streamed_progress_event_order(tmp_path):
    async def scenario(service, url):
        events = []
        summary = await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit(
                SPECS, on_progress=events.append
            )
        )
        return events, summary

    events, summary = service_test(scenario, tmp_path)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "accepted"
    assert kinds[-1] == "done"
    assert kinds.count("job") == len(SPECS)
    assert events[0]["admitted"] == len(SPECS)
    assert summary["executed"] == len(SPECS)


def test_non_streaming_submit(tmp_path):
    async def scenario(service, url):
        return await asyncio.to_thread(
            lambda: SweepClient(url, timeout_s=120).submit(SPECS, stream=False)
        )

    summary = service_test(scenario, tmp_path)
    assert summary["event"] == "done"
    assert summary["executed"] == len(SPECS)
    assert all(entry["record"] is not None for entry in summary["results"])


def test_healthz_and_draining_rejection(tmp_path):
    async def scenario(service, url):
        assert await asyncio.to_thread(SweepClient(url).health) is True
        service._draining = True  # simulate mid-drain without stopping
        status, headers, _ = await asyncio.to_thread(
            raw_request, url, "POST", "/sweep",
            b'{"jobs": [{"app": "sort", "n_pes": 2, "npp": 8, "h": 1}]}',
            {"Content-Type": "application/json"},
        )
        assert status == 503
        assert "Retry-After" in headers
        service._draining = False
        return True

    assert service_test(scenario, tmp_path)


def test_client_retries_exhausted_against_dead_server():
    client = SweepClient("http://127.0.0.1:9", retries=1, backoff_s=0.01,
                         timeout_s=2)
    with pytest.raises(ServiceUnavailable):
        client.status()
    assert client.health() is False


def test_client_rejects_non_http_urls():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        SweepClient("https://example.com")


def test_client_submit_requires_jobs():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        SweepClient("http://127.0.0.1:9").submit([])


def test_service_error_carries_status(tmp_path):
    async def scenario(service, url):
        with pytest.raises(ServiceError) as err:
            await asyncio.to_thread(
                lambda: SweepClient(url, timeout_s=30).submit(
                    [{"app": "sort", "n_pes": 2, "npp": 8, "h": 1, "bogus": 3}]
                )
            )
        return err.value.status

    assert service_test(scenario, tmp_path) == 400
