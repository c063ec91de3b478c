"""The shared HTTP helper and the JSON frontend over a real socket.

Every test binds an ephemeral port (``port=0``) and talks plain
``urllib`` — the same path an external client takes.  The frontend tests
run one module-scoped pool on tiny tiles; the ``--quick`` self-test
(which repeats the full round trip and verifies the payload bit-for-bit
against direct pricing) backs these in CI.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.serving import CrossbarPool, JsonHttpServer
from repro.serving.frontend import build_server
from repro.serving.http import JSON_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE

TILE = 1 << 9


def fetch(url, payload=None, method=None, headers=None):
    """One urllib round trip -> (status, headers, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            raw = response.read()
            info = dict(response.headers)
            status = response.status
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        info = dict(exc.headers)
        status = exc.code
    content_type = info.get("Content-Type", "")
    body = json.loads(raw) if "json" in content_type else raw.decode()
    return status, info, body


@pytest.fixture()
def echo_server():
    def echo(_match, body):
        return 200, {"echo": body}

    def greet(match, _body):
        return 200, {"hello": match.group("name")}, {"X-Custom": "yes"}

    def scrape(_match, _body):
        return 200, "metric_total 1\n"

    def explode(_match, _body):
        raise RuntimeError("handler bug")

    def nonfinite(_match, _body):
        return 200, {"bad": float("nan"), "worse": float("inf"), "ok": 1.5}

    routes = [
        ("POST", re.compile(r"/echo/?$"), echo),
        ("GET", re.compile(r"/greet/(?P<name>\w+)/?$"), greet),
        ("GET", re.compile(r"/metrics/?$"), scrape),
        ("GET", re.compile(r"/explode/?$"), explode),
        ("GET", re.compile(r"/nonfinite/?$"), nonfinite),
    ]
    with JsonHttpServer(routes, max_body_bytes=256) as server:
        yield server


class TestJsonHttpServer:
    def test_json_round_trip(self, echo_server):
        status, info, body = fetch(
            f"{echo_server.url}/echo", payload={"a": [1, 2]}
        )
        assert status == 200
        assert info["Content-Type"] == JSON_CONTENT_TYPE
        assert body == {"echo": {"a": [1, 2]}}

    def test_path_captures_and_extra_headers(self, echo_server):
        status, info, body = fetch(f"{echo_server.url}/greet/apim")
        assert status == 200
        assert body == {"hello": "apim"}
        assert info["X-Custom"] == "yes"

    def test_string_payload_is_prometheus_text(self, echo_server):
        status, info, body = fetch(f"{echo_server.url}/metrics")
        assert status == 200
        assert info["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert body == "metric_total 1\n"

    def test_unrouted_path_404s(self, echo_server):
        status, _, body = fetch(f"{echo_server.url}/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_404s(self, echo_server):
        status, _, _ = fetch(f"{echo_server.url}/echo")  # GET on a POST route
        assert status == 404

    def test_oversized_body_413s(self, echo_server):
        status, _, body = fetch(
            f"{echo_server.url}/echo", payload={"blob": "x" * 500}
        )
        assert status == 413
        assert body["max_body_bytes"] == 256

    def test_invalid_json_400s(self, echo_server):
        request = urllib.request.Request(
            f"{echo_server.url}/echo", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10.0)
        assert info.value.code == 400

    def test_handler_exception_becomes_500_json(self, echo_server):
        status, _, body = fetch(f"{echo_server.url}/explode")
        assert status == 500
        assert "RuntimeError" in body["error"]

    def test_nonfinite_floats_sanitized(self, echo_server):
        _, _, body = fetch(f"{echo_server.url}/nonfinite")
        assert body == {"bad": None, "worse": None, "ok": 1.5}

    def test_close_is_idempotent(self):
        server = JsonHttpServer([]).start()
        server.close()
        server.close()

    def test_double_start_raises(self):
        from repro.errors import ServingError

        server = JsonHttpServer([])
        with server:
            with pytest.raises(ServingError):
                server.start()


@pytest.fixture(scope="module")
def served_pool():
    with CrossbarPool(shards=2, tile_elements=TILE) as pool:
        with build_server(pool) as server:
            yield pool, server


class TestFrontend:
    def test_submit_poll_result(self, served_pool):
        _, server = served_pool
        status, _, reply = fetch(
            f"{server.url}/submit",
            payload={"workload": "Robert", "relax_bits": 8},
        )
        assert status == 202 and reply["status"] == "queued"
        result = None
        for _ in range(600):
            status, _, result = fetch(f"{server.url}/result/{reply['id']}")
            if status == 200:
                break
        assert status == 200
        assert result["status"] == "ok"
        assert result["point"]["speedup"] > 0

    def test_submit_validations(self, served_pool):
        _, server = served_pool
        cases = [
            ({}, 400),
            ({"workload": "NotAWorkload"}, 400),
            ({"workload": "Sobel", "surprise": 1}, 400),
            ({"workload": "Sobel", "relax_bits": "many"}, 400),
        ]
        for payload, expected in cases:
            status, _, body = fetch(f"{server.url}/submit", payload=payload)
            assert status == expected, (payload, body)
            assert "error" in body

    def test_queue_full_429_with_retry_after(self):
        from repro.serving import ServingConfig

        config = ServingConfig(queue_capacity=1)
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, serving_config=config
        )
        # Deliberately not started: nothing drains, the second submit
        # must bounce off the full queue.
        with build_server(pool) as server:
            pool._started = True  # keep submit from starting workers
            first = fetch(
                f"{server.url}/submit", payload={"workload": "Sobel"}
            )
            assert first[0] == 202
            status, info, body = fetch(
                f"{server.url}/submit", payload={"workload": "Sobel"}
            )
            assert status == 429
            assert float(info["Retry-After"]) > 0
            assert body["retry_after_s"] > 0

    def test_unknown_result_404s(self, served_pool):
        _, server = served_pool
        status, _, _ = fetch(f"{server.url}/result/never-was")
        assert status == 404

    def test_healthz_and_stats(self, served_pool):
        _, server = served_pool
        status, _, health = fetch(f"{server.url}/healthz")
        assert status == 200
        assert health["healthy_shards"] == 2
        status, _, stats = fetch(f"{server.url}/stats")
        assert status == 200
        assert {"scheduler", "results", "shards"} <= set(stats)

    def test_metrics_scrape_exposes_serving_families(self, served_pool):
        _, server = served_pool
        status, info, text = fetch(f"{server.url}/metrics")
        assert status == 200
        assert info["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "repro_serving_admission_total" in text
