"""Guidance backends: scripted determinism, replay from query records, and
the HTTP client against a local mock chat-completions server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from proofsearch.agent import QueryRecord
from proofsearch.llm import (
    Completion,
    CompletionRequest,
    HttpBackend,
    HttpBackendConfig,
    InfrastructureFailure,
    RateLimiter,
    ReplayBackend,
    ScriptedBackend,
    SequenceBackend,
)
from proofsearch.prompts import LENGTH_CAP, NATURAL_STOP


def request_for(state_key="s", system="sys", text="hello"):
    return CompletionRequest(
        system=system, turns=[("user", text)], metadata={"state_key": state_key}
    )


class TestCompletionRequest:
    def test_temperature_default_zero(self):
        assert request_for().temperature == 0.0

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(system="s", temperature=-0.1)


class TestScriptedBackend:
    def test_keyed_by_state_and_ordinal(self):
        backend = ScriptedBackend(
            {("s1", 1): "first", ("s1", 2): "second", ("s2", 1): "other"},
            default="fallback",
        )
        assert backend.complete(request_for("s1")).text == "first"
        assert backend.complete(request_for("s2")).text == "other"
        assert backend.complete(request_for("s1")).text == "second"
        assert backend.complete(request_for("s1")).text == "fallback"

    def test_natural_stop_and_latency(self):
        completion = ScriptedBackend({}, default="x").complete(request_for())
        assert completion.stop_reason == NATURAL_STOP
        assert completion.latency_seconds >= 0.0


class TestSequenceBackend:
    def test_in_order_then_default(self):
        backend = SequenceBackend(["a", "b"], default="d")
        texts = [backend.complete(request_for()).text for _ in range(4)]
        assert texts == ["a", "b", "d", "d"]


def record_for(ordinal, response, stage="plain", state_key="s", text="hello"):
    return QueryRecord(ordinal=ordinal, stage=stage, state_key=state_key,
                       prompt_text=text, prompt_tokens=1, response=response,
                       stop_reason=NATURAL_STOP, latency_seconds=0.25 * ordinal)


def replay_request(stage="plain", state_key="s", text="hello"):
    return CompletionRequest(system="sys", turns=[("user", text)],
                             metadata={"state_key": state_key, "stage": stage})


class TestRecordReplay:
    def test_round_trip_byte_identical(self):
        records = [record_for(1, "alpha"), record_for(2, "beta"),
                   record_for(3, "gamma", stage="informal", state_key="sketch", text="T")]
        replay = ReplayBackend(records)
        replayed = [replay.complete(replay_request()), replay.complete(replay_request()),
                    replay.complete(replay_request("informal", "sketch", "T"))]
        assert replayed == [Completion("alpha", NATURAL_STOP, 0.25),
                            Completion("beta", NATURAL_STOP, 0.5),
                            Completion("gamma", NATURAL_STOP, 0.75)]

    def test_replay_exhaustion_is_infrastructure(self):
        replay = ReplayBackend([record_for(1, "only")])
        replay.complete(replay_request())
        with pytest.raises(InfrastructureFailure, match="replay stream exhausted"):
            replay.complete(replay_request())

    @pytest.mark.parametrize("asked", [
        {"stage": "retrieval"}, {"state_key": "t"}, {"text": "hello again"},
    ], ids=["stage", "state-key", "prompt"])
    def test_mismatch_is_infrastructure_and_keeps_the_record(self, asked):
        replay = ReplayBackend([record_for(1, "first"), record_for(2, "second")])
        assert replay.complete(replay_request()).text == "first"
        with pytest.raises(InfrastructureFailure, match="^replay mismatch at query 2$"):
            replay.complete(replay_request(**asked))
        assert replay.complete(replay_request()).text == "second"


class _MockHandler(BaseHTTPRequestHandler):
    server_version = "MockChat/1"
    behaviors = []  # mutated per test: list of ("ok"|"error"|"garbage"|"body", payload)

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).last_request = {
            "path": self.path,
            "body": body,
            "auth": self.headers.get("Authorization"),
        }
        kind, payload = (
            self.behaviors.pop(0) if self.behaviors else ("ok", {"text": "default"})
        )
        if kind == "error":
            self.send_response(payload)
            self.end_headers()
            return
        if kind == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
            return
        if kind == "body":  # a 200 whose JSON body is the payload itself
            response = payload
        else:
            max_tokens = body.get("max_tokens")
            text = payload["text"]
            finish = "stop"
            if max_tokens is not None and len(text.split()) > max_tokens:
                text = " ".join(text.split()[:max_tokens])
                finish = "length"
            response = {
                "choices": [{"message": {"content": text}, "finish_reason": finish}]
            }
        data = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_server():
    server = HTTPServer(("127.0.0.1", 0), _MockHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _MockHandler.behaviors = []
    yield f"http://127.0.0.1:{server.server_port}", _MockHandler
    server.shutdown()
    server.server_close()


def http_backend(base_url, **overrides):
    config = HttpBackendConfig(
        base_url=base_url,
        model="test-model",
        backoff_seconds=0.01,
        **overrides,
    )
    return HttpBackend(config)


class TestHttpBackend:
    def test_posts_chat_completions_payload(self, mock_server, monkeypatch):
        base_url, handler = mock_server
        monkeypatch.setenv("PROOFSEARCH_API_KEY", "sekrit")
        handler.behaviors = [("ok", {"text": "hi there"})]
        completion = http_backend(base_url).complete(request_for(text="prompt body"))
        assert completion.text == "hi there"
        assert completion.stop_reason == NATURAL_STOP
        sent = handler.last_request
        assert sent["path"] == "/chat/completions"
        assert sent["auth"] == "Bearer sekrit"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["n"] == 1
        assert sent["body"]["temperature"] == 0.0
        assert sent["body"]["messages"][0] == {"role": "system", "content": "sys"}
        assert sent["body"]["messages"][1] == {"role": "user", "content": "prompt body"}

    def test_max_tokens_one_yields_length_cap(self, mock_server):
        base_url, handler = mock_server
        handler.behaviors = [("ok", {"text": "intro h and then some"})]
        request = CompletionRequest(system="sys", turns=[("user", "u")], max_tokens=1)
        completion = http_backend(base_url).complete(request)
        assert completion.stop_reason == LENGTH_CAP
        assert completion.text == "intro"

    def test_retries_transient_500_then_succeeds(self, mock_server):
        base_url, handler = mock_server
        handler.behaviors = [("error", 500), ("error", 429), ("ok", {"text": "ok now"})]
        completion = http_backend(base_url).complete(request_for())
        assert completion.text == "ok now"

    def test_exhausted_retries_raise_infrastructure(self, mock_server):
        base_url, handler = mock_server
        handler.behaviors = [("error", 500)] * 10
        with pytest.raises(InfrastructureFailure):
            http_backend(base_url, max_transport_retries=2).complete(request_for())

    @pytest.mark.parametrize(
        "behavior",
        [
            ("garbage", None),
            ("body", {"choices": []}),
            ("body", [{"message": {"content": "intro h"}}]),
            ("body", {"choices": [{"message": {"content": None}, "finish_reason": "stop"}]}),
        ],
        ids=["not-json", "no-choices", "json-array", "null-content"],
    )
    def test_malformed_body_raises_infrastructure(self, mock_server, behavior):
        base_url, handler = mock_server
        handler.behaviors = [behavior] * 10
        with pytest.raises(InfrastructureFailure):
            http_backend(base_url, max_transport_retries=1).complete(request_for())

    def test_unreachable_server(self):
        backend = http_backend("http://127.0.0.1:9", max_transport_retries=0,
                               timeout_seconds=0.2)
        with pytest.raises(InfrastructureFailure):
            backend.complete(request_for())


class TestRateLimiter:
    def test_disabled_limiter_is_free(self):
        limiter = RateLimiter(None)
        limiter.wait()
        limiter.wait()

    def test_spacing_enforced(self):
        import time

        limiter = RateLimiter(50.0)  # 20 ms spacing
        limiter.wait()
        start = time.monotonic()
        limiter.wait()
        assert time.monotonic() - start >= 0.015


def test_completion_is_value_type():
    assert Completion("x", NATURAL_STOP, 0.0) == Completion("x", NATURAL_STOP, 0.0)
