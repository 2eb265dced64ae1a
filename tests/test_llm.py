"""Guidance backends: scripted determinism, replay of a recorded trace, and
the HTTP client against a local mock chat-completions server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from proofsearch import llm
from proofsearch.llm import (
    Completion,
    CompletionRequest,
    HttpBackend,
    HttpBackendConfig,
    InfrastructureFailure,
    RateLimiter,
    ReplayBackend,
    ScriptedBackend,
)
from proofsearch.prompts import LENGTH_CAP, NATURAL_STOP
from proofsearch.trace import (REASON_INFRASTRUCTURE, REASON_TIMEOUT, EpisodeTrace, QueryRecord,
                               SearchOutcome)

from conftest import SequenceBackend


def request_for(state_key="s", system="sys", text="hello"):
    return CompletionRequest(
        system=system, turns=[("user", text)], metadata={"state_key": state_key}
    )


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


def recording(*records, failure_reason=None):
    """A recorded episode's trace that holds `records` and ends unproved."""
    return EpisodeTrace(theorem="t", config={}, log=list(records),
                        outcome=SearchOutcome(proved=False, failure_reason=failure_reason))


def replay_request(stage="plain", state_key="s", text="hello"):
    return CompletionRequest(system="sys", turns=[("user", text)],
                             metadata={"state_key": state_key, "stage": stage})


class TestRecordReplay:
    def test_round_trip_byte_identical(self):
        records = [record_for(1, "alpha"), record_for(2, "beta"),
                   record_for(3, "gamma", stage="informal", state_key="sketch", text="T")]
        replay = ReplayBackend(recording(*records))
        replayed = [replay.complete(replay_request()), replay.complete(replay_request()),
                    replay.complete(replay_request("informal", "sketch", "T"))]
        assert replayed == [Completion("alpha", NATURAL_STOP, 0.25),
                            Completion("beta", NATURAL_STOP, 0.5),
                            Completion("gamma", NATURAL_STOP, 0.75)]

    def test_replay_exhaustion_is_infrastructure(self):
        replay = ReplayBackend(recording(record_for(1, "only")))
        replay.complete(replay_request())
        with pytest.raises(InfrastructureFailure, match="replay stream exhausted"):
            replay.complete(replay_request())

    def test_a_recorded_timeout_ends_the_search_where_its_log_ended(self):
        """The search reads the timeout from `timeout_at`; the backend, asked
        past the last record, raises as it does for any recording."""
        timed = recording(record_for(1, "only"), failure_reason=REASON_TIMEOUT)
        timed.event("push", "s")
        replay = ReplayBackend(timed)
        assert replay.timeout_at == len(timed.log) == 2
        replay.complete(replay_request())
        with pytest.raises(InfrastructureFailure, match="^replay stream exhausted$"):
            replay.complete(replay_request())
        assert ReplayBackend(recording(record_for(1, "only"))).timeout_at is None

    def test_a_recorded_abort_ends_the_replay_with_its_failure(self):
        """Asked past the last record of an episode that an infrastructure
        failure aborted, the replay raises with that failure's message, so
        the replayed episode ends with the recorded note."""
        aborted = recording(record_for(1, "only"), failure_reason=REASON_INFRASTRUCTURE)
        aborted.aborted = True
        aborted.notes = ["skipped: budget", "infrastructure failure: backend died: reset"]
        replay = ReplayBackend(aborted)
        replay.complete(replay_request())
        with pytest.raises(InfrastructureFailure, match="^backend died: reset$"):
            replay.complete(replay_request())
        aborted.notes = []
        replay = ReplayBackend(aborted)
        replay.complete(replay_request())
        with pytest.raises(InfrastructureFailure, match="^replay stream exhausted$"):
            replay.complete(replay_request())

    @pytest.mark.parametrize("asked", [
        {"stage": "retrieval"}, {"state_key": "t"}, {"text": "hello again"},
    ], ids=["stage", "state-key", "prompt"])
    def test_mismatch_is_infrastructure_and_keeps_the_record(self, asked):
        replay = ReplayBackend(recording(record_for(1, "first"), record_for(2, "second")))
        assert replay.complete(replay_request()).text == "first"
        with pytest.raises(InfrastructureFailure, match="^replay mismatch at query 2$"):
            replay.complete(replay_request(**asked))
        assert replay.complete(replay_request()).text == "second"


class _MockHandler(BaseHTTPRequestHandler):
    server_version = "MockChat/1"
    behaviors = []  # mutated per test: list of ("ok"|"error"|"garbage"|"body", payload)
    posts = 0  # POSTs received in this test

    def do_POST(self):
        type(self).posts += 1
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
            response = {
                "choices": [{"message": {"content": payload["text"]}, "finish_reason": "stop"}]
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
    # a short poll, so that `shutdown` does not wait out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    _MockHandler.behaviors = []
    _MockHandler.posts = 0
    yield f"http://127.0.0.1:{server.server_port}", _MockHandler
    server.shutdown()
    server.server_close()


def http_backend(base_url, rate_limiter=None, **overrides):
    config = HttpBackendConfig(
        base_url=base_url,
        model="test-model",
        **{"backoff_seconds": 0.01, **overrides},
    )
    return HttpBackend(config, rate_limiter)


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
        handler.behaviors = [("body", {"choices": [
            {"message": {"content": "intro"}, "finish_reason": "length"}]})]
        completion = http_backend(base_url).complete(request_for())
        assert completion.stop_reason == LENGTH_CAP
        assert completion.text == "intro"

    def test_retries_transient_500_then_succeeds(self, mock_server):
        base_url, handler = mock_server
        handler.behaviors = [("error", 500), ("error", 429), ("error", 408),
                             ("ok", {"text": "ok now"})]
        completion = http_backend(base_url).complete(request_for())
        assert completion.text == "ok now"
        assert handler.posts == 4

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_client_error_raises_after_one_post(self, mock_server, monkeypatch, status):
        base_url, handler = mock_server
        handler.behaviors = [("error", status), ("ok", {"text": "not asked for"})]
        slept = []
        monkeypatch.setattr(llm.time, "sleep", slept.append)
        with pytest.raises(InfrastructureFailure, match=f"^HTTP {status} .*not retried$"):
            http_backend(base_url).complete(request_for())
        assert (handler.posts, slept) == (1, [])

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

    def test_latency_leaves_out_the_rate_limiters_wait(self, mock_server):
        base_url, _ = mock_server
        backend = http_backend(base_url, RateLimiter(2.0))  # 0.5 s between requests
        backend.complete(request_for())
        assert backend.complete(request_for()).latency_seconds < 0.25

    def test_latency_leaves_out_failed_attempts_and_backoff(self, mock_server):
        base_url, handler = mock_server
        handler.behaviors = [("error", 500), ("ok", {"text": "ok now"})]
        completion = http_backend(base_url, backoff_seconds=0.3).complete(request_for())
        assert (completion.text, handler.posts) == ("ok now", 2)
        assert completion.latency_seconds < 0.3

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
