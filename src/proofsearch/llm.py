"""Guidance-model backends.

Three families: a remote chat-completions HTTP client, a deterministic
scripted backend (the oracle's proofs, keyed by state), and a replay of an
earlier run's trace. All of them enforce the inference discipline of the
search: temperature 0 and exactly one completion per call. Tests also use
`SequenceBackend` from tests/conftest.py, which replies in a fixed order.
"""

from __future__ import annotations

import json
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .core import InfrastructureFailure
from .prompts import LENGTH_CAP, NATURAL_STOP
from .trace import INFRASTRUCTURE_NOTE, REASON_TIMEOUT, EpisodeTrace


@dataclass
class CompletionRequest:
    system: str
    turns: Sequence[tuple] = ()  # (role, content) pairs, user turn last
    metadata: dict = field(default_factory=dict)  # state_key, stage


@dataclass(frozen=True)
class Completion:
    text: str
    stop_reason: str  # NATURAL_STOP | LENGTH_CAP
    latency_seconds: float


class GuidanceBackend(ABC):
    # the length of an episode's log at which its search ends as `timeout`,
    # checked at each budget check; None but for a replay of a timed-out episode
    timeout_at: int | None = None

    @abstractmethod
    def complete(self, request: CompletionRequest) -> Completion:
        """Return exactly one completion for the request."""


class ScriptedBackend(GuidanceBackend):
    """Deterministic responses keyed by (state key, query ordinal at that
    state); unknown keys fall through to the default response."""

    def __init__(self, program: Mapping, default: str = ""):
        self.program = dict(program)
        self.default = default
        self._ordinals: dict = {}

    def complete(self, request: CompletionRequest) -> Completion:
        state_key = request.metadata.get("state_key")
        ordinal = self._ordinals.get(state_key, 0) + 1
        self._ordinals[state_key] = ordinal
        text = self.program.get((state_key, ordinal), self.default)
        return Completion(text, NATURAL_STOP, 0.0)


class RateLimiter:
    """Minimum spacing between requests, shared across episodes."""

    def __init__(self, requests_per_second: float | None):
        self._interval = 1.0 / requests_per_second if requests_per_second else 0.0
        self._lock = threading.Lock()
        self._last = 0.0

    def wait(self):
        if not self._interval:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._last + self._interval - now
            if delay > 0:
                time.sleep(delay)
                now = time.monotonic()
            self._last = now


@dataclass
class HttpBackendConfig:
    base_url: str
    model: str
    api_key_env: str = "PROOFSEARCH_API_KEY"
    timeout_seconds: float = 120.0
    max_transport_retries: int = 3
    backoff_seconds: float = 1.0


# statuses that the same request would get again: raised after one POST
_CLIENT_ERRORS = frozenset((400, 401, 403, 404, 422))


class HttpBackend(GuidanceBackend):
    """Chat-completions-style HTTP client on ``urllib``.

    POSTs {model, messages, temperature: 0, n: 1} to
    <base_url>/chat/completions. A client error (400, 401, 403, 404 or
    422) raises InfrastructureFailure after its one POST. Transport
    errors, every other non-2xx status (408, 429 and 5xx among them) and
    malformed bodies are retried with exponential backoff; retries are
    not inference calls and are invisible to the query budget.
    """

    def __init__(self, config: HttpBackendConfig, rate_limiter: RateLimiter | None = None):
        self.config = config
        self.rate_limiter = rate_limiter or RateLimiter(None)

    def complete(self, request: CompletionRequest) -> Completion:
        # deferred: these import ssl, which would cost every run ~30 ms and 7 MiB
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.config.model,
            "messages": [{"role": "system", "content": request.system}]
            + [{"role": role, "content": content} for role, content in request.turns],
            "temperature": 0.0,
            "n": 1,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        http_request = urllib.request.Request(url, json.dumps(payload).encode(), headers)
        last_error: Exception | None = None
        for attempt in range(self.config.max_transport_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_seconds * 2 ** (attempt - 1))
            self.rate_limiter.wait()
            start = time.monotonic()  # the model's time: no rate-limit wait or backoff
            try:
                # urlopen raises HTTPError (an OSError) for every non-2xx status
                with urllib.request.urlopen(
                    http_request, timeout=self.config.timeout_seconds
                ) as response:
                    body = json.load(response)
                choice = body["choices"][0]
                text = choice["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"completion content is {type(text).__name__}")
                stop = LENGTH_CAP if choice.get("finish_reason") == "length" else NATURAL_STOP
                return Completion(text, stop, time.monotonic() - start)
            except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
                last_error = exc
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # it holds the error response, still open
                    if exc.code in _CLIENT_ERRORS:
                        raise InfrastructureFailure(
                            f"HTTP {exc.code} {exc.reason}: a client error, not retried"
                        ) from None
        raise InfrastructureFailure(f"transport retries exhausted: {last_error}")


class ReplayBackend(GuidanceBackend):
    """Answers from the query records of an earlier run's trace, in order.
    A request must ask what its record asked (stage, state key and user
    turn); one that does not raises and leaves the record unused. The
    system prompt follows from the recorded search config, which `run`
    checks before replaying. A request past the last record raises
    InfrastructureFailure: with the recorded failure's message when an
    infrastructure failure aborted the recorded episode, so the replay ends
    with the recording's note, and `replay stream exhausted` otherwise.
    When the recorded episode timed out, `timeout_at` is the length of its
    log: the recorded run stopped at its first budget check after its last
    log line, so the search ends the replay there as `timeout` too."""

    def __init__(self, recording: EpisodeTrace):
        self.records = recording.records
        self._exhausted = "replay stream exhausted"
        if recording.outcome.failure_reason == REASON_TIMEOUT:
            self.timeout_at = len(recording.log)
        elif recording.aborted:
            note = recording.notes[-1] if recording.notes else ""
            if note.startswith(INFRASTRUCTURE_NOTE):
                self._exhausted = note[len(INFRASTRUCTURE_NOTE):]
        self._cursor = 0

    def complete(self, request: CompletionRequest) -> Completion:
        if self._cursor >= len(self.records):
            raise InfrastructureFailure(self._exhausted)
        record = self.records[self._cursor]
        asked = (request.metadata.get("stage"), request.metadata.get("state_key"),
                 request.turns[-1][1])
        if (record.stage, record.state_key, record.prompt_text) != asked:
            raise InfrastructureFailure(f"replay mismatch at query {record.ordinal}")
        self._cursor += 1
        return Completion(record.response, record.stop_reason, record.latency_seconds)
