"""Guidance-model backends.

Three families: a remote chat-completions HTTP client, deterministic
scripted backends for tests, and a replay of an earlier run's trace. All
of them enforce the inference discipline of the search: temperature 0 and
exactly one completion per call.
"""

from __future__ import annotations

import json
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .prompts import LENGTH_CAP, NATURAL_STOP


class InfrastructureFailure(Exception):
    """Transport-level failure after exhausting retries; aborts the episode
    and is never counted as a proof failure."""


@dataclass
class CompletionRequest:
    system: str
    turns: Sequence[tuple] = ()  # (role, content) pairs, user turn last
    temperature: float = 0.0
    max_tokens: int | None = None
    metadata: dict = field(default_factory=dict)  # state_key, stage

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class Completion:
    text: str
    stop_reason: str  # NATURAL_STOP | LENGTH_CAP
    latency_seconds: float


class GuidanceBackend(ABC):
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


class SequenceBackend(GuidanceBackend):
    """Replies with a fixed response sequence, then with the default."""

    def __init__(self, responses: Sequence[str], default: str = ""):
        self.responses = list(responses)
        self.default = default
        self._cursor = 0

    def complete(self, request: CompletionRequest) -> Completion:
        if self._cursor < len(self.responses):
            text = self.responses[self._cursor]
            self._cursor += 1
        else:
            text = self.default
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


class HttpBackend(GuidanceBackend):
    """Chat-completions-style HTTP client on ``urllib``.

    POSTs {model, messages, temperature, max_tokens, n: 1} to
    <base_url>/chat/completions. Transport errors, non-2xx statuses and
    malformed bodies are all retried with exponential backoff; retries are
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
            "temperature": request.temperature,
            "n": 1,
        }
        if request.max_tokens is not None:
            payload["max_tokens"] = request.max_tokens
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        http_request = urllib.request.Request(url, json.dumps(payload).encode(), headers)
        start = time.monotonic()
        last_error: Exception | None = None
        for attempt in range(self.config.max_transport_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_seconds * 2 ** (attempt - 1))
            self.rate_limiter.wait()
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
        raise InfrastructureFailure(f"transport retries exhausted: {last_error}")


class ReplayBackend(GuidanceBackend):
    """Answers from an earlier run's query records, in order. A request must
    ask what its record asked (stage, state key and user turn); one that
    does not raises and leaves the record unused."""

    def __init__(self, records: Sequence):
        self.records = list(records)
        self._cursor = 0

    def complete(self, request: CompletionRequest) -> Completion:
        if self._cursor >= len(self.records):
            raise InfrastructureFailure("replay stream exhausted")
        record = self.records[self._cursor]
        asked = (request.metadata.get("stage"), request.metadata.get("state_key"),
                 request.turns[-1][1])
        if (record.stage, record.state_key, record.prompt_text) != asked:
            raise InfrastructureFailure(f"replay mismatch at query {record.ordinal}")
        self._cursor += 1
        return Completion(record.response, record.stop_reason, record.latency_seconds)
