"""Synchronous client helper for the job service (stdlib ``http.client``).

One connection per call, mirroring the server's ``Connection: close``
policy.  Every response is returned as ``(status, body_dict)`` — typed
rejections (429/503 with ``retry_after_s``) come back as data, never as
exceptions, because backpressure is an *expected* answer the caller is
supposed to act on: a polite caller sleeps ``retry_after_s`` and
resubmits.
"""

from __future__ import annotations

import http.client
import json

__all__ = ["ServeClient", "ServeUnavailableError"]


class ServeUnavailableError(RuntimeError):
    """The service could not be reached (connection refused/reset)."""


class ServeClient:
    """Minimal blocking client against one service instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        *,
        tenant: str = "anonymous",
        timeout_s: float = 120.0,
    ):
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.timeout_s = float(timeout_s)

    # -- plumbing -------------------------------------------------------------

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            body = None
            headers = {"X-Tenant": self.tenant}
            if payload is not None:
                body = json.dumps(payload)
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw.decode() or "{}")
            except json.JSONDecodeError:
                doc = {"error": "non-json-response", "raw": raw.decode("latin-1")}
            return response.status, doc
        except (ConnectionError, OSError) as exc:
            raise ServeUnavailableError(
                f"service at {self.host}:{self.port} unreachable: {exc}"
            ) from exc
        finally:
            connection.close()

    def request_text(self, method: str, path: str) -> tuple[int, str]:
        """Like :meth:`request` but returns the raw response body as text
        (for non-JSON endpoints such as the Prometheus exposition)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(method, path, headers={"X-Tenant": self.tenant})
            response = connection.getresponse()
            return response.status, response.read().decode()
        except (ConnectionError, OSError) as exc:
            raise ServeUnavailableError(
                f"service at {self.host}:{self.port} unreachable: {exc}"
            ) from exc
        finally:
            connection.close()

    # -- the API --------------------------------------------------------------

    def submit(self, job: dict, *, wait: bool = False) -> tuple[int, dict]:
        """Submit a job spec; ``wait=True`` blocks until it is terminal."""
        path = "/v1/jobs?wait=1" if wait else "/v1/jobs"
        return self.request("POST", path, job)

    def status(self, job_id: str) -> tuple[int, dict]:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> tuple[int, dict]:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel")

    def health(self) -> tuple[int, dict]:
        return self.request("GET", "/healthz")

    def ready(self) -> tuple[int, dict]:
        return self.request("GET", "/readyz")

    def metrics(self) -> tuple[int, dict]:
        return self.request("GET", "/metricz")

    def parsed_metrics(self) -> dict[str, float]:
        """Scrape ``/metricz?format=prometheus`` and parse it to a flat
        ``{sample_key: value}`` dict (e.g.
        ``repro_serve_completed_total{kind=lockrange}``).  Raises
        ``ValueError`` when the exposition fails validation — a scrape
        that does not parse is a bug, not a value."""
        from repro.obs import parse_prometheus, validate_prometheus

        status, text = self.request_text("GET", "/metricz?format=prometheus")
        if status != 200:
            raise ServeUnavailableError(f"/metricz returned {status}")
        problems = validate_prometheus(text)
        if problems:
            raise ValueError(f"invalid prometheus exposition: {problems}")
        return parse_prometheus(text)

    def job_events(
        self, job_id: str, *, since: int = 0, wait: bool = False,
        timeout_s: float = 10.0,
    ) -> tuple[int, dict]:
        """One cursor poll of the job's event ring; pass back
        ``body["next_since"]`` as ``since`` to resume."""
        path = f"/v1/jobs/{job_id}/events?since={int(since)}"
        if wait:
            path += f"&wait=1&timeout_s={float(timeout_s):g}"
        return self.request("GET", path)

    def report(self) -> tuple[int, dict]:
        return self.request("GET", "/v1/report")
