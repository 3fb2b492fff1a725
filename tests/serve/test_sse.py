"""The Server-Sent Events form of a job's event ring (``events?sse=1``)."""

import json

import pytest

from repro.serve import ServeClient, ServeConfig, ServiceThread, TenantPolicy

_QUICK = {
    "kind": "lockrange",
    "family": "tanh",
    "n": 3,
    "v_i": 0.03,
    "n_a": 41,
    "n_phi": 81,
    "n_samples": 128,
    "deadline_s": 60.0,
}


@pytest.fixture(scope="module")
def client():
    config = ServeConfig(
        workers=1,
        queue_limit=4,
        tenants={"default": TenantPolicy(rate_per_s=100.0, burst=50, max_in_flight=8)},
    )
    with ServiceThread(config) as host:
        yield ServeClient(port=host.port, tenant="tests", timeout_s=120.0)


def _frames(text: str) -> list[dict]:
    """Parse an SSE body into ``{field: value}`` dicts, keep-alives dropped."""
    frames = []
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if not line.startswith(":")]
        if lines:
            frames.append(dict(line.split(": ", 1) for line in lines))
    return frames


def test_sse_stream_frames_closure_and_cursor(client):
    status, admitted = client.submit(dict(_QUICK))
    assert status == 202, admitted
    path = f"/v1/jobs/{admitted['job_id']}/events?sse=1"

    # Opened while the job is queued or running: the body ends only once
    # the server closes the stream, which it does after the terminal event.
    status, text = client.request_text("GET", path)
    assert status == 200
    frames = _frames(text)
    for frame in frames:
        assert set(frame) == {"event", "id", "data"}
        data = json.loads(frame["data"])
        assert frame["event"] == data["type"]
        assert int(frame["id"]) == data["seq"]
    assert frames[-1]["event"] == "terminal"
    assert json.loads(frames[-1]["data"])["status"] == "completed"

    # Each id is the ring seq the JSON cursor API reports.
    _, ring = client.job_events(admitted["job_id"])
    seqs = [event["seq"] for event in ring["events"]]
    assert [int(frame["id"]) for frame in frames] == seqs

    # since= resumes after that seq.
    status, text = client.request_text("GET", f"{path}&since={seqs[1]}")
    assert status == 200
    assert [int(frame["id"]) for frame in _frames(text)] == seqs[2:]

    status, text = client.request_text("GET", f"{path}&since=abc")
    assert status == 400
    assert json.loads(text)["error"] == "bad-cursor"
