"""Seeded input generation for the four benchmark workloads.

Every input the program sees comes from here, and only from the seed: the
same seed yields the same stream, and different seeds draw different
operating points.  Injection magnitudes are taken from a fixed per-family
grid (``v_i_at``) spanning 0.6x..1.4x the paper's ``|V_i| = 0.03 V``, so
that every lock-range edge the workloads produce has an entry in the
committed reference table (``reference.json``).
"""

from __future__ import annotations

import itertools

import numpy as np

#: The paper's injection magnitude and sub-harmonic order (Section IV).
PAPER_V_I = 0.03
ORDER = 3

#: Points of the per-family V_i grid (0.6x..1.4x PAPER_V_I, ~0.33% steps).
GRID_SIZE = 241

#: ``diffpair`` uses the extracted piecewise-linear law, whose psi-spectrum
#: does not converge, so its prediction takes the dense-grid fallback.
PREDICT_FAMILIES = ("tanh", "tunnel", "diffpair")
TONGUE_FAMILIES = ("tanh", "tunnel")
SERVE_FAMILIES = ("tanh", "tunnel")

#: Tongue-map shape: V_i rows x injection-frequency columns.
TONGUE_ROWS = 4
TONGUE_COLUMNS = 16

#: serve-mixed: one job in SERVE_TONGUE_EVERY is a tongue map, and one
#: lockrange job in SERVE_REPEAT_EVERY repeats an earlier spec (so the
#: on-disk surface cache gets hits).
SERVE_TONGUE_EVERY = 4
SERVE_REPEAT_EVERY = 4

#: paper-speedup: the SPEED quick settings of the transient lock-range scan.
SIM_SETTINGS = {"scan_rel_span": 0.01, "batch": 10, "rounds": 2}


def v_i_at(k: int) -> float:
    """Injection magnitude of grid index ``k`` (0 <= k < GRID_SIZE)."""
    if not 0 <= k < GRID_SIZE:
        raise IndexError(f"grid index {k} outside 0..{GRID_SIZE - 1}")
    return PAPER_V_I * (0.6 + 0.8 * k / (GRID_SIZE - 1))


def predict_stream(seed: int):
    """``predict-cold``: an endless stream of distinct ``(family, k)`` pairs.

    Families take turns, so every run sees the three in equal shares; each
    family walks its own seeded permutation of the grid, so no input
    repeats within any run the benchmark can make.
    """
    rng = np.random.default_rng([seed, 1])
    orders = {f: rng.permutation(GRID_SIZE) for f in PREDICT_FAMILIES}
    for i in itertools.count():
        for family in PREDICT_FAMILIES:
            yield family, int(orders[family][i % GRID_SIZE])


def tongue_stream(seed: int):
    """``tongue-sweep``: an endless stream of ``(family, row_indices)``.

    Families take turns.  Each map's ``TONGUE_ROWS`` rows are evenly
    spaced over the grid, as in a real tongue map, from a seeded offset
    that no other map of the same family in the run shares.
    """
    rng = np.random.default_rng([seed, 2])
    stride = GRID_SIZE // TONGUE_ROWS
    offsets = GRID_SIZE - stride * (TONGUE_ROWS - 1)
    orders = {f: rng.permutation(offsets) for f in TONGUE_FAMILIES}
    for i in itertools.count():
        family = TONGUE_FAMILIES[i % len(TONGUE_FAMILIES)]
        start = int(orders[family][(i // len(TONGUE_FAMILIES)) % offsets])
        yield family, tuple(start + stride * j for j in range(TONGUE_ROWS))


def serve_stream(seed: int):
    """``serve-mixed``: an endless stream of job payloads.

    Every ``SERVE_TONGUE_EVERY``-th job is a tongue map, and every
    ``SERVE_REPEAT_EVERY``-th lockrange job repeats a seeded choice among
    the earlier lockrange specs; fresh jobs take the families in turn.
    """
    rng = np.random.default_rng([seed, 3])
    orders = {f: rng.permutation(GRID_SIZE) for f in SERVE_FAMILIES}
    drawn = itertools.count()

    def fresh(kind: str) -> dict:
        i = next(drawn)
        family = SERVE_FAMILIES[i % len(SERVE_FAMILIES)]
        k = int(orders[family][(i // len(SERVE_FAMILIES)) % GRID_SIZE])
        return {"kind": kind, "family": family, "n": ORDER, "v_i": v_i_at(k)}

    history: list[dict] = []
    for i in itertools.count():
        if i % SERVE_TONGUE_EVERY == SERVE_TONGUE_EVERY - 1:
            yield fresh("tongue")
        elif len(history) % SERVE_REPEAT_EVERY == SERVE_REPEAT_EVERY - 1:
            history.append(history[int(rng.integers(len(history)))])
            yield dict(history[-1])
        else:
            history.append(fresh("lockrange"))
            yield dict(history[-1])


def paper_order(seed: int) -> tuple[str, ...]:
    """``paper-speedup``: the order in which the two paper rows run."""
    rng = np.random.default_rng([seed, 4])
    return tuple(TONGUE_FAMILIES[int(i)] for i in rng.permutation(2))
