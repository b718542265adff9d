"""``train_grid``: the paper's Fig 3 (right) trainable query, one step an op.

``apps.mnistgrid.build_batched_app(batch_size=8)`` over 64 generated grids.
One operation is one training step exactly as ``mnistgrid.train_batched``
spells it: register the batch tensor, run the trainable query, MSE against
the true counts, ``backward()``, Adam ``step()``.

Check: every step's loss is finite, and the query learns. The first
``REPEAT`` steps of each fresh model train on one batch, so their losses are
a series without sampling noise, and the last of them must be below ``FALL``
of the first; later steps draw random batches. A step costs the same either
way, and the check reads the same numbers whatever the machine's speed: over
50 seeds the ratio was 0.35 to 0.73.

Two forms that fail sound runs were tried first. The issue's "last 20 steps
below the first 20": on random batches the 20-step means differ by 0.016
from sampling alone, against a fall of 0.01 to 0.03 in 60 steps. The loss
over the whole data set before and after a model's third of the window: it
falls by 2 to 7% in 60 steps and not in every stretch of them (1.005 after 6
steps and 0.976 after 40 were seen), so a run on a slow host, which makes
fewer steps, was refused.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Dict, List, Optional

import numpy as np

from harness import OpLog, Tracer, closed_loop, median, run_segments

GRIDS = 64
BATCH = 8
LEARNING_RATE = 3e-3
REPEAT = 24                  # first steps of a fresh model, all on one batch
FALL = 0.9                   # loss of the last of them over the first


class _State:
    def __init__(self, app, optimizer):
        self.app = app
        self.optimizer = optimizer
        self.repeat_losses: List[float] = []    # of the first REPEAT steps


def _build(dataset) -> _State:
    from repro.apps import mnistgrid
    from repro.core.session import Session
    from repro.tcr import manual_seed, optim
    manual_seed(1234)               # same initial weights every set-up
    app = mnistgrid.build_batched_app(Session(), batch_size=BATCH)
    state = _State(app, optim.Adam(app.query.parameters(), lr=LEARNING_RATE))
    _step(state, dataset, np.arange(BATCH), None)       # first-call set-up
    return state


def _step(state: _State, dataset, picks: np.ndarray, tracer: Optional[Tracer]):
    """One training step; returns ``(seconds, loss)``."""
    from repro.apps.mnistgrid import GRID_TABLE
    from repro.tcr.tensor import Tensor
    app, optimizer = state.app, state.optimizer
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    batch = Tensor(dataset.grids[picks][:, 0])
    target = Tensor(dataset.counts[picks].reshape(-1))
    start = time.perf_counter()
    with span("tcr.optim"):
        optimizer.zero_grad()
    with span("storage"):
        app.session.sql.register_tensor(batch, GRID_TABLE)
    with span("tcr.forward"):
        loss = ((app.query.run() - target) ** 2).mean()
    with span("tcr.backward"):
        loss.backward()
    with span("tcr.optim"):
        optimizer.step()
    return time.perf_counter() - start, float(loss.data)


def run(options) -> dict:
    from repro.datasets.mnist_grid import make_grids
    grids = max(int(GRIDS * options.scale), BATCH)
    dataset = make_grids(grids, np.random.default_rng([options.seed, 8]))
    rng = np.random.default_rng([options.seed, 9])
    repeated = np.arange(BATCH)     # the first grids of a seeded data set
    active: List[Optional[Tracer]] = [None]     # set while the traced loop runs
    log = OpLog()

    def operation_on(state: _State):
        def operation(index: int):
            repeat = len(state.repeat_losses) < REPEAT
            picks = repeated if repeat else rng.integers(0, grids, size=BATCH)
            if active[0] is None:
                seconds, loss = _step(state, dataset, picks, None)
            else:
                with active[0].span("op", op=index) as record:
                    _, loss = _step(state, dataset, picks, active[0])
                seconds = record["end"] - record["start"]
            if repeat:
                state.repeat_losses.append(loss)
            return seconds, None if math.isfinite(loss) else f"loss {loss}"
        return operation

    def learned(state: _State) -> float:
        """Fail the run unless the repeated batch's loss fell; returns
        last/first."""
        first, last = state.repeat_losses[0], state.repeat_losses[REPEAT - 1]
        ratio = last / first
        if options.wrong_reference:
            first = 0.0             # a reference no training run can beat
        if not last < FALL * first:
            log.fail(f"loss on the repeated batch did not fall: {first:.4f} -> {last:.4f}")
        return ratio

    if not options.trace:
        def measure(state: _State, seconds: float) -> None:
            closed_loop(operation_on(state), seconds, log, min_ops=REPEAT)
            learned(state)

        setup_s, rss_mb = run_segments(lambda: _build(dataset), lambda _state: None,
                                       measure, options.seconds)
        metrics = log.end_to_end(setup_s, rss_mb)
    else:
        state = _build(dataset)
        operation = operation_on(state)
        plain = OpLog()
        closed_loop(operation, options.seconds * 0.4, plain, min_ops=REPEAT)
        active[0] = Tracer()
        closed_loop(operation, options.seconds * 0.5, log)
        metrics = _per_layer(active[0], log, plain)
        metrics["train.loss_drop_ratio"] = learned(state)
        log.absorb(plain)
    return {"attempted": log.attempted, "failed": log.failed,
            "notes": log.notes, "metrics": metrics}


def _per_layer(tracer: Tracer, log: OpLog, plain: OpLog) -> Dict[str, float]:
    steps = log.attempted
    own = tracer.self_times()
    metrics = {
        "tcr.forward_ms": own["tcr.forward"] * 1e3 / steps,
        "tcr.backward_ms": own["tcr.backward"] * 1e3 / steps,
        "tcr.optim_ms": own["tcr.optim"] * 1e3 / steps,
        "storage.register_tensor_us": own["storage"] * 1e6 / steps,
        "trace.overhead_ratio": median(log.latencies) / median(plain.latencies),
        "trace.coverage_ratio": tracer.coverage(),
        "op.p90_ms": plain.p90_ms(),
    }
    tracer.write("train_grid", {"steps": steps,
                                "step_p50_ms": median(log.latencies) * 1e3})
    return metrics
