"""``train``: the tape forward/backward of the DSS (``nn`` + ``gnn.training``).

``generate_dataset(4 problems, h=0.07, Ns=110, overlap 2, rng 7)``, a fresh
``DSS(K=20, d=10, alpha=0.1)`` and ``DSSTrainer(batch 40, lr 1e-2, clip
1e-2)``; one op is ``train_epoch`` over the first 120 training samples (3
steps of 40).  ``--seed`` drives the epoch shuffles, so every seed trains on
the same 120 graphs — the same node and edge totals — in another order.  The
inference kernels idle here; ROADMAP's "one GNN forward" claims land on this
workload.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, List, Tuple

import numpy as np

from ledger_core import Ops, Spans, Witness, cold_setups, end_to_end, median, out_of_time, peak_rss_mb

from repro.core.dataset import generate_dataset
from repro.gnn.batch import GraphBatch
from repro.gnn.dss import DSS, DSSConfig
from repro.gnn.training import DSSTrainer, TrainingConfig, evaluate_model
from repro.nn.optim import clip_grad_norm

SAMPLES = 120
BATCH = 40
VALIDATION = 60
#: validation residual a few epochs must reach; measured 0.03 - 0.04 after 4 - 6 epochs
VAL_RESIDUAL_BOUND = 0.08
CONFIG = TrainingConfig(batch_size=BATCH, learning_rate=1e-2, gradient_clip=1e-2, seed=0)


def sequence(seed: int, rounds: int) -> List[Tuple]:
    """Warm-up epoch then one epoch per round; the shuffle stream comes from ``seed``."""
    return [(r, "train_epoch", SAMPLES, seed) for r in range(-1, rounds)]


def cold_setup(smoke: bool):
    """Dataset, model and trainer on fresh objects; returns them and the wall time."""
    start = time.perf_counter()
    dataset = generate_dataset(2 if smoke else 4, 0.07, subdomain_size=110, overlap=2,
                               rng=np.random.default_rng(7))
    dataset_seconds = time.perf_counter() - start
    model = DSS(DSSConfig(num_iterations=4 if smoke else 20, latent_dim=10, alpha=0.1, seed=0))
    trainer = DSSTrainer(model, CONFIG)
    return dataset, trainer, time.perf_counter() - start, dataset_seconds


def timed_epoch(trainer: DSSTrainer, samples, rng, ops: Ops) -> float:
    start = time.perf_counter()
    loss = trainer.train_epoch(samples, rng)
    seconds = time.perf_counter() - start
    ops.record(math.isfinite(loss), f"epoch loss {loss}")
    return seconds


def evaluate(trainer: DSSTrainer, dataset, smoke: bool, corrupt: bool, ops: Ops) -> Tuple[float, float]:
    """Validation residual of the trained model (an op of its own) and its wall ms."""
    start = time.perf_counter()
    residual = evaluate_model(trainer.model, dataset.validation[:VALIDATION]).residual_mean
    seconds = time.perf_counter() - start
    bound = 0.0 if corrupt else 1.0 if smoke else VAL_RESIDUAL_BOUND
    ops.record(math.isfinite(residual) and residual <= bound,
               f"validation residual {residual} above {bound}")
    return residual, seconds * 1e3


def run(workload: str, seed: int, rounds: int, seconds: float, smoke: bool, corrupt: bool,
        ops: Ops) -> Dict[str, float]:
    setups = []
    with Witness() as witness:
        for _ in range(cold_setups(smoke)):
            dataset = trainer = None
            gc.collect()                                    # the previous set-up's objects are gone
            start = time.perf_counter()
            dataset, trainer, took, _ = cold_setup(smoke)
            setups.append((start, start + took))
        samples = dataset.train[:SAMPLES]
        rng = np.random.default_rng(seed)

        timed_epoch(trainer, samples, rng, ops)             # warm-up, not timed
        phase = time.perf_counter()
        for _ in range(rounds):                             # a round is one epoch
            start = time.perf_counter()
            took = timed_epoch(trainer, samples, rng, ops)
            ops.rounds.append((len(samples), start, start + took, [took * 1e3]))
            if out_of_time(phase, seconds):
                break
        rss = peak_rss_mb()
    evaluate(trainer, dataset, smoke, corrupt, ops)
    return end_to_end(setups, ops, witness, rss)


def spanned_epoch(trainer: DSSTrainer, samples, rng, spans: Spans, ops: Ops) -> float:
    """``train_epoch`` spelled out from its public parts, one span per layer call."""
    order = np.arange(len(samples))
    rng.shuffle(order)
    edge_dim, node_dim = GraphBatch.feature_dims(samples)
    loss_value = float("nan")
    with spans.span("op"):
        for start in range(0, len(samples), BATCH):
            chunk = [samples[i] for i in order[start:start + BATCH]]
            with spans.span("gnn.batch_build"):
                batch = GraphBatch.from_graphs(chunk, edge_attr_dim=edge_dim, node_attr_dim=node_dim)
            trainer.optimizer.zero_grad()
            with spans.span("gnn.forward"):
                loss = trainer.model.training_loss(batch)
            with spans.span("nn.backward"):
                loss.backward()
            with spans.span("nn.optim"):
                clip_grad_norm(trainer.optimizer.parameters, CONFIG.gradient_clip)
                trainer.optimizer.step()
            loss_value = loss.item()
    ops.record(math.isfinite(loss_value), f"step loss {loss_value}")
    return loss_value


def run_traced(workload: str, seed: int, smoke: bool, ops: Ops, spans: Spans) -> Dict[str, float]:
    dataset, trainer, _, dataset_seconds = cold_setup(smoke)
    samples = dataset.train[:SAMPLES]
    rng = np.random.default_rng(seed)
    metrics = {"core.dataset_generate_s": dataset_seconds}

    metrics["gnn.first_epoch_s"] = timed_epoch(trainer, samples, rng, ops)
    untraced = [timed_epoch(trainer, samples, rng, ops) for _ in range(2)]
    losses = [spanned_epoch(trainer, samples, rng, spans, ops) for _ in range(2)]

    op_ms = spans.durations_ms("op")
    self_ms = spans.self_ms()
    for name, span_name in (("gnn.batch_build_ms_p50", "gnn.batch_build"), ("gnn.forward_ms_p50", "gnn.forward"),
                            ("nn.backward_ms_p50", "nn.backward"), ("nn.optim_ms_p50", "nn.optim")):
        metrics[name] = median(spans.durations_ms(span_name))
    layers = sum(self_ms[name] for name in ("gnn.batch_build", "gnn.forward", "nn.backward", "nn.optim"))
    metrics["unattributed_share"] = 1.0 - layers / sum(op_ms)
    metrics["obs.trace_overhead_ratio"] = median(op_ms) / (median(untraced) * 1e3)
    metrics["gnn.train_loss_final"] = losses[-1]
    metrics["gnn.val_residual"], metrics["gnn.eval_ms"] = evaluate(trainer, dataset, smoke, False, ops)
    return metrics
