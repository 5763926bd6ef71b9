"""Per-class probability calibration of retrieval losses.

A candidate's loss L becomes a probability through

    p = sigmoid(-(L - mu_c) / sigma_c)

with one (mu, sigma) pair per candidate class c.  Low loss means high
probability; L = mu_c lands exactly on 0.5.  The pairs are fit by plain
gradient descent on binary cross-entropy over (mu, log sigma), with the
learning rate decayed linearly to zero and decoupled weight decay.  This
table is the entire trainable surface of the package; there is no backbone
behind it, so fitting it is cheap and exactly reproducible.  A full batch
(no batch size, or one at least the number of labeled examples) is every
example in file order at every step, with no random draws; smaller batches
come from a seeded shuffle.

Defaults record the reference schedule: lr 1e-5, weight decay 0.01, batch
size 4, init mu -15.0 and sigma 0.5.  Desk-scale fits want a larger lr and
fewer steps; the config is explicit so both uses stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    ScoredInstance, atomic_write, check_parameter, is_finite_number, read_json, write_json
)
from .errors import CoverageError, OptimizationError, ParameterError, SchemaError


def _sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def calibrated_prob(loss, mu, sigma):
    """sigmoid(-(loss - mu) / sigma); scalar or elementwise on arrays."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ParameterError("sigma must be positive")
    z = -(np.asarray(loss, dtype=float) - np.asarray(mu, dtype=float)) / sigma
    p = _sigmoid(z)
    return float(p) if np.ndim(p) == 0 else p


@dataclass(frozen=True)
class CalibrationTable:
    classes: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if len(self.classes) != len(mu) or len(mu) != len(sigma):
            raise ParameterError("classes, mu and sigma must align")
        if np.any(sigma <= 0):
            raise ParameterError("sigma must be positive")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.classes)})

    def __contains__(self, word: str) -> bool:
        return word in self._index  # type: ignore[attr-defined]

    def params_for(self, word: str) -> tuple[float, float]:
        idx = self._index.get(word)  # type: ignore[attr-defined]
        if idx is None:
            raise CoverageError([word])
        return float(self.mu[idx]), float(self.sigma[idx])

    def to_dict(self) -> dict:
        return {
            w: {"mu": float(self.mu[i]), "sigma": float(self.sigma[i])}
            for i, w in enumerate(self.classes)
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationTable":
        classes = tuple(sorted(d))
        return cls(
            classes=classes,
            mu=np.array([d[w]["mu"] for w in classes], dtype=float),
            sigma=np.array([d[w]["sigma"] for w in classes], dtype=float),
        )


def write_table(path: str | Path, table: CalibrationTable) -> None:
    write_json(path, table.to_dict())


def _table_from_raw(raw) -> CalibrationTable:
    if not isinstance(raw, dict) or not all(
        isinstance(p, dict)
        and is_finite_number(p.get("mu"))
        and is_finite_number(p.get("sigma"))
        and p["sigma"] > 0
        for p in raw.values()
    ):
        raise SchemaError("a calibration table maps each class to numeric mu and positive sigma")
    return CalibrationTable.from_dict(raw)


def read_table(path: str | Path) -> CalibrationTable:
    return read_json(path, _table_from_raw)


@dataclass(frozen=True)
class FitConfig:
    """Settings of one fit; a field outside its domain is a ParameterError
    naming the field."""

    learning_rate: float = 1e-5
    weight_decay: float = 0.01
    batch_size: int | None = 4  # None runs full-batch steps
    max_steps: int = 1000
    seed: int = 0
    init_mu: float = -15.0
    init_sigma: float = 0.5

    def __post_init__(self):
        check_parameter("learning_rate", self.learning_rate, "a finite number >= 0")
        check_parameter("weight_decay", self.weight_decay, "a finite number >= 0")
        if self.batch_size is not None:
            check_parameter("batch_size", self.batch_size, "an int >= 1")
        check_parameter("max_steps", self.max_steps, "an int >= 0")
        check_parameter("seed", self.seed, "an int >= 0")
        check_parameter("init_mu", self.init_mu, "a finite number")
        check_parameter("init_sigma", self.init_sigma, "a finite number > 0")


@dataclass
class FitHistory:
    steps: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float | None] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            fh.write("step,train_loss,val_loss\n")
            for s, tr, vl in zip(self.steps, self.train_loss, self.val_loss):
                fh.write(f"{s},{tr!r},{'' if vl is None else repr(vl)}\n")


def _bce(mu, log_sigma, cls_idx, losses, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean BCE softplus(z) - y z, z = -(L - mu) / sigma, with its sigma and z."""
    sigma = np.exp(log_sigma[cls_idx])
    z = -(losses - mu[cls_idx]) / sigma
    return float((np.logaddexp(0.0, z) - labels * z).mean()), sigma, z


def bce_and_grads(
    mu: np.ndarray,
    log_sigma: np.ndarray,
    cls_idx: np.ndarray,
    losses: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean binary cross-entropy (_bce) and its gradients w.r.t. (mu, log sigma),
    dloss/dmu = (p - y) / sigma and dloss/dlog_sigma = -z (p - y).  Weight decay
    is an optimizer behavior, not part of this loss."""
    loss, sigma, z = _bce(mu, log_sigma, cls_idx, losses, labels)
    dz = _sigmoid(z) - labels
    n = len(losses)
    # bincount adds each class's terms in index order, as np.add.at would
    grad_mu = np.bincount(cls_idx, dz / sigma / n, minlength=len(mu))
    grad_ls = np.bincount(cls_idx, -z * dz / n, minlength=len(log_sigma))
    return loss, grad_mu, grad_ls


def _collect(scored: Sequence[ScoredInstance], classes: dict[str, int]):
    cls_idx, losses, labels = [], [], []
    for s in scored:
        for i, label in s.instance.labels().items():
            cls_idx.append(classes[s.instance.candidates[i]])
            losses.append(s.scores[i])
            labels.append(label)
    return (
        np.asarray(cls_idx, dtype=int),
        np.asarray(losses, dtype=float),
        np.asarray(labels, dtype=float),
    )


def _batches(arrays: tuple[np.ndarray, ...], batch_size: int | None, seed: int):
    """Endless training batches over aligned example arrays.

    A batch as large as the set is the arrays themselves, in file order,
    with no draws.  A smaller one takes the next slice of a seeded
    permutation, drawn again when the current one has no full slice left,
    and sorted so the summation order is fixed.
    """
    n = len(arrays[0])
    if batch_size is None or batch_size >= n:
        yield from repeat(arrays)
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            take = np.sort(order[start : start + batch_size])
            yield tuple(a[take] for a in arrays)


@np.errstate(all="ignore")  # a diverging fit is an OptimizationError, not warnings
def fit(
    scored: Sequence[ScoredInstance],
    config: FitConfig = FitConfig(),
    validation: Sequence[ScoredInstance] | None = None,
) -> tuple[CalibrationTable, FitHistory]:
    """Fit the table on labeled candidates of `scored`.

    The table covers every candidate class encountered, including classes
    whose candidates were all unlabeled; those keep their init values.
    A full batch is every labeled example in file order, with no draws;
    smaller batches come from a seeded shuffle, so the fit is deterministic.
    Divergence (non-finite loss or parameters) raises OptimizationError
    naming the step.
    """
    words = sorted({w for s in scored for w in s.instance.candidates})
    if not words:
        raise ValueError("no candidates to calibrate")
    index = {w: i for i, w in enumerate(words)}
    cls_idx, losses, labels = _collect(scored, index)
    if len(losses) == 0:
        raise ValueError("no labeled examples to fit on")
    val_arrays = None
    if validation is not None:
        missing = {w for s in validation for w in s.instance.candidates} - set(words)
        if missing:
            raise CoverageError(missing)
        val_arrays = _collect(validation, index)

    mu = np.full(len(words), config.init_mu, dtype=float)
    log_sigma = np.full(len(words), math.log(config.init_sigma), dtype=float)
    history = FitHistory()
    batches = _batches((cls_idx, losses, labels), config.batch_size, config.seed)
    for step, batch in zip(range(config.max_steps), batches):
        loss, grad_mu, grad_ls = bce_and_grads(mu, log_sigma, *batch)
        if not math.isfinite(loss):
            raise OptimizationError(step, f"training loss became {loss}")
        lr = config.learning_rate * (1.0 - step / config.max_steps)
        decay = 1.0 - lr * config.weight_decay
        mu = mu * decay - lr * grad_mu
        log_sigma = log_sigma * decay - lr * grad_ls
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(log_sigma))):
            raise OptimizationError(step, "parameters became non-finite")
        vl = None
        if val_arrays is not None:
            vl = _bce(mu, log_sigma, *val_arrays)[0]
        history.steps.append(step)
        history.train_loss.append(loss)
        history.val_loss.append(vl)
    table = CalibrationTable(
        classes=tuple(words), mu=mu, sigma=np.exp(log_sigma)
    )
    return table, history


def apply_calibration(
    table: CalibrationTable, scored: Sequence[ScoredInstance]
) -> list[np.ndarray]:
    """Calibrated probability per candidate, aligned with `scored`.

    Raises CoverageError listing every class the table is missing.
    """
    missing = {
        w for s in scored for w in s.instance.candidates if w not in table
    }
    if missing:
        raise CoverageError(missing)
    out = []
    for s in scored:
        params = [table.params_for(w) for w in s.instance.candidates]
        mu = np.array([m for m, _ in params])
        sigma = np.array([sg for _, sg in params])
        out.append(calibrated_prob(np.asarray(s.scores), mu, sigma))
    return out
