"""Calibration: the loss-to-probability map, its fit, and its failure modes."""

import math
import re

import numpy as np
import pytest

from genret import (
    AnchorKind,
    CalibrationTable,
    FitConfig,
    Method,
    RankingInstance,
    ScoredInstance,
    apply_calibration,
    calibrated_prob,
    fit,
    mean_rank,
    read_table,
    write_table,
)
from genret.calibration import bce_and_grads
from genret.errors import ConfigurationError, CoverageError, OptimizationError, ParameterError


def make_scored(candidates, positives, scores, negatives=None, image_id="img0"):
    inst = RankingInstance(
        image_id=image_id,
        anchor_kind=AnchorKind.OBJECT,
        anchor="probe",
        candidates=tuple(candidates),
        positives=frozenset(positives),
        negatives_explicit=None if negatives is None else frozenset(negatives),
    )
    return ScoredInstance(
        instance=inst,
        template_name="{A}",
        method=Method.GENERATIVE,
        scores=tuple(float(s) for s in scores),
    )


# -- the probability map -----------------------------------------------------


def test_loss_at_mu_is_exactly_half():
    assert calibrated_prob(3.25, 3.25, 0.7) == 0.5
    assert calibrated_prob(-15.0, -15.0, 123.0) == 0.5


def test_calibrated_prob_closed_form():
    # z = -(0 - 6) / 1 = 6
    assert calibrated_prob(0.0, 6.0, 1.0) == pytest.approx(
        1.0 / (1.0 + math.exp(-6.0)), abs=1e-15
    )
    assert calibrated_prob(6.0, 0.0, 2.0) == pytest.approx(
        1.0 / (1.0 + math.exp(3.0)), abs=1e-15
    )


def test_calibrated_prob_monotone_and_stable():
    losses = np.array([-1e6, -10.0, 0.0, 10.0, 1e6])
    p = calibrated_prob(losses, 0.0, 1.0)
    assert p.shape == losses.shape
    assert np.all(np.isfinite(p))
    assert np.all(np.diff(p) < 0)  # lower loss, higher probability
    assert p[0] == pytest.approx(1.0)
    assert p[-1] == pytest.approx(0.0, abs=1e-12)


def test_calibrated_prob_elementwise_matches_scalar():
    mu = np.array([0.0, 1.0, 2.0])
    sigma = np.array([0.5, 1.0, 2.0])
    losses = np.array([0.3, 0.3, 5.0])
    vec = calibrated_prob(losses, mu, sigma)
    for i in range(3):
        assert vec[i] == calibrated_prob(losses[i], mu[i], sigma[i])


def test_calibrated_prob_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        calibrated_prob(1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        calibrated_prob(1.0, 0.0, np.array([1.0, -2.0]))
    for sigma in (math.nan, math.inf, np.array([1.0, math.nan])):
        with pytest.raises(ParameterError, match="^sigma must be a finite number > 0"):
            calibrated_prob(1.0, 0.0, sigma)


# -- the table ----------------------------------------------------------------


def test_table_validation():
    with pytest.raises(ParameterError, match="align"):
        CalibrationTable(("a", "b"), np.zeros(2), np.ones(3))
    with pytest.raises(ParameterError, match="a finite number > 0"):
        CalibrationTable(("a",), np.zeros(1), np.zeros(1))


@pytest.mark.parametrize(
    "mu,sigma,message",
    [
        ([0.0, math.nan], [1.0, 1.0], "CalibrationTable mu of 'b' must be a finite number, got nan"),
        ([0.0, -math.inf], [1.0, 1.0], "CalibrationTable mu of 'b' must be a finite number"),
        ([0.0, 0.0], [math.nan, 1.0], "CalibrationTable sigma of 'a' must be a finite number > 0"),
        ([0.0, 0.0], [1.0, math.inf], "CalibrationTable sigma of 'b' must be a finite number > 0"),
        ([0.0, 0.0], [1.0, -1.0], "CalibrationTable sigma of 'b' must be a finite number > 0"),
    ],
)
def test_table_rejects_a_value_outside_its_domain_naming_the_class(mu, sigma, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        CalibrationTable(("a", "b"), mu=mu, sigma=sigma)


def test_table_lookup():
    table = CalibrationTable(("cat", "dog"), np.array([1.0, 2.0]), np.array([0.5, 3.0]))
    assert "cat" in table
    assert "zebra" not in table
    assert table.params_for("dog") == (2.0, 3.0)
    with pytest.raises(CoverageError, match="zebra") as exc:
        table.params_for("zebra")
    assert exc.value.missing == ["zebra"]


def test_table_dict_round_trip():
    table = CalibrationTable(("dog", "cat"), np.array([2.0, 1.0]), np.array([3.0, 0.5]))
    rebuilt = CalibrationTable.from_dict(table.to_dict())
    assert rebuilt.classes == ("cat", "dog")  # from_dict sorts
    assert rebuilt.params_for("cat") == (1.0, 0.5)
    assert rebuilt.params_for("dog") == (2.0, 3.0)


def test_table_file_round_trip(tmp_path):
    table = CalibrationTable(
        ("cat", "dog"), np.array([-15.0, 2.5]), np.array([0.5, 1.25])
    )
    path = tmp_path / "calibration.json"
    write_table(path, table)
    again = read_table(path)
    assert again.classes == table.classes
    assert np.array_equal(again.mu, table.mu)
    assert np.array_equal(again.sigma, table.sigma)
    # rewriting what was read changes nothing
    write_table(tmp_path / "b.json", again)
    assert (tmp_path / "b.json").read_bytes() == path.read_bytes()


# -- loss and gradients ---------------------------------------------------------


def test_bce_at_the_midpoint():
    mu = np.array([2.0])
    log_sigma = np.array([0.0])
    idx = np.array([0])
    # z = 0 regardless of label, so the loss is log 2 and the mu gradient
    # carries the label sign
    loss_pos, g_mu_pos, g_ls_pos = bce_and_grads(
        mu, log_sigma, idx, np.array([2.0]), np.array([1.0])
    )
    loss_neg, g_mu_neg, g_ls_neg = bce_and_grads(
        mu, log_sigma, idx, np.array([2.0]), np.array([0.0])
    )
    assert loss_pos == pytest.approx(math.log(2.0), abs=1e-15)
    assert loss_neg == pytest.approx(math.log(2.0), abs=1e-15)
    assert g_mu_pos[0] == pytest.approx(-0.5)
    assert g_mu_neg[0] == pytest.approx(0.5)
    assert g_ls_pos[0] == 0.0
    assert g_ls_neg[0] == 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    n_classes, n = 3, 24
    mu = rng.normal(1.0, 2.0, size=n_classes)
    log_sigma = rng.normal(0.0, 0.4, size=n_classes)
    cls_idx = rng.integers(0, n_classes, size=n)
    losses = rng.normal(1.0, 2.5, size=n)
    labels = rng.integers(0, 2, size=n).astype(float)

    _, grad_mu, grad_ls = bce_and_grads(mu, log_sigma, cls_idx, losses, labels)
    eps = 1e-4
    for vec, grad in ((mu, grad_mu), (log_sigma, grad_ls)):
        for j in range(n_classes):
            bumped = vec.copy()
            bumped[j] = vec[j] + eps
            hi = bce_and_grads(
                bumped if vec is mu else mu,
                bumped if vec is log_sigma else log_sigma,
                cls_idx, losses, labels,
            )[0]
            bumped[j] = vec[j] - eps
            lo = bce_and_grads(
                bumped if vec is mu else mu,
                bumped if vec is log_sigma else log_sigma,
                cls_idx, losses, labels,
            )[0]
            assert grad[j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


# -- fitting ---------------------------------------------------------------------


def separable_batch():
    """Eight classes on eight shifted loss scales.

    Raw losses rank late classes poorly; per class, the positive sits 1.0
    below mu* = j and negatives 1.3 above, so a fitted table separates
    them completely.
    """
    words = tuple(f"c{j}" for j in range(8))
    batch = []
    for i in range(8):
        scores = [j - 1.0 if j == i else j + 1.3 for j in range(8)]
        batch.append(make_scored(words, {i}, scores, image_id=f"img{i}"))
    return batch


def desk_config(**overrides):
    base = dict(
        learning_rate=0.5,
        weight_decay=0.0,
        batch_size=None,
        max_steps=500,
        seed=0,
        init_mu=0.0,
        init_sigma=1.0,
    )
    base.update(overrides)
    return FitConfig(**base)


def test_fit_is_deterministic():
    batch = separable_batch()
    config = desk_config(batch_size=4, max_steps=60)
    t1, h1 = fit(batch, config)
    t2, h2 = fit(batch, config)
    assert t1.classes == t2.classes
    assert np.array_equal(t1.mu, t2.mu)
    assert np.array_equal(t1.sigma, t2.sigma)
    assert h1.train_loss == h2.train_loss


def test_fit_zero_steps_returns_init():
    table, history = fit(separable_batch(), desk_config(max_steps=0))
    assert history.steps == []
    assert np.all(table.mu == 0.0)
    assert np.all(table.sigma == 1.0)


def test_fit_descends_on_full_batch():
    _, history = fit(separable_batch(), desk_config(max_steps=200))
    curve = history.train_loss
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    assert curve[-1] < 0.6 * curve[0]


def test_fit_separates_and_improves_ranking():
    batch = separable_batch()
    raw = mean_rank(batch)
    table, _ = fit(batch, desk_config())
    probs = apply_calibration(table, batch)
    for s, p in zip(batch, probs):
        pos = next(iter(s.instance.positives))
        for j, q in enumerate(p):
            if j != pos:
                assert p[pos] > q
    rescored = [
        make_scored(
            s.instance.candidates,
            s.instance.positives,
            [-v for v in p],
            image_id=s.instance.image_id,
        )
        for s, p in zip(batch, probs)
    ]
    calibrated = mean_rank(rescored)
    assert calibrated == 1.0
    assert (raw - calibrated) / raw >= 0.30


def test_fit_covers_unlabeled_classes_at_init():
    s = make_scored(("a", "b", "c"), {0}, (1.0, 2.0, 3.0), negatives={1})
    table, _ = fit([s], desk_config(max_steps=40))
    assert "c" in table
    mu_c, sigma_c = table.params_for("c")
    assert mu_c == 0.0  # untouched without weight decay
    assert sigma_c == 1.0
    mu_a, _ = table.params_for("a")
    assert mu_a != 0.0


def test_fit_weight_decay_shrinks_even_untouched_classes():
    s = make_scored(("a", "b", "c"), {0}, (1.0, 2.0, 3.0), negatives={1})
    table, _ = fit([s], desk_config(max_steps=40, weight_decay=0.1, init_mu=4.0))
    mu_c, _ = table.params_for("c")
    assert 0.0 < mu_c < 4.0


def test_fit_rejects_empty_input():
    with pytest.raises(ConfigurationError, match="no candidates"):
        fit([], desk_config())


def test_fit_validation_must_be_covered():
    batch = separable_batch()
    stranger = make_scored(("c0", "zebra"), {0}, (0.0, 1.0))
    with pytest.raises(CoverageError, match="zebra"):
        fit(batch, desk_config(max_steps=5), validation=[stranger])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way down
def test_fit_divergence_raises():
    with pytest.raises(OptimizationError) as exc:
        fit(
            separable_batch(),
            desk_config(learning_rate=1e6, weight_decay=0.01, max_steps=400),
        )
    assert exc.value.step >= 0
    assert "step" in str(exc.value)


def test_fit_whose_sigma_overflows_raises():
    # one step takes log sigma from log(1e-4) to about 4991, finite, where
    # exp overflows: sigma is infinite and every probability would be 1/2
    s = make_scored(("a", "b"), {0}, (1.0, 0.0))
    with pytest.raises(OptimizationError, match="sigma") as exc:
        fit([s], desk_config(learning_rate=1.0, max_steps=3, init_sigma=1e-4))
    assert exc.value.step == 0


def test_fit_history_and_csv(tmp_path):
    batch = separable_batch()
    _, history = fit(batch, desk_config(max_steps=30), validation=batch)
    assert history.steps == list(range(30))
    assert all(v is not None for v in history.val_loss)
    path = tmp_path / "loss_curve.csv"
    history.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,train_loss,val_loss"
    assert len(lines) == 31
    step, train, val = lines[1].split(",")
    assert int(step) == 0
    assert float(train) == history.train_loss[0]  # repr round-trips exactly
    assert float(val) == history.val_loss[0]


def test_history_csv_blank_val_column(tmp_path):
    _, history = fit(separable_batch(), desk_config(max_steps=3))
    path = tmp_path / "curve.csv"
    history.to_csv(path)
    assert path.read_text().splitlines()[1].endswith(",")


def test_apply_calibration_matches_pointwise():
    batch = separable_batch()
    table, _ = fit(batch, desk_config(max_steps=50))
    probs = apply_calibration(table, batch)
    assert len(probs) == len(batch)
    for s, p in zip(batch, probs):
        for j, word in enumerate(s.instance.candidates):
            mu, sigma = table.params_for(word)
            assert p[j] == calibrated_prob(s.scores[j], mu, sigma)


def test_apply_calibration_reports_every_missing_class():
    table = CalibrationTable(("c0",), np.array([0.0]), np.array([1.0]))
    scored = [make_scored(("c0", "left", "right"), {0}, (0.0, 1.0, 2.0))]
    with pytest.raises(CoverageError) as exc:
        apply_calibration(table, scored)
    assert exc.value.missing == ["left", "right"]


def test_fit_config_records_reference_defaults():
    config = FitConfig()
    assert config.learning_rate == 1e-5
    assert config.weight_decay == 0.01
    assert config.batch_size == 4
    assert config.init_mu == -15.0
    assert config.init_sigma == 0.5


# -- the fit loop against the reshuffling loop it replaced ----------------------


def _reshuffling_fit(scored, config, validation=None):
    """The fit loop as it was: a seeded permutation drawn whenever the
    current one has no full batch left (so every step when the batch is the
    whole set), each batch sorted and gathered, and gradients summed with
    np.add.at.  Returns (mu, sigma, train losses, val losses)."""

    def collect(batch, index):
        rows = [
            (index[s.instance.candidates[i]], s.scores[i], label)
            for s in batch
            for i, label in s.instance.labels().items()
        ]
        cls, loss, lab = zip(*rows)
        return np.array(cls, dtype=int), np.array(loss, dtype=float), np.array(lab, dtype=float)

    def bce(mu, log_sigma, cls_idx, losses, labels):
        sigma = np.exp(log_sigma[cls_idx])
        z = -(losses - mu[cls_idx]) / sigma
        per = np.logaddexp(0.0, z) - labels * z
        p = np.empty_like(z)  # the package's two-sided sigmoid, as numpy evaluates it
        pos = z >= 0
        p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        p[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        dz = p - labels
        n = len(losses)
        grad_mu = np.zeros_like(mu)
        grad_ls = np.zeros_like(log_sigma)
        np.add.at(grad_mu, cls_idx, dz / sigma / n)
        np.add.at(grad_ls, cls_idx, -z * dz / n)
        return float(per.mean()), grad_mu, grad_ls

    words = sorted({w for s in scored for w in s.instance.candidates})
    index = {w: i for i, w in enumerate(words)}
    cls_idx, losses, labels = collect(scored, index)
    val = collect(validation, index) if validation is not None else None
    mu = np.full(len(words), config.init_mu)
    log_sigma = np.full(len(words), math.log(config.init_sigma))
    rng = np.random.default_rng(config.seed)
    n = len(losses)
    batch = n if config.batch_size is None else min(config.batch_size, n)
    order = np.array([], dtype=int)
    cursor = 0
    train_curve, val_curve = [], []
    for step in range(config.max_steps):
        if cursor + batch > len(order):
            order = rng.permutation(n)
            cursor = 0
        take = np.sort(order[cursor : cursor + batch])
        cursor += batch
        loss, grad_mu, grad_ls = bce(mu, log_sigma, cls_idx[take], losses[take], labels[take])
        lr = config.learning_rate * (1.0 - step / config.max_steps)
        decay = 1.0 - lr * config.weight_decay
        mu = mu * decay - lr * grad_mu
        log_sigma = log_sigma * decay - lr * grad_ls
        train_curve.append(loss)
        val_curve.append(None if val is None else bce(mu, log_sigma, *val)[0])
    return mu, np.exp(log_sigma), train_curve, val_curve


def _shifted_batch():
    # the separable batch's classes with other losses and explicit
    # negatives, so validation rows differ from training rows
    words = tuple(f"c{j}" for j in range(8))
    return [
        make_scored(
            words, {i}, [0.7 * ((i + 3 * j) % 8) - 1.1 for j in range(8)],
            negatives={(i + 1) % 8, (i + 5) % 8}, image_id=f"val{i}",
        )
        for i in range(8)
    ]


@pytest.mark.parametrize("batch_size", [None, 64, 1000, 4])
@pytest.mark.parametrize("with_validation", [False, True])
def test_fit_equals_the_reshuffling_loop_exactly(batch_size, with_validation):
    # 64 labeled examples: None, 64 and 1000 are full batches, which now use
    # the arrays as they are; 4 keeps its seeded draws
    batch = separable_batch()
    validation = _shifted_batch() if with_validation else None
    config = desk_config(
        learning_rate=0.4, weight_decay=0.05, batch_size=batch_size, max_steps=90, seed=11
    )
    table, history = fit(batch, config, validation=validation)
    mu, sigma, train_curve, val_curve = _reshuffling_fit(batch, config, validation)
    assert sum(len(s.instance.labels()) for s in batch) == 64
    assert list(table.mu) == list(mu)
    assert list(table.sigma) == list(sigma)
    assert history.train_loss == train_curve
    assert history.val_loss == val_curve
    assert (None in history.val_loss) != with_validation


# -- FitConfig's domains ----------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_steps", -3),
        ("max_steps", 2.5),
        ("max_steps", True),
        ("learning_rate", -0.3),
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("weight_decay", -5.0),
        ("weight_decay", math.nan),
        ("init_sigma", 0.0),
        ("init_sigma", -1.0),
        ("init_sigma", math.inf),
        ("init_mu", math.nan),
        ("init_mu", -math.inf),
        ("batch_size", 0),
        ("batch_size", -4),
        ("batch_size", 2.0),
        ("seed", -1),
    ],
)
def test_fit_config_rejects_a_value_outside_its_domain(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        desk_config(**{field: value})


def test_fit_config_accepts_the_edges_of_its_domains():
    config = desk_config(
        learning_rate=0.0, weight_decay=0.0, max_steps=0, batch_size=1,
        init_mu=-1e300, init_sigma=1e-300, seed=np.int64(2),
    )
    assert config.max_steps == 0
    assert desk_config(batch_size=None).batch_size is None
    assert desk_config(max_steps=np.int32(3)).max_steps == 3
