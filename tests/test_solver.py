import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierdro import ambiguity as amb
from hierdro import model, solver
from hierdro.datagen import GroupedDataset, make_spurious
from hierdro.errors import DivergenceError, InvalidDatasetError, ParameterError
from hierdro.model import LINEAR, MLP1, ModelParams, ModelSpec, init_params
from hierdro.solver import (
    ERM,
    GROUP_DRO,
    HIERARCHICAL,
    Batch,
    GroupSampler,
    Lockstep,
    SolverConfig,
    train,
    train_lockstep,
    train_step,
    update_beta,
)


def small_ds(seed=0, counts=(40, 12, 10, 38)):
    return make_spurious(counts, 0.5, 0.5, 0.2, seed=seed)


def base_config(**overrides):
    defaults = dict(
        mode=HIERARCHICAL, eta_beta=0.1, eta_theta=0.1, epsilon=1.0,
        adjustment=1.0, iterations=200, batch_size=4, seed=3, checkpoint_every=50,
    )
    defaults.update(overrides)
    return SolverConfig(**defaults)


def shared_batch(ds, g, rows, num_rows=1):
    """The batch that ``num_rows`` rows share: group ``g``, dataset rows ``rows``."""
    return Batch(group=np.full(num_rows, g), x=ds.features[rows][None], y=ds.labels[rows][None])


# ------------------------------------------------------------- update_beta


def test_update_beta_identity_when_loss_and_adjustment_zero():
    beta = np.array([0.3, 0.2, 0.5])
    out = update_beta(beta, 1, 0.0, 0.5, 0.0, 10)
    np.testing.assert_allclose(out, beta, atol=1e-15)


def test_update_beta_hand_computed():
    out = update_beta(np.array([0.5, 0.5]), 1, 1.0, math.log(2.0), 0.0, 4)
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_update_beta_adjustment_term():
    # C / sqrt(n_g) adds to the loss before exponentiation.
    out = update_beta(np.array([0.5, 0.5]), 1, 0.0, math.log(2.0), 2.0, 4)
    np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_update_beta_rejects_non_finite_loss():
    with pytest.raises(DivergenceError):
        update_beta(np.array([0.5, 0.5]), 0, float("nan"), 0.1, 0.0, 5)
    with pytest.raises(DivergenceError):
        update_beta(np.array([0.5, 0.5]), 0, float("inf"), 0.1, 0.0, 5)


def test_update_beta_stable_for_huge_losses():
    out = update_beta(np.array([0.9, 0.1]), 1, 5e4, 1.0, 0.0, 5)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)


@settings(deadline=None, max_examples=150)
@given(
    raw=st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
    g=st.integers(0, 5),
    loss=st.floats(0.0, 50.0),
    eta=st.floats(1e-3, 2.0),
    c=st.floats(0.0, 3.0),
    n_g=st.integers(1, 1000),
)
def test_update_beta_stays_on_simplex(raw, g, loss, eta, c, n_g):
    beta = np.asarray(raw) / np.sum(raw)
    out = update_beta(beta, g % len(raw), loss, eta, c, n_g)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out >= 0)


def test_update_beta_share_increases_iff_adjusted_loss_positive():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        beta = rng.dirichlet(np.ones(m))
        g = int(rng.integers(m))
        loss = float(rng.uniform(0.0, 3.0))
        c = float(rng.choice([0.0, 1.0]))
        n_g = int(rng.integers(1, 50))
        out = update_beta(beta, g, loss, 0.5, c, n_g)
        adjusted = loss + c / math.sqrt(n_g)
        if adjusted > 0:
            assert out[g] > beta[g]
        else:
            assert abs(out[g] - beta[g]) <= 1e-15


def reference_update_beta(beta, g, loss_value, eta_beta, adjustment, n_g):
    """The row-stacked exponentiated-gradient step written out with
    ``ndarray`` methods, as it was before the reductions were spelled as ufuncs."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(np.asarray(beta, dtype=np.float64))
    log_beta[np.arange(beta.shape[0]), g] += eta_beta * (loss_value + adjustment / np.sqrt(n_g))
    log_beta -= log_beta.max(axis=-1, keepdims=True)
    out = np.exp(log_beta)
    return out / out.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("seed", range(6))
def test_update_beta_rows_are_bitwise_the_reference_and_leave_beta_alone(seed):
    rng = np.random.default_rng(seed)
    rows, m = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    beta = rng.dirichlet(np.ones(m), size=rows)
    if seed == 0:
        beta[0, 1] = 0.0    # an entry that has underflowed: log gives -inf
    g = rng.integers(0, m, size=rows)
    args = (g, rng.uniform(0.0, 5.0, size=rows), rng.uniform(0.01, 2.0, size=rows),
            rng.uniform(0.0, 2.0, size=rows), rng.integers(1, 4000, size=rows))
    before = beta.copy()
    out = update_beta(beta, *args)
    assert beta.tobytes() == before.tobytes()
    assert out is not beta
    assert out.tobytes() == reference_update_beta(before, *args).tobytes()
    if seed == 0 and g[0] != 1:
        assert out[0, 1] == 0.0


# -------------------------------------------------------------- train_step


def composed_step(theta, beta, config, t, x, y, g, n_g):
    """One row's step from the public functions, applied in the documented
    order: ``latent``, ``inner_maximize``, ``loss_and_param_grads``,
    ``update_beta`` (not for ERM) and ``sgd_step`` with the updated
    ``beta_g``, at step sizes scaled by ``1 / sqrt(t + 1)`` under
    ``decay_steps``."""
    scale = 1.0 / math.sqrt(t + 1) if config.decay_steps else 1.0
    z = model.latent(theta, x)
    z_prime = amb.inner_maximize(theta, z, y, amb.radius(config.effective_epsilon, int(n_g[g])))
    losses, grads = model.loss_and_param_grads(theta, z_prime, z, x, y)
    if config.mode != ERM:
        beta = update_beta(beta, g, float(losses.mean()), config.eta_beta * scale,
                           config.adjustment, int(n_g[g]))
    return model.sgd_step(theta, grads, config.eta_theta * scale * float(beta[g])), beta


def test_single_step_matches_hand_composition():
    """Every row of every step is bitwise the public functions composed on
    that row alone (:func:`composed_step`), in a mixed block of ERM, group
    DRO and two hierarchical rows, with ``adjustment > 0`` and
    ``decay_steps``: for ``linear`` and ``mlp1``, 2 and 3 classes, a batch
    that every row shares and a batch per row, and with a row that diverges
    at the first step, so that the survivors' next steps are the first
    after a retirement.  A constant that the step reads pre-computed (a
    label position, a group's penalty) and that drifts from the public
    formula fails here."""
    for architecture, num_labels, per_row, diverging in itertools.product(
            (LINEAR, MLP1), (2, 3), (False, True), (False, True)):
        ds = grouped_ds(num_labels, 0)
        spec = ModelSpec(architecture, hidden_width=4)
        shape = dict(batch_size=3, adjustment=0.7, decay_steps=True, eta_beta=0.3)
        configs = [base_config(mode=ERM, **shape), base_config(mode=GROUP_DRO, **shape),
                   base_config(epsilon=1.0, **shape), base_config(epsilon=2.5, **shape)]
        inits = [init_params(spec, ds.d, num_labels, seed=20 + i) for i in range(4)]
        if diverging:
            bad = dataclasses.replace(inits[0], w_out=np.full_like(inits[0].w_out, np.inf))
            configs.insert(1, base_config(mode=ERM, **shape))
            inits.insert(1, bad)
        state = Lockstep.start(inits, configs, ds)
        rng = np.random.default_rng(num_labels)
        for _ in range(4):
            draws = [(g, rng.choice(ds.group_rows(g), size=3))
                     for g in rng.integers(0, ds.num_groups, size=len(state.ids) if per_row else 1)]
            batch = Batch(group=np.array([g for g, _ in draws] * (1 if per_row else len(state.ids))),
                          x=np.stack([ds.features[rows] for _, rows in draws]),
                          y=np.stack([ds.labels[rows] for _, rows in draws]))
            before = [(k, model.row_params(state.theta, i), state.beta[i].copy())
                      for i, k in enumerate(state.ids.tolist())]
            t = state.t
            with np.errstate(all="ignore"):
                train_step(state, batch)
            setting = (architecture, num_labels, per_row, diverging, t)
            assert state.failed.keys() == ({1} if diverging else set()), setting
            for i, (k, theta, beta) in enumerate(before):
                if k not in state.ids:
                    continue
                at = state.ids.tolist().index(k)
                j = i if per_row else 0
                want_theta, want_beta = composed_step(theta, beta, configs[k], t, batch.x[j],
                                                      batch.y[j], int(batch.group[i]), ds.n_g)
                assert model.params_equal(model.row_params(state.theta, at), want_theta), setting
                assert state.beta[at].tobytes() == want_beta.tobytes(), setting
            assert state.t == t + 1


def test_erm_step_is_plain_sgd_on_batch_loss():
    ds = small_ds()
    config = base_config(mode=ERM)
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=2)
    state = Lockstep.start([theta0], [config], ds)
    g = 0
    rows = ds.group_rows(g)[:4]
    x, y = ds.features[rows], ds.labels[rows]
    state = train_step(state, shared_batch(ds, g, rows))

    np.testing.assert_array_equal(state.beta[0], ds.alpha)  # frozen
    z = model.latent(theta0, x)
    grads = model.loss_and_param_grads(theta0, z, z, x, y)[1]
    expected = model.sgd_step(theta0, grads, config.eta_theta * float(ds.alpha[g]))
    assert model.params_equal(model.row_params(state.theta, 0), expected)


def test_divergence_error_carries_snapshot():
    ds = small_ds()
    config = base_config(mode=GROUP_DRO, batch_size=2)
    theta = ModelParams(w_out=np.full((2, ds.d), 1e308), b_out=np.zeros(2))
    state = Lockstep.start([theta], [config], ds)
    rows = ds.group_rows(0)[:2]
    with np.errstate(all="ignore"):
        state = train_step(state, shared_batch(ds, 0, rows))
    assert isinstance(state.failed[0], DivergenceError)
    assert "iteration" in state.failed[0].snapshot
    assert state.ids.size == 0 and state.beta.shape == (0, ds.num_groups)


@pytest.mark.parametrize("sampling", solver.SAMPLING)
@pytest.mark.parametrize("batch_size", [1, 3, 64])
@pytest.mark.parametrize("counts", [(40, 12, 10, 38), (6, 1, 5, 4)], ids=["groups", "one-row-group"])
def test_advance_yields_each_step_and_stops_once_every_row_has_retired(sampling, batch_size, counts):
    """Each live row's batch is its seed's next :meth:`GroupSampler.draw`,
    under both sampling modes, at batch sizes whose odd ones hold a 32-bit
    half over from step to step, and on a dataset with a one-row group,
    whose rows numpy draws without taking bits.  A diverging row retires at
    the first step; another retires in the middle of the first block of
    steps, and the last row draws on from its own stream, alone, into the
    next block.  With every row diverging, the loop ends after that first
    step with both errors in ``state.failed``."""
    ds = small_ds(counts=counts)
    sampler = GroupSampler(ds, base_config(batch_size=batch_size, sampling=sampling))
    middle = sampler.block_steps // 2
    shape = dict(iterations=sampler.block_steps + 5, batch_size=batch_size, sampling=sampling)
    configs = [base_config(mode=ERM, seed=1, **shape), base_config(seed=2, **shape),
               base_config(mode=GROUP_DRO, seed=3, **shape)]
    good = init_params(ModelSpec(LINEAR), ds.d, 2, seed=0)
    bad = dataclasses.replace(good, w_out=np.full_like(good.w_out, np.inf))
    oracle = {seed: np.random.default_rng(seed) for seed in (1, 2, 3)}
    state = Lockstep.start([bad, good, good], configs, ds)
    seeds, sizes, groups = state.seeds.tolist(), [], set()
    with np.errstate(all="ignore"):
        for batch in solver.advance(state):
            draws = {seed: sampler.draw(oracle[seed]) for seed in dict.fromkeys(seeds)}
            for i, seed in enumerate(seeds):
                g, rows = draws[seed]
                at = i if len(batch.x) > 1 else 0
                assert batch.group[i] == g, (state.t, seed)
                np.testing.assert_array_equal(batch.x[at], ds.features[rows])
                np.testing.assert_array_equal(batch.y[at], ds.labels[rows])
                groups.add(g)
            sizes.append(len(batch.group))
            if state.t == middle:
                state.retire(np.array([1]))     # seed 2's row leaves; seed 3's goes on alone
            seeds = state.seeds.tolist()
    assert state.t == shape["iterations"] and sizes == [3] + [2] * (middle - 1) + [1] * (
        shape["iterations"] - middle)
    assert list(state.failed) == [0] and state.seeds.tolist() == [3]
    assert groups == set(range(ds.num_groups))

    state = Lockstep.start([bad, bad], configs[:2], ds)
    with np.errstate(all="ignore"):
        batches = list(solver.advance(state))
    assert len(batches) == 1 and state.t == 1 and state.ids.size == 0
    assert sorted(state.failed) == [0, 1]
    assert all(isinstance(err, DivergenceError) for err in state.failed.values())


@pytest.mark.parametrize("sampling", solver.SAMPLING)
@pytest.mark.parametrize("seed", [0, 1])
def test_block_draws_replay_a_rejected_half_as_the_generator_draws_again(monkeypatch, sampling, seed):
    """Groups of 1_000_003 and 5 rows: numpy's bounded draw below 1_000_003
    rejects a 32-bit half with probability 2**32 % 1_000_003 / 2**32, about
    2.2e-4, and draws another.  Blocks of any length, across the halves they
    hold over, give bitwise what ``Generator.integers`` and
    ``Generator.choice`` give through :meth:`GroupSampler.draw`, and at
    least one step was replayed for a rejection."""
    sizes = (1_000_003, 5)
    ends = np.cumsum(sizes)
    ds = types.SimpleNamespace(num_groups=2, alpha=np.array(sizes) / ends[-1],
                               group_rows=lambda g: np.arange(ends[g] - sizes[g], ends[g]))
    sampler = GroupSampler(ds, base_config(batch_size=16, sampling=sampling))
    replays = []
    replay = GroupSampler._replay
    monkeypatch.setattr(GroupSampler, "_replay",
                        lambda self, stream: replays.append(1) or replay(self, stream))
    stream, rng = solver.WordStream(seed), np.random.default_rng(seed)
    for n in [1, 5, sampler.block_steps + 3, 17] * 20:
        groups, rows = sampler.draws(stream, n)
        assert groups.shape == (n,) and rows.shape == (n, 16)
        for g, at in zip(groups.tolist(), rows):
            want_g, want_rows = sampler.draw(rng)
            assert g == want_g
            np.testing.assert_array_equal(at, want_rows)
    assert replays


def test_lockstep_start_refuses_an_empty_training_group():
    ds = small_ds().subset(np.flatnonzero(small_ds().group_of != 1))
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=0)
    with pytest.raises(InvalidDatasetError, match=r"\[1\]"):
        Lockstep.start([theta0], [base_config()], ds)


def test_lockstep_start_checks_what_a_step_no_longer_checks():
    """A model whose input dimension, hidden width or class count does not
    fit the training split is refused at the start, as the model's public
    functions refuse it, since a step calls their unchecked kernels; a
    batch of another size than ``batch_size`` is refused by the step."""
    ds = small_ds()
    wide = init_params(ModelSpec(LINEAR), ds.d + 1, 2, seed=0)
    with pytest.raises(ParameterError, match="input dim"):
        Lockstep.start([wide], [base_config()], ds)
    mlp = init_params(ModelSpec(MLP1, hidden_width=4), ds.d, 2, seed=0)
    for bad, match in [(dataclasses.replace(mlp, w_out=np.zeros((2, 5))), "latent dim"),
                       (init_params(ModelSpec(LINEAR), ds.d, 1, seed=0), "1 classes")]:
        with pytest.raises(ParameterError, match=match):
            Lockstep.start([bad], [base_config()], ds)
    state = Lockstep.start([init_params(ModelSpec(LINEAR), ds.d, 2, seed=0)],
                           [base_config(batch_size=4)], ds)
    with pytest.raises(ParameterError, match="batch_size=4"):
        train_step(state, shared_batch(ds, 0, ds.group_rows(0)[:3]))
    assert state.t == 0


# ------------------------------------------------------------------- train


def test_train_zero_iterations_returns_initial_state():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=4)
    result = train(ds, ds, theta0, base_config(iterations=0))
    assert model.params_equal(result.final.theta, theta0)
    assert model.params_equal(result.best, theta0)
    assert result.final.iteration == 0


def test_train_lockstep_without_steps_returns_each_rows_initial_checkpoint():
    ds = small_ds()
    inits = [init_params(ModelSpec(LINEAR), ds.d, 2, seed=k) for k in (4, 5)]
    configs = [base_config(iterations=0), base_config(mode=ERM, iterations=0, seed=9)]
    for result, init in zip(train_lockstep(ds, ds, inits, configs), inits):
        assert [cp.iteration for cp in result.history] == [0]
        assert model.params_equal(result.final.theta, init)
        np.testing.assert_array_equal(result.final.beta, ds.alpha)
        assert result.best_iteration == 0


def test_train_rejects_empty_groups():
    ds = small_ds().subset(np.flatnonzero(small_ds().group_of != 2))
    with pytest.raises(InvalidDatasetError, match="2"):
        train(ds, ds, init_params(ModelSpec(LINEAR), ds.d, 2, seed=0), base_config())


def test_train_deterministic_given_seed():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=5)
    a = train(ds, ds, theta0, base_config(iterations=120))
    b = train(ds, ds, theta0, base_config(iterations=120))
    assert model.params_equal(a.final.theta, b.final.theta)
    assert [cp.worst_val_acc for cp in a.history] == [cp.worst_val_acc for cp in b.history]
    c = train(ds, ds, theta0, base_config(iterations=120, seed=99))
    assert not model.params_equal(a.final.theta, c.final.theta)


def test_group_dro_equals_hierarchical_with_zero_radius_bitwise():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=6)
    hier = train(ds, ds, theta0, base_config(epsilon=0.0, iterations=300))
    dro = train(ds, ds, theta0, base_config(mode=GROUP_DRO, epsilon=1.0, iterations=300))
    assert model.params_equal(hier.final.theta, dro.final.theta)
    np.testing.assert_array_equal(hier.final.beta, dro.final.beta)
    for cp_a, cp_b in zip(hier.history, dro.history):
        np.testing.assert_array_equal(cp_a.beta, cp_b.beta)
        assert model.params_equal(cp_a.theta, cp_b.theta)


def test_erm_equals_frozen_beta_hierarchical_bitwise():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=7)
    erm = train(ds, ds, theta0, base_config(mode=ERM, iterations=200))
    # An independent plain-SGD loop over the identical batch stream.
    config = base_config(mode=ERM, iterations=200)
    rng = np.random.default_rng(config.seed)
    sampler = GroupSampler(ds, config)
    theta = theta0
    for _ in range(config.iterations):
        g, rows = sampler.draw(rng)
        x, y = ds.features[rows], ds.labels[rows]
        z = model.latent(theta, x)
        grads = model.loss_and_param_grads(theta, z, z, x, y)[1]
        theta = model.sgd_step(theta, grads, config.eta_theta * float(ds.alpha[g]))
    assert model.params_equal(erm.final.theta, theta)
    np.testing.assert_array_equal(erm.final.beta, ds.alpha)


def test_hidden_layer_trains_in_every_mode():
    ds = small_ds()
    theta0 = init_params(ModelSpec(MLP1, hidden_width=6), ds.d, 2, seed=14)
    for mode in (ERM, GROUP_DRO, HIERARCHICAL):
        result = train(ds, ds, theta0, base_config(mode=mode, iterations=100))
        assert not np.array_equal(result.final.theta.w_hidden, theta0.w_hidden), mode
        assert not np.array_equal(result.final.theta.b_hidden, theta0.b_hidden), mode


def test_beta_simplex_all_modes():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=8)
    for mode in (ERM, GROUP_DRO, HIERARCHICAL):
        result = train(ds, ds, theta0, base_config(mode=mode, iterations=150, checkpoint_every=1))
        for cp in result.history:
            assert abs(cp.beta.sum() - 1.0) <= 1e-12
            assert np.all(cp.beta >= 0)


def test_model_selection_picks_best_worst_group_checkpoint():
    ds = small_ds(seed=1)
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=9)
    result = train(ds, ds, theta0, base_config(iterations=400, checkpoint_every=40))
    best = max(result.history, key=lambda cp: cp.worst_val_acc)
    assert result.best_worst_val_acc == best.worst_val_acc
    earliest = min(cp.iteration for cp in result.history
                   if cp.worst_val_acc == best.worst_val_acc)
    assert result.best_iteration == earliest


def test_history_records_requested_fields(tmp_path):
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=10)
    result = train(ds, ds, theta0, base_config(iterations=100, checkpoint_every=25))
    assert [cp.iteration for cp in result.history] == [25, 50, 75, 100]
    cp = result.history[-1]
    assert cp.group_losses.shape == (4,) and np.all(np.isfinite(cp.group_losses))
    path = tmp_path / "history.csv"
    solver.write_history_csv(result.history, ds.num_groups, path, header_comment="h=1")
    lines = path.read_text().splitlines()
    assert lines[0] == "# h=1"
    assert lines[1].startswith("iteration,loss_g0")
    assert len(lines) == 2 + len(result.history)


def test_checkpoint_computes_its_training_losses_when_first_read(monkeypatch):
    ds, ds_val = small_ds(), small_ds(seed=1)
    calls = []
    group_mean_losses = solver.group_mean_losses
    monkeypatch.setattr(solver, "group_mean_losses",
                        lambda theta, data: calls.append(data) or group_mean_losses(theta, data))
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=10)
    result = train(ds, ds_val, theta0, base_config(iterations=100, checkpoint_every=25))
    assert calls == []
    cp = result.history[1]
    losses = cp.group_losses
    assert len(calls) == 1 and calls[0] is ds
    assert losses.tobytes() == group_mean_losses(cp.theta, ds).tobytes()
    assert cp.group_losses is losses and len(calls) == 1
    assert "train=" not in repr(cp) and repr(ds) not in repr(cp)


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(mode="bogus", eta_beta=0.1, eta_theta=0.1)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.0, eta_theta=0.1)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.1, eta_theta=0.1, epsilon=-1.0)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.1, eta_theta=0.1, batch_size=0)
    for name in ("epsilon", "eta_beta", "eta_theta", "adjustment"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=name):
                SolverConfig(**{"mode": ERM, "eta_beta": 0.1, "eta_theta": 0.1, name: value})
    assert SolverConfig(mode=GROUP_DRO, eta_beta=0.1, eta_theta=0.1,
                        epsilon=5.0).effective_epsilon == 0.0


# ---------------------------------------------------------------- lockstep


def grouped_ds(num_labels, seed, counts=(9, 4, 6, 3, 5, 7)):
    """Random features with ``num_labels`` labels x 2 attributes, every group nonempty."""
    from hierdro.datagen import GroupedDataset
    rng = np.random.default_rng(seed)
    groups = np.repeat(np.arange(2 * num_labels), counts[:2 * num_labels])
    return GroupedDataset(rng.normal(size=(groups.size, 3)), groups // 2, groups % 2, num_labels, 2)


def assert_same_result(a, b):
    assert a.best_iteration == b.best_iteration
    assert a.best_worst_val_acc == b.best_worst_val_acc
    assert len(a.history) == len(b.history)
    for cp_a, cp_b in zip(a.history, b.history):
        assert cp_a.iteration == cp_b.iteration
        np.testing.assert_array_equal(cp_a.group_losses, cp_b.group_losses)
        np.testing.assert_array_equal(cp_a.beta, cp_b.beta)
        assert cp_a.worst_val_acc == cp_b.worst_val_acc
        assert cp_a.avg_val_acc == cp_b.avg_val_acc
        assert model.params_equal(cp_a.theta, cp_b.theta)
    assert model.params_equal(a.final.theta, b.final.theta)
    np.testing.assert_array_equal(a.final.beta, b.final.beta)
    assert a.final.iteration == b.final.iteration


row_settings = st.fixed_dictionaries({
    "mode": st.sampled_from(solver.MODES),
    "seed": st.integers(0, 2),
    "epsilon": st.sampled_from([0.0, 0.5, 2.0]),
    "init_seed": st.integers(0, 3),
})


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(row_settings, min_size=1, max_size=6),
    architecture=st.sampled_from([LINEAR, MLP1]),
    num_labels=st.sampled_from([2, 3]),
    decay_steps=st.booleans(),
    sampling=st.sampled_from(solver.SAMPLING),
    eta_beta=st.sampled_from([0.05, 0.5]),
    eta_theta=st.sampled_from([0.1, 0.4]),
    adjustment=st.sampled_from([0.0, 1.0]),
)
def test_lockstep_rows_equal_solo_runs_bitwise(rows, architecture, num_labels, decay_steps,
                                               sampling, eta_beta, eta_theta, adjustment):
    ds, ds_val = grouped_ds(num_labels, 0), grouped_ds(num_labels, 1)
    spec = ModelSpec(architecture, hidden_width=4)
    configs, inits = [], []
    for row in rows:
        settings_ = dict(row)
        inits.append(init_params(spec, ds.d, num_labels, seed=settings_.pop("init_seed")))
        configs.append(SolverConfig(iterations=25, batch_size=3, checkpoint_every=10,
                                    decay_steps=decay_steps, sampling=sampling,
                                    eta_beta=eta_beta, eta_theta=eta_theta,
                                    adjustment=adjustment, **settings_))
    together = train_lockstep(ds, ds_val, inits, configs)
    assert len(together) == len(rows)
    for result, init, config in zip(together, inits, configs):
        assert_same_result(result, train(ds, ds_val, init, config))


def test_lockstep_retires_a_diverged_row_and_keeps_the_others():
    """The diverging row, diverging through its initial model, goes first,
    in the middle or last.  The survivors differ in mode, radius and
    initial model, so a setting that retirement leaves unaligned changes
    some survivor's result.  The seed layouts: a stream per row; one
    stream for every row, which retirement keeps; two survivors sharing a
    stream beside rows with their own; and every survivor on one stream
    that the diverging row does not share, so that retirement turns a
    batch with a row per row into one shared batch.  Survivors with one
    seed among them share one initial model too."""
    ds = small_ds()
    shape = dict(iterations=60, checkpoint_every=20)
    survivors = [
        (dict(mode=ERM), 3),
        (dict(epsilon=2.0), 4),
        (dict(mode=GROUP_DRO), 5),
        (dict(epsilon=0.5), 6),
    ]
    diverging = (dict(mode=ERM), 7)
    # The survivors' seeds, then the diverging row's.
    layouts = [((1, 2, 3, 4), 5), ((3, 3, 3, 3), 3), ((1, 1, 3, 4), 5), ((3, 3, 3, 3), 5)]
    for architecture, (seeds, bad_seed) in itertools.product((MLP1, LINEAR), layouts):
        spec = ModelSpec(architecture, hidden_width=4)
        one_init = len(set(seeds)) == 1

        def row(overrides, init_seed, seed):
            init = init_params(spec, ds.d, 2, seed=3 if one_init else init_seed)
            return base_config(**overrides, seed=seed, **shape), init

        kept = [row(*s, seed) for s, seed in zip(survivors, seeds)]
        bad_config, bad_init = row(*diverging, bad_seed)
        # Infinite output weights make every logit of the first step nan.
        bad_init = dataclasses.replace(bad_init, w_out=np.full_like(bad_init.w_out, np.inf))
        solo = [train(ds, ds, init, config) for config, init in kept]
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as solo_error:
            train(ds, ds, bad_init, bad_config)
        for at in (0, 2, len(kept)):
            rows = kept[:at] + [(bad_config, bad_init)] + kept[at:]
            with np.errstate(all="ignore"):
                together = train_lockstep(ds, ds, [init for _, init in rows],
                                          [config for config, _ in rows])
            assert isinstance(together[at], DivergenceError)
            assert str(together[at]) == str(solo_error.value)
            assert together[at].snapshot.keys() == solo_error.value.snapshot.keys()
            for result, expected in zip(together[:at] + together[at + 1:], solo):
                assert_same_result(result, expected)


def plane_ds():
    """``small_ds`` on its first two features: 2-D latents for a linear model."""
    full = small_ds()
    return GroupedDataset(full.features[:, :2], full.labels, full.attributes, 2, 2)


@pytest.mark.parametrize("architecture", [LINEAR, MLP1])
def test_lockstep_retires_a_row_whose_ascent_norm_overflows(architecture):
    """A hierarchical row whose output rows are ``(0, 0)`` and ``(1e155, 1e155)``:
    ``v`` is finite, but ``v . v`` overflows, so its ascent fails loudly at the
    first step, naming the ascent.  Without the check its latents stayed put
    and the row trained on as group DRO.  The other rows keep their solo
    results bitwise."""
    ds = plane_ds()
    spec = ModelSpec(architecture, hidden_width=2)
    shape = dict(iterations=40, checkpoint_every=20)
    kept = [(base_config(mode=ERM, seed=1, **shape), init_params(spec, 2, 2, seed=3)),
            (base_config(epsilon=2.0, seed=2, **shape), init_params(spec, 2, 2, seed=4)),
            (base_config(mode=GROUP_DRO, seed=3, **shape), init_params(spec, 2, 2, seed=5))]
    bad_init = init_params(spec, 2, 2, seed=6)
    bad_init = dataclasses.replace(bad_init, w_out=np.array([[0.0, 0.0], [1e155, 1e155]]))
    bad = (base_config(epsilon=0.5, seed=4, **shape), bad_init)
    solo = [train(ds, ds, init, config) for config, init in kept]
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as solo_error:
        train(ds, ds, bad_init, bad[0])
    assert "latent ascent" in str(solo_error.value)
    assert solo_error.value.snapshot["iteration"] == 1
    assert solo_error.value.snapshot["v_norm"] == math.inf
    rows = kept[:1] + [bad] + kept[1:]
    with np.errstate(all="ignore"):
        together = train_lockstep(ds, ds, [init for _, init in rows], [c for c, _ in rows])
    assert str(together[1]) == str(solo_error.value)
    assert together[1].snapshot == solo_error.value.snapshot
    for result, expected in zip(together[:1] + together[2:], solo):
        assert_same_result(result, expected)


def huge_plane_ds(scale):
    """``plane_ds`` with every feature moved to ``+-scale`` times a factor in
    ``[0.8, 1]``, the sign following the label, so that for each class's
    weights every example's ``dlogits . z`` has one sign."""
    ds = plane_ds()
    factor = np.random.default_rng(0).uniform(0.8, 1.0, size=ds.features.shape)
    sign = np.where(ds.labels == 0, 1.0, -1.0)[:, None]
    return GroupedDataset(sign * scale * factor, ds.labels, ds.attributes, 2, 2)


@pytest.mark.parametrize("seeds", [(3,) * 6, (1, 2, 3, 4, 5, 6)])
def test_lockstep_retires_a_row_whose_gradient_alone_overflows(seeds):
    """Features near 1.5e308: a zero head keeps every loss at log 2, but
    ``dlogits^T z'`` sums four terms of one sign near -6e307 and overflows,
    so the row retires on its gradient.  Beside it a head of 0.4 that
    mislabels every example overflows its logit differences (loss inf), a
    hierarchical head with ``v . v`` past the largest float fails its
    ascent, and three heads that label every example by a margin near 720
    stay finite: ``exp(-720)`` is subnormal.  Each failing row's message and
    snapshot are its solo run's, and the survivors are bitwise theirs; with
    one stream for every row and with a stream per row."""
    ds = huge_plane_ds(1.5e308)
    shape = dict(iterations=12, checkpoint_every=5)
    a = 180.0 / 1.35e308     # logits near +-360
    heads = {"fit": [[a, a], [-a, -a]], "zero": [[0.0, 0.0], [0.0, 0.0]],
             "wrong": [[-0.4, -0.4], [0.4, 0.4]], "wide": [[0.0, 0.0], [1e155, 1e155]]}
    rows = [(dict(mode=ERM), "fit"), (dict(mode=GROUP_DRO), "zero"),
            (dict(epsilon=2.0), "fit"), (dict(mode=ERM), "wrong"),
            (dict(epsilon=0.5), "wide"), (dict(mode=GROUP_DRO), "fit")]
    configs = [base_config(**mode, seed=seed, **shape) for (mode, _), seed in zip(rows, seeds)]
    inits = [ModelParams(w_out=np.array(heads[head]), b_out=np.zeros(2)) for _, head in rows]
    solo = []
    for init, config in zip(inits, configs):
        with np.errstate(all="ignore"):
            try:
                solo.append(train(ds, ds, init, config))
            except DivergenceError as exc:
                solo.append(exc)
    with np.errstate(all="ignore"):
        together = train_lockstep(ds, ds, inits, configs)
    failed = {i: str(r) for i, r in enumerate(solo) if isinstance(r, DivergenceError)}
    assert failed == {1: "non-finite parameter gradient", 3: "non-finite batch loss",
                      4: "non-finite ||w_1 - w_0|| in the latent ascent"}
    assert solo[1].snapshot.keys() == {"iteration", "group", "theta_norm"}
    assert solo[3].snapshot["loss"] == math.inf
    for result, expected in zip(together, solo):
        if isinstance(expected, DivergenceError):
            assert isinstance(result, DivergenceError)
            assert str(result) == str(expected)
            assert result.snapshot == expected.snapshot
        else:
            assert_same_result(result, expected)
            assert result.final.iteration == 12


@pytest.mark.parametrize("architecture", [LINEAR, MLP1])
def test_a_gradient_whose_squares_overflow_trains_on_as_its_public_functions_compose(
        monkeypatch, architecture):
    """``plane_ds`` scaled by 1e200 and a step size of 1e-200: every loss and
    gradient entry stays finite, but at most steps their squares overflow,
    so the step's one sum of squares is not finite.  Each row is then
    tested on its own, at those steps only; none retires, and every row
    stays bitwise :func:`composed_step` on it alone."""
    full = plane_ds()
    ds = GroupedDataset(full.features * 1e200, full.labels, full.attributes, 2, 2)
    spec = ModelSpec(architecture, hidden_width=3)
    configs = [base_config(mode=mode, eta_theta=1e-200) for mode in solver.MODES]
    inits = [init_params(spec, 2, 2, seed=k) for k in range(3)]
    exact = []
    rows_finite = model._rows_finite
    monkeypatch.setattr(model, "_rows_finite",
                        lambda *args: exact.append(1) or rows_finite(*args))
    state = Lockstep.start(inits, configs, ds)
    thetas, betas = list(inits), [ds.alpha] * 3
    rng, sampler = np.random.default_rng(5), GroupSampler(ds, configs[0])
    tripped = 0
    for t in range(8):
        g, rows = sampler.draw(rng)
        batch = shared_batch(ds, g, rows, 3)
        train_step(state, batch)
        assert not state.failed and state.ids.tolist() == [0, 1, 2]
        assert np.isfinite(state.screen).all()
        tripped += not math.isfinite(np.vdot(state.screen, state.screen))
        assert len(exact) == tripped
        for i, config in enumerate(configs):
            thetas[i], betas[i] = composed_step(thetas[i], betas[i], config, t, batch.x[0],
                                                batch.y[0], g, ds.n_g)
            assert model.params_equal(model.row_params(state.theta, i), thetas[i])
            assert state.beta[i].tobytes() == betas[i].tobytes()
    assert tripped >= 6


def steps_seen_by_the_loss(monkeypatch):
    """``(theta, z_prime, z)`` of every parameter gradient taken from now
    on: each call of ``model._param_grads``, the kernel of
    ``loss_and_param_grads`` that a step calls."""
    seen = []
    param_grads = model._param_grads

    def spy(theta, dlogits, z_prime, z, x, out):
        seen.append((theta, z_prime.copy(), z.copy()))
        return param_grads(theta, dlogits, z_prime, z, x, out)

    monkeypatch.setattr(model, "_param_grads", spy)
    return seen


def test_mixed_radius_step_keeps_z_bitwise_in_every_radius_zero_row(monkeypatch):
    """ERM, group DRO and a hierarchical row at radius 0 keep ``z' = z``
    byte for byte, the sign of every ``-0.0`` latent included, beside a row
    that ascends."""
    ds = plane_ds()
    features = ds.features.copy()
    features[::2, 1] = -0.0
    features[1::2, 0] = -0.0
    ds = GroupedDataset(features, ds.labels, ds.attributes, 2, 2)
    configs = [base_config(mode=ERM), base_config(mode=GROUP_DRO), base_config(epsilon=0.0),
               base_config(epsilon=2.0), base_config(mode=ERM, epsilon=3.0)]
    inits = [init_params(ModelSpec(LINEAR), 2, 2, seed=k) for k in range(len(configs))]
    seen = steps_seen_by_the_loss(monkeypatch)
    state = Lockstep.start(inits, configs, ds)
    rng = np.random.default_rng(0)
    sampler = GroupSampler(ds, configs[0])
    for _ in range(5):
        train_step(state, shared_batch(ds, *sampler.draw(rng), len(configs)))
    assert len(seen) == 5
    for _, z_prime, z in seen:
        assert np.signbit(z).any()
        for i in (0, 1, 2, 4):
            assert z_prime[i].tobytes() == z[0].tobytes()
            np.testing.assert_array_equal(np.signbit(z_prime[i]), np.signbit(z[0]))
        assert z_prime[3].tobytes() != z[0].tobytes()


@pytest.mark.parametrize("field_name,value", [
    ("iterations", 7), ("checkpoint_every", 3), ("batch_size", 2), ("decay_steps", True),
    ("sampling", solver.EMPIRICAL), ("eta_beta", 0.3), ("eta_theta", 0.3), ("adjustment", 0.5),
])
def test_lockstep_rows_must_share_the_shape_fields(field_name, value):
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=0)
    configs = [base_config(iterations=5), base_config(**{"iterations": 5, field_name: value})]
    with pytest.raises(ParameterError, match=field_name):
        train_lockstep(ds, ds, [theta0, theta0], configs)


def test_lockstep_rows_must_share_the_architecture():
    ds = small_ds()
    linear = init_params(ModelSpec(LINEAR), ds.d, 2, seed=0)
    for other in (init_params(ModelSpec(MLP1, hidden_width=4), ds.d, 2, seed=0),
                  init_params(ModelSpec(MLP1, hidden_width=5), ds.d, 2, seed=0)):
        with pytest.raises(ParameterError):
            train_lockstep(ds, ds, [linear, other], [base_config(), base_config()])
    with pytest.raises(ParameterError):
        train_lockstep(ds, ds, [], [])


def ascent_endpoints_of_one_step(monkeypatch, ds, init):
    """``(theta, z, y, eps_g, z_prime)`` of each row with a positive radius
    in one step of four rows from ``init``: ERM, group DRO and two
    hierarchical rows, one with a large radius and one with a small one.
    ``theta`` is the row's own model and ``z_prime`` its endpoints, as the
    step hands them to the parameter gradient."""
    configs = [base_config(mode=ERM), base_config(mode=GROUP_DRO), base_config(epsilon=2.0),
               base_config(epsilon=0.5)]
    state = Lockstep.start([init] * len(configs), configs, ds)
    g, rows = GroupSampler(ds, configs[0]).draw(np.random.default_rng(0))
    batch = shared_batch(ds, g, rows, len(configs))
    seen = steps_seen_by_the_loss(monkeypatch)
    train_step(state, batch)
    ((theta, z_prime, z),) = seen
    return [(model.row_params(theta, i), z[i % len(z)], batch.y[0],
             amb.radius(configs[i].epsilon, int(ds.n_g[g])), z_prime[i]) for i in (2, 3)]


@pytest.mark.parametrize("architecture", [LINEAR, MLP1])
def test_train_step_lands_every_ascending_row_on_the_grid_supremum(monkeypatch, architecture):
    """One step on 2-D binary latents: every row with a positive radius, a
    large one or a small one, ends on the supremum of the loss over its
    ball, as a 200k-point boundary grid measures it."""
    full = small_ds()
    ds = GroupedDataset(full.features[:, :2], full.labels, full.attributes, 2, 2)
    init = init_params(ModelSpec(architecture, hidden_width=2), 2, 2, seed=4)
    endpoints = ascent_endpoints_of_one_step(monkeypatch, ds, init)
    angles = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for theta, z, y, eps_g, z_prime in endpoints:
        assert eps_g > 0
        for z_i, y_i, zp_i in zip(z, y, z_prime):
            grid = z_i + eps_g * ring
            brute = model.cross_entropy(model.logits_from_latent(theta, grid),
                                        np.full(ring.shape[0], y_i)).max()
            got = model.cross_entropy(model.logits_from_latent(theta, zp_i), y_i)
            assert abs(got - brute) <= 1e-9
            assert np.linalg.norm(zp_i - z_i) <= eps_g * (1 + 1e-12)


@pytest.mark.parametrize("architecture", [LINEAR, MLP1], ids=["linear-d10", "mlp1-h32"])
def test_train_step_lands_every_ascending_row_on_the_closed_form_supremum(monkeypatch,
                                                                          architecture):
    """One step at the benchmark's latent dimensions, which no grid reaches:
    10 for ``linear`` (its features) and 32 for an ``mlp1`` of width 32.
    Every row with a positive radius ends where the loss equals the exact
    ball supremum ``binary_robust_loss``, to 1e-12 relative, on the sphere."""
    ds = small_ds()
    init = init_params(ModelSpec(architecture, hidden_width=32), ds.d, 2, seed=4)
    for theta, z, y, eps_g, z_prime in ascent_endpoints_of_one_step(monkeypatch, ds, init):
        assert eps_g > 0 and z.shape[-1] == (10 if architecture == LINEAR else 32)
        v, c = theta.w_out[1] - theta.w_out[0], theta.b_out[1] - theta.b_out[0]
        exact, _ = amb.binary_robust_loss(z @ v + c, 2.0 * y - 1.0, eps_g, np.linalg.norm(v))
        got = model.cross_entropy(model.logits_from_latent(theta, z_prime), y)
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.linalg.norm(z_prime - z, axis=-1), eps_g,
                                   rtol=1e-12, atol=0.0)


# Rows as (mode, epsilon, seed), the group of each seed's batch, the rows
# that ascend, and a row whose output rows are all equal (v = 0), if any.
ASCENT_LAYOUTS = {
    "all-ascend-shared": ([(HIERARCHICAL, 0.5, 1), (HIERARCHICAL, 1.0, 1), (HIERARCHICAL, 2.0, 1),
                           (HIERARCHICAL, 4.0, 1)], {1: 2}, [0, 1, 2, 3], 2),
    "mixed-per-seed": ([(ERM, 2.0, 1), (HIERARCHICAL, 2.0, 2), (GROUP_DRO, 1.0, 3),
                        (HIERARCHICAL, 0.5, 1), (HIERARCHICAL, 1.0, 3)],
                       {1: 0, 2: 1, 3: 3}, [1, 3, 4], None),
    "one-row": ([(HIERARCHICAL, 2.0, 1)], {1: 1}, [0], None),
    "1-of-4": ([(HIERARCHICAL, 2.0, 1), (HIERARCHICAL, 0.0, 1), (GROUP_DRO, 0.0, 1),
                (ERM, 0.0, 1)], {1: 0}, [0], None),
    # 5e-324 / sqrt(n_g) is 0 for n_g >= 4: the smallest epsilon ascends in
    # group 3 (3 rows) and not in group 0 (9 rows).
    "radius-underflow": ([(HIERARCHICAL, 5e-324, 1), (HIERARCHICAL, 5e-324, 2),
                          (HIERARCHICAL, 1.0, 3)], {1: 3, 2: 0, 3: 2}, [0, 2], None),
    "radius-underflow-alone": ([(HIERARCHICAL, 5e-324, 1)], {1: 0}, [], None),
}


@pytest.mark.parametrize("architecture", [LINEAR, MLP1])
@pytest.mark.parametrize("num_labels", [2, 3])
@pytest.mark.parametrize("layout", sorted(ASCENT_LAYOUTS))
def test_lockstep_ascent_is_bitwise_each_rows_inner_maximize(monkeypatch, layout, num_labels,
                                                            architecture):
    """One step's ``z'``, as the parameter gradient receives it: every
    ascending row's is byte for byte ``inner_maximize`` on that row's own
    model, latents, labels and radius, and every other row's is ``z``
    (``inner_maximize`` returns ``z`` itself at radius 0).  The layouts:
    every row ascending on one shared batch, mixed radii with a batch per
    seed and ascending rows that are not consecutive, one row, one
    ascending row of four, and a radius that underflows to 0 in one group
    only, beside other rows or alone; one head has ``v = 0``.  Every other
    dataset row is ``-0.0``, whose sign ``z - 0 v_hat`` would flip."""
    settings_, groups, ascending, zero_head = ASCENT_LAYOUTS[layout]
    ds = grouped_ds(num_labels, 0)
    features = ds.features.copy()
    features[::2] = -0.0
    ds = GroupedDataset(features, ds.labels, ds.attributes, num_labels, 2)
    spec = ModelSpec(architecture, hidden_width=4)
    inits = [init_params(spec, ds.d, num_labels, seed=10 + i) for i in range(len(settings_))]
    if zero_head is not None:
        w_out = inits[zero_head].w_out
        inits[zero_head] = dataclasses.replace(
            inits[zero_head], w_out=np.broadcast_to(w_out[0], w_out.shape).copy())
    configs = [base_config(mode=mode, epsilon=eps, seed=seed) for mode, eps, seed in settings_]
    state = Lockstep.start(inits, configs, ds)
    draws = {seed: (g, np.random.default_rng(seed).choice(ds.group_rows(g), size=4))
             for seed, g in groups.items()}
    if len(draws) == 1:
        ((g, rows),) = draws.values()
        batch = shared_batch(ds, g, rows, len(configs))
    else:
        picked = [draws[c.seed] for c in configs]
        batch = Batch(group=np.array([g for g, _ in picked]),
                      x=np.stack([ds.features[rows] for _, rows in picked]),
                      y=np.stack([ds.labels[rows] for _, rows in picked]))
    seen = steps_seen_by_the_loss(monkeypatch)
    train_step(state, batch)
    ((theta, z_prime, z),) = seen
    radii = [amb.radius(c.effective_epsilon, int(ds.n_g[g])) for c, g in zip(configs, batch.group)]
    assert [i for i, eps in enumerate(radii) if eps > 0] == ascending
    for i, eps in enumerate(radii):
        z_i, y_i = z[i % len(z)], batch.y[i % len(batch.y)]
        want = amb.inner_maximize(model.row_params(theta, i), z_i, y_i, eps)
        assert z_prime[i].tobytes() == want.tobytes()
