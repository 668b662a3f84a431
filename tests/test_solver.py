import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierdro import ambiguity as amb
from hierdro import model, solver
from hierdro.datagen import make_spurious
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
    stack_batches,
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


# -------------------------------------------------------------- train_step


def test_single_step_matches_hand_composition():
    ds = small_ds()
    config = base_config(batch_size=3)
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=1)
    state = Lockstep.start([theta0], [config], ds)
    g = 1
    rows = ds.group_rows(g)[:3]
    batch = Batch(group=g, x=ds.features[rows], y=ds.labels[rows])

    state = train_step(state, stack_batches([batch], None, 1))

    # Reference composition from the three documented sub-updates.
    eps_g = amb.radius(config.epsilon, int(ds.n_g[g]))
    z = model.latent(theta0, batch.x)
    z_prime = amb.inner_maximize(theta0, z, batch.y, eps_g)
    losses = model.cross_entropy(model.logits_from_latent(theta0, z_prime), batch.y)
    beta = update_beta(ds.alpha, g, float(losses.mean()), config.eta_beta,
                       config.adjustment, int(ds.n_g[g]))
    grads = model.grad_wrt_params(theta0, z_prime, batch.x, batch.y)
    theta1 = model.sgd_step(theta0, grads, config.eta_theta * float(beta[g]))

    assert model.params_equal(model.row_params(state.theta, 0), theta1)
    np.testing.assert_array_equal(state.beta[0], beta)
    assert state.t == 1
    assert model.params_equal(model.row_params(state.theta_bar, 0), theta1)


def test_erm_step_is_plain_sgd_on_batch_loss():
    ds = small_ds()
    config = base_config(mode=ERM)
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=2)
    state = Lockstep.start([theta0], [config], ds)
    g = 0
    rows = ds.group_rows(g)[:4]
    batch = Batch(group=g, x=ds.features[rows], y=ds.labels[rows])
    state = train_step(state, stack_batches([batch], None, 1))

    np.testing.assert_array_equal(state.beta[0], ds.alpha)  # frozen
    grads = model.grad_wrt_params(theta0, model.latent(theta0, batch.x), batch.x, batch.y)
    expected = model.sgd_step(theta0, grads, config.eta_theta * float(ds.alpha[g]))
    assert model.params_equal(model.row_params(state.theta, 0), expected)


def test_divergence_error_carries_snapshot():
    ds = small_ds()
    config = base_config(mode=GROUP_DRO)
    theta = ModelParams(w_out=np.full((2, ds.d), 1e308), b_out=np.zeros(2))
    state = Lockstep.start([theta], [config], ds)
    rows = ds.group_rows(0)[:2]
    batch = Batch(group=0, x=ds.features[rows], y=ds.labels[rows])
    with np.errstate(all="ignore"):
        state = train_step(state, stack_batches([batch], None, 1))
    assert isinstance(state.failed[0], DivergenceError)
    assert "iteration" in state.failed[0].snapshot
    assert state.ids.size == 0 and state.beta.shape == (0, ds.num_groups)


# ------------------------------------------------------------------- train


def test_train_zero_iterations_returns_initial_state():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=4)
    result = train(ds, ds, theta0, base_config(iterations=0))
    assert model.params_equal(result.final.theta, theta0)
    assert model.params_equal(result.best, theta0)
    assert result.final.t == 0


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
        batch = sampler.draw(rng)
        grads = model.grad_wrt_params(theta, model.latent(theta, batch.x), batch.x, batch.y)
        theta = model.sgd_step(theta, grads, config.eta_theta * float(ds.alpha[batch.group]))
    assert model.params_equal(erm.final.theta, theta)
    np.testing.assert_array_equal(erm.final.beta, ds.alpha)


def test_hidden_layer_trains_unless_latents_are_perturbed():
    ds = small_ds()
    theta0 = init_params(ModelSpec(MLP1, hidden_width=6), ds.d, 2, seed=14)
    moved = {}
    for mode, flag in ((ERM, False), (GROUP_DRO, False), (HIERARCHICAL, False), (HIERARCHICAL, True)):
        result = train(ds, ds, theta0, base_config(mode=mode, iterations=100,
                                                   backprop_through_feature=flag))
        moved[mode, flag] = not np.array_equal(result.final.theta.w_hidden, theta0.w_hidden)
    assert moved == {(ERM, False): True, (GROUP_DRO, False): True,
                     (HIERARCHICAL, False): False, (HIERARCHICAL, True): True}


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


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(mode="bogus", eta_beta=0.1, eta_theta=0.1)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.0, eta_theta=0.1)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.1, eta_theta=0.1, epsilon=-1.0)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.1, eta_theta=0.1, batch_size=0)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.1, eta_theta=0.1, inner_steps=0)
    with pytest.raises(ParameterError):
        SolverConfig(mode=ERM, eta_beta=0.1, eta_theta=0.1, eta_z=0.0)
    for name in ("epsilon", "eta_beta", "eta_theta", "adjustment", "eta_z"):
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
        assert model.params_equal(cp_a.theta_bar, cp_b.theta_bar)
    assert model.params_equal(a.final.theta, b.final.theta)
    np.testing.assert_array_equal(a.final.beta, b.final.beta)
    assert a.final.t == b.final.t


row_settings = st.fixed_dictionaries({
    "mode": st.sampled_from(solver.MODES),
    "seed": st.integers(0, 2),
    "epsilon": st.sampled_from([0.0, 0.5, 2.0]),
    "eta_beta": st.sampled_from([0.05, 0.5]),
    "eta_theta": st.sampled_from([0.1, 0.4]),
    "adjustment": st.sampled_from([0.0, 1.0]),
    "eta_z": st.sampled_from([None, 0.3]),
    "backprop_through_feature": st.booleans(),
    "init_seed": st.integers(0, 3),
})


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(row_settings, min_size=1, max_size=6),
    architecture=st.sampled_from([LINEAR, MLP1]),
    num_labels=st.sampled_from([2, 3]),
    inner_steps=st.sampled_from([1, 2]),
    decay_steps=st.booleans(),
    sampling=st.sampled_from(solver.SAMPLING),
)
def test_lockstep_rows_equal_solo_runs_bitwise(rows, architecture, num_labels, inner_steps,
                                               decay_steps, sampling):
    ds, ds_val = grouped_ds(num_labels, 0), grouped_ds(num_labels, 1)
    spec = ModelSpec(architecture, hidden_width=4)
    configs, inits = [], []
    for row in rows:
        settings_ = dict(row)
        inits.append(init_params(spec, ds.d, num_labels, seed=settings_.pop("init_seed")))
        configs.append(SolverConfig(iterations=25, batch_size=3, checkpoint_every=10,
                                    inner_steps=inner_steps, decay_steps=decay_steps,
                                    sampling=sampling, **settings_))
    together = train_lockstep(ds, ds_val, inits, configs)
    assert len(together) == len(rows)
    for result, init, config in zip(together, inits, configs):
        assert_same_result(result, train(ds, ds_val, init, config))


def test_lockstep_retires_a_diverged_row_and_keeps_the_others():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=3)
    configs = [base_config(mode=ERM, iterations=60, checkpoint_every=20),
               base_config(mode=ERM, iterations=60, checkpoint_every=20, eta_theta=1e308),
               base_config(iterations=60, checkpoint_every=20)]
    with np.errstate(all="ignore"):
        together = train_lockstep(ds, ds, [theta0] * 3, configs)
        with pytest.raises(DivergenceError) as solo_error:
            train(ds, ds, theta0, configs[1])
    assert isinstance(together[1], DivergenceError)
    assert str(together[1]) == str(solo_error.value)
    assert together[1].snapshot.keys() == solo_error.value.snapshot.keys()
    for k in (0, 2):
        assert_same_result(together[k], train(ds, ds, theta0, configs[k]))


@pytest.mark.parametrize("field_name,value", [
    ("iterations", 7), ("checkpoint_every", 3), ("batch_size", 2), ("decay_steps", True),
    ("sampling", solver.EMPIRICAL), ("inner_steps", 2),
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


def test_lockstep_step_ascends_each_row_through_inner_maximize(monkeypatch):
    """Every row with a positive radius gets one ``inner_maximize`` call on
    its own unstacked model, batch and radius, as a lone run makes."""
    ds = small_ds()
    spec = ModelSpec(MLP1, hidden_width=4)
    configs = [base_config(mode=ERM, seed=1), base_config(epsilon=2.0, seed=1),
               base_config(mode=GROUP_DRO, seed=2), base_config(epsilon=0.5, seed=2, eta_z=0.3)]
    inits = [init_params(spec, ds.d, 2, seed=k) for k in range(len(configs))]
    state = solver.Lockstep.start(inits, configs, ds)
    sampler = solver.GroupSampler(ds, configs[0])
    draws = [sampler.draw(np.random.default_rng(seed)) for seed in (1, 2)]
    batch = solver.stack_batches(draws, np.array([0, 0, 1, 1]), len(configs))
    calls = []
    inner_maximize = amb.inner_maximize

    def spy(theta, z, y, eps_g, steps=1, eta_z=None):
        calls.append((theta, z, y, eps_g, eta_z))
        return inner_maximize(theta, z, y, eps_g, steps=steps, eta_z=eta_z)

    monkeypatch.setattr(amb, "inner_maximize", spy)
    solver.train_step(state, batch)
    assert len(calls) == 2
    for (theta, z, y, eps_g, eta_z), k in zip(calls, (1, 3)):
        draw = draws[k // 2]
        assert model.params_equal(theta, inits[k]) and theta.w_out.ndim == 2
        np.testing.assert_array_equal(z, model.latent(inits[k], draw.x))
        np.testing.assert_array_equal(y, draw.y)
        assert eps_g == amb.radius(configs[k].epsilon, int(ds.n_g[draw.group]))
        assert eta_z == configs[k].eta_z
