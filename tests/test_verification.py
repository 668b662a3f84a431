"""The self-checks behind ``hierdro verify`` on inputs that once fooled them."""

from hierdro import verification


def test_check_gradients_redraws_instances_at_a_relu_kink():
    """Seeds whose default draw puts an ``mlp1`` pre-activation within 1e-7 of
    zero, where a central difference is no derivative; the check redraws such
    an instance rather than fail on correct gradients."""
    for seed in (1111, 15926):
        result = verification.check_gradients(seed=seed)
        assert result.passed, result.details


def test_check_inner_maximization_holds_the_default_ascent_to_the_grid():
    result = verification.check_inner_maximization()
    assert result.passed, result.details
    assert 0.0 <= result.details["max_loss_gap"] <= result.details["tolerance"]
