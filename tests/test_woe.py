import math
import random

import pytest

from grexplain import ZeroPosterior, ZeroPrior, woe_uniform, woe_with_priors


def test_reference_anchor_values():
    # reference anchors derived from rounded posterior pairs
    assert woe_uniform(0.36, 0.27) == pytest.approx(0.28, abs=0.02)
    assert woe_uniform(0.38, 0.23) == pytest.approx(0.51, abs=0.02)
    assert woe_uniform(0.40, 0.20) == pytest.approx(0.69, abs=0.005)
    assert woe_uniform(0.40, 0.20) == pytest.approx(math.log(2), abs=1e-12)


def test_equal_posteriors_weigh_nothing():
    assert woe_uniform(0.5, 0.5) == 0.0


def test_antisymmetry():
    rng = random.Random(3)
    for _ in range(200):
        p, q = rng.uniform(1e-6, 1), rng.uniform(1e-6, 1)
        assert abs(woe_uniform(p, q) + woe_uniform(q, p)) < 1e-12


def test_strict_monotonicity():
    assert woe_uniform(0.5, 0.2) > woe_uniform(0.4, 0.2)
    assert woe_uniform(0.4, 0.1) > woe_uniform(0.4, 0.2)


def test_zero_inputs_rejected():
    with pytest.raises(ZeroPosterior):
        woe_uniform(0.0, 0.5)
    with pytest.raises(ZeroPosterior):
        woe_uniform(0.5, 0.0)
    with pytest.raises(ZeroPosterior):
        woe_with_priors(0.0, 0.5, 0.5, 0.5)
    with pytest.raises(ZeroPrior):
        woe_with_priors(0.4, 0.5, 0.0, 0.5)
    # ratios past float range: priors far apart make tiny posteriors
    for p, q in ((1.0, 1e-320), (1e300, 1e-300), (5e-324, 2.0)):
        with pytest.raises(ZeroPosterior, match="out of floating-point range"):
            woe_uniform(p, q)
        with pytest.raises(ZeroPosterior, match="priors are too far apart"):
            woe_with_priors(p, q, 0.5, 0.5)
        with pytest.raises(ZeroPrior, match="out of floating-point range"):
            woe_with_priors(0.4, 0.5, p, q)


def test_uniform_priors_reduce_exactly():
    rng = random.Random(8)
    for _ in range(100):
        p, q = rng.uniform(1e-6, 1), rng.uniform(1e-6, 1)
        prior = rng.uniform(1e-6, 1)
        assert woe_with_priors(p, q, prior, prior) == woe_uniform(p, q)


def test_posterior_ratio_equal_to_prior_ratio_weighs_nothing():
    assert woe_with_priors(0.3, 0.6, 0.2, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_bayes_identity_on_random_distributions():
    # log posterior ratio = log prior ratio + woe, residual below 1e-9
    rng = random.Random(123)
    for _ in range(1000):
        p, q = rng.uniform(1e-9, 1), rng.uniform(1e-9, 1)
        prior, prior_q = rng.uniform(1e-9, 1), rng.uniform(1e-9, 1)
        woe = woe_with_priors(p, q, prior, prior_q)
        residual = math.log(p / q) - math.log(prior / prior_q) - woe
        assert abs(residual) < 1e-9
