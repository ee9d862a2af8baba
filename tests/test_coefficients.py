import numpy as np
import pytest

from vielab import beta_only, constant_a, linear_a, smooth_bump_a


def exterior_points(rng, n=200):
    pts = rng.uniform(1.2, 3.0, size=(n, 2))
    signs = rng.choice([-1.0, 1.0], size=(n, 2))
    return pts * signs


def test_contrasts_vanish_outside(unit_disc, rng):
    fields = [
        constant_a(unit_disc, 1.0, 2.0, k2_inside=3.0),
        smooth_bump_a(unit_disc, 1.0, 2.0),
        beta_only(unit_disc, 1.0, 3.0),
        linear_a(unit_disc, 1.0, 2.0, np.array([0.5, 0.0])),
    ]
    pts = exterior_points(rng)
    for cf in fields:
        assert np.all(cf.alpha(pts) == 0)
        assert np.all(cf.beta(pts) == 0)
        assert np.all(cf.grad_alpha(pts) == 0)


def test_constant_a_values(unit_disc):
    cf = constant_a(unit_disc, 1.0, 2.0, k2_inside=2.0)
    inside = np.array([[0.1, 0.2], [0.5, -0.5]])
    assert np.allclose(cf.a(inside), 2.0)
    assert np.allclose(cf.k ** 2 + cf.beta(inside), 2.0)
    assert cf.tag == "piecewise-constant"


def test_no_contrast_is_laplace_case(unit_disc):
    assert constant_a(unit_disc, 1.0, 1.0).tag == "laplace-case"


def test_smooth_bump_vanishes_on_boundary(unit_disc):
    cf = smooth_bump_a(unit_disc, 1.0, 2.0)
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    nodes = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert np.max(np.abs(cf.alpha(nodes))) < 1e-12
    assert cf.tag == "globally-smooth"


@pytest.mark.parametrize("builder,kwargs", [
    (smooth_bump_a, {"amplitude": 2.0}),
    (beta_only, {"amplitude": 3.0}),
    (linear_a, {"a0": 2.0, "gradient": np.array([0.3, -0.7])}),
])
def test_grad_alpha_matches_finite_differences(unit_disc, rng, builder, kwargs):
    cf = builder(unit_disc, 1.0, **kwargs)
    step = 1e-6
    pts = rng.uniform(-0.5, 0.5, size=(50, 2))  # well inside, away from Gamma
    grad = cf.grad_alpha(pts)
    for c in range(2):
        e = np.zeros(2)
        e[c] = step
        fd = (cf.alpha(pts + e) - cf.alpha(pts - e)) / (2 * step)
        assert np.max(np.abs(grad[:, c] - fd)) < 1e-7


def test_beta_only_plateau_and_cutoff(unit_disc):
    cf = beta_only(unit_disc, 1.0, 3.0, r_plateau=0.7, r_cut=0.95)
    assert cf.beta(np.array([[0.0, 0.0]]))[0] == pytest.approx(3.0)
    assert cf.beta(np.array([[0.5, 0.0]]))[0] == pytest.approx(3.0)
    assert cf.beta(np.array([[0.97, 0.0]]))[0] == 0.0
    assert cf.tag == "laplace-case"


def test_invalid_tag_rejected(unit_disc):
    from vielab.coefficients import CoefficientField
    with pytest.raises(ValueError):
        CoefficientField(unit_disc, 1.0, "bogus", None, None, None)
