import numpy as np
import pytest

from vielab import DomainGeometry, WaveParameters, build_volume_grid, volume

# pass/fail lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session", autouse=True)
def desk_scale_budget():
    """The whole suite runs within a 512 MiB dense budget (desk scale)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(volume, "DENSE_BUDGET_BYTES", 512 * 2**20)
        yield


@pytest.fixture(scope="session")
def unit_disc():
    return DomainGeometry.disc(1.0)


@pytest.fixture(scope="session")
def unit_square():
    return DomainGeometry.polygon([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@pytest.fixture(scope="session")
def params_k1():
    return WaveParameters(1.0, 2)


@pytest.fixture(scope="session")
def params_k0():
    return WaveParameters(0.0, 2)


@pytest.fixture(scope="session")
def disc_grid_32(unit_disc):
    return build_volume_grid(unit_disc, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_field(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def smooth_probe(points, seed=7, modes=3, scale=1.5):
    """Random band-limited field: converges as a function under refinement."""
    gen = np.random.default_rng(seed)
    out = np.zeros(len(points), dtype=complex)
    d = points.shape[1]
    for _ in range((2 * modes + 1) ** 2):
        freq = gen.integers(-modes, modes + 1, size=d)
        coef = gen.standard_normal() + 1j * gen.standard_normal()
        out += coef * np.exp(1j * np.pi * (points @ freq) / scale)
    return out


def kernel_matrix_operators(grid, params, coeffs):
    """(A1, A) built from the cached dense kernel matrices, the construction
    the row-chunked gathers of ``assemble_A1`` and ``assemble_A_dense``
    replace: A1 as sum_c K_c w_c[j] over every kernel, A as G beta[j] minus
    (diag(alpha) D_c)^T grad G_c, as the dense builders once formed them."""
    gm, grads = volume.kernel_matrices(grid, params)
    g_weight, *grad_weights = volume.a1_weights(grid, params, coeffs)
    a1 = gm * g_weight[None, :]
    for kern, weight in zip(grads, grad_weights):
        a1 += kern * weight[None, :]
    alpha = coeffs.alpha(grid.centers)
    a_mat = gm * coeffs.beta(grid.centers)[None, :]
    for grad, dop in zip(grads, volume.gradient_ops(grid)):
        a_mat -= (dop.multiply(alpha[:, None]).tocsc().T @ grad).T
    return a1, a_mat
