"""State space, propagation and spectral calculus.

Oracles used here are independent of the implementation paths:
Taylor summation for the matrix exponential, brute-force quadratic
forms for Gram norms, explicit inverse plus SVD for weighted resolvent
norms, and closed-form powers of diagonal generators.
"""

import functools
import gc
import json
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from semiper import cli
from semiper.errors import (
    NonFiniteInput,
    NonHermitian,
    NotPositiveDefinite,
    OnSpectrum,
    SpectrumOnCut,
)
from semiper.models import (
    DampingProfile,
    build_boundary_forced_wave,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
    build_scalar_model,
    build_sphere_schrodinger,
    build_synthetic_resolvent_model,
)
from semiper.operator_core import (
    _PROPAGATE_BLOCK,
    EIG_COND_LIMIT,
    _conjugate_pairs,
    _damped_wave_eig,
    _eig,
    _real_columns,
    build_model,
    contour_spectral_projector,
    domain_inv_factor,
    fractional_power,
    from_block,
    harmonic_solve,
    make_state_space,
    propagate,
    propagated_columns,
    propagator_matrix,
    resolvent_norm,
    spectrum_report,
    to_block,
)
from semiper.stability_lab import resolvent_scan

from conftest import gram_sqrt, reduced_gram


def taylor_expm(A, t, terms=80):
    """Matrix exponential by plain Taylor summation.

    Only safe for ||tA|| of order one, which is all the oracle needs.
    """
    n = A.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms):
        term = term @ (A * t) / k
        acc = acc + term
    return acc


def random_stable_model(rng, n=4):
    A = rng.standard_normal((n, n))
    A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.5) * np.eye(n)
    B = rng.standard_normal((n, n))
    G = B @ B.T + n * np.eye(n)
    space = make_state_space(n, G)
    return build_model(space, A, label="random_stable")


# ---------------------------------------------------------------------------
# state space
# ---------------------------------------------------------------------------

def test_norm_matches_quadratic_form(rng):
    n = 5
    B = rng.standard_normal((n, n))
    G = B @ B.T + n * np.eye(n)
    space = make_state_space(n, G)
    for _ in range(10):
        x = rng.standard_normal(n)
        brute = np.sqrt(np.real(x @ G @ x))
        assert space.norm(x) == pytest.approx(brute, rel=1e-12)


def test_row_norms_match_per_state_norm(rng):
    n = 6
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = B @ B.conj().T + n * np.eye(n)
    space = make_state_space(n, G)
    X = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
    assert_allclose(space.row_norms(X), [space.norm(x) for x in X], rtol=1e-13)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_row_norms_match_complex_contraction(rng, field):
    """A real Gram is kept as float64 and takes the real-matmul paths, a
    complex one does not; row_norms and norm both agree with the complex
    contraction x* G x."""
    n = 7
    B = rng.standard_normal((n, n))
    if field == "complex":
        B = B + 1j * rng.standard_normal((n, n))
    space = make_state_space(n, B @ B.conj().T + n * np.eye(n))
    assert space.gram.dtype == (np.complex128 if field == "complex" else np.float64)
    X = rng.standard_normal((11, n)) + 1j * rng.standard_normal((11, n))
    q = np.einsum("ij,ij->i", X.conj(), X @ space.gram.T).real
    assert_allclose(space.row_norms(X), np.sqrt(q), rtol=1e-14)
    assert_allclose([space.norm(x) for x in X], np.sqrt(q), rtol=1e-14)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_row_norms_of_a_real_stack_match_its_complex_cast_bit_for_bit(rng, field):
    """A real stack, such as a Picard trajectory of a real problem, is
    contracted alone; the zero imaginary part of its complex cast adds
    nothing, so both give the same bits. Sized as picard_cubic's grid."""
    n = 120
    B = rng.standard_normal((n, n))
    if field == "complex":
        B = B + 1j * rng.standard_normal((n, n))
    space = make_state_space(n, B @ B.conj().T + n * np.eye(n))
    X = rng.standard_normal((64, n))
    assert np.array_equal(space.row_norms(X), space.row_norms(X.astype(complex)))


def test_op_norm_diagonal_identity_gram():
    space = make_state_space(3, np.eye(3))
    M = np.diag([0.5, -2.0, 1.5])
    assert space.op_norm(M) == pytest.approx(2.0, rel=1e-12)


def test_op_norm_dominates_rayleigh_quotients(rng):
    n = 5
    B = rng.standard_normal((n, n))
    G = B @ B.T + n * np.eye(n)
    space = make_state_space(n, G)
    M = rng.standard_normal((n, n))
    bound = space.op_norm(M)
    for _ in range(50):
        x = rng.standard_normal(n)
        assert space.norm(M @ x) <= bound * space.norm(x) * (1 + 1e-12)


def test_reduced_gram_factor_is_an_upper_triangular_factor(rng):
    """R is upper triangular with R* R = G_r, on a random Gram and on the
    circle's reduced Gram (where it comes from a QR, whose diagonal may be
    negative), and the operator norm and resolvent norm read through it
    agree with the square root G^{1/2} of one eigh."""
    random = random_stable_model(rng)
    circle = build_damped_wave_circle(12, DampingProfile("constant", amplitude=0.7))
    for model in (random, circle):
        G_r = reduced_gram(model)
        R = model.reduced_gram_factor
        assert model.reduced_gram_factor is R
        assert_array_equal(R, np.triu(R))
        assert_allclose(R.conj().T @ R, G_r, rtol=1e-11, atol=1e-11)
        S = gram_sqrt(G_r)
        W = S @ model.deflated[0] @ np.linalg.inv(S)
        for eta in (0.0, 0.9, -2.3):
            oracle = 1.0 / np.linalg.svd(1j * eta * np.eye(len(W)) - W,
                                          compute_uv=False)[-1]
            assert resolvent_norm(model, eta) == pytest.approx(oracle, rel=1e-11)
    S = gram_sqrt(random.space.gram)
    M = rng.standard_normal((random.dim, random.dim))
    oracle = np.linalg.norm(S @ M @ np.linalg.inv(S), 2)
    assert random.space.op_norm(M) == pytest.approx(oracle, rel=1e-12)


def test_gram_must_be_hermitian():
    with pytest.raises(NonHermitian):
        make_state_space(2, [[1.0, 0.5], [0.0, 1.0]])


def test_gram_must_be_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        make_state_space(2, [[1.0, 0.0], [0.0, -1.0]])


@pytest.mark.parametrize("gram", [np.ones((2, 2)), np.ones((5, 5)), np.diag([1.0, -1e-14])],
                         ids=["ones_2", "ones_5", "negative_1e-14"])
def test_gram_check_refuses_at_the_margin(gram):
    """A singular or barely indefinite Gram is refused by the Cholesky
    factorization that validates it."""
    with pytest.raises(NotPositiveDefinite):
        make_state_space(len(gram), gram)


def test_gram_check_accepts_at_the_margin_with_its_factor(rng):
    """diag(1, 1e-14) is accepted, and so is a rank-2 B B^T in three
    dimensions whenever round-off leaves its Cholesky pivots positive. An
    accepted Gram carries the upper triangular factor that validated it,
    R^T R = G, and a refused one raises NotPositiveDefinite, not LAPACK's
    LinAlgError."""
    assert_allclose(make_state_space(2, np.diag([1.0, 1e-14])).gram_factor,
                    np.diag([1.0, 1e-7]), rtol=1e-15)
    accepted = 0
    for B in rng.standard_normal((6, 3, 2)):
        G = B @ B.T
        try:
            space = make_state_space(3, G)
        except NotPositiveDefinite:
            continue
        accepted += 1
        R = space.gram_factor
        assert_array_equal(R, np.triu(R))
        assert_allclose(R.T @ R, space.gram, rtol=0, atol=1e-15 * np.linalg.norm(G))
    assert accepted > 0


def test_gram_must_be_finite():
    with pytest.raises(NonFiniteInput):
        make_state_space(2, [[np.nan, 0.0], [0.0, 1.0]])


def test_gram_shape_checked():
    with pytest.raises(ValueError):
        make_state_space(3, np.eye(2))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [0.0, 0.3, 0.7])
def test_propagator_matches_taylor_series(rng, t):
    model = random_stable_model(rng)
    assert_allclose(propagator_matrix(model, t), taylor_expm(model.A, t),
                    rtol=1e-10, atol=1e-12)


def test_propagate_agrees_with_matrix(rng):
    model = random_stable_model(rng)
    x = rng.standard_normal(model.dim)
    assert_allclose(propagate(model, 0.5, x),
                    propagator_matrix(model, 0.5) @ x,
                    rtol=1e-10, atol=1e-13)


def test_propagate_semigroup_law(rng):
    model = random_stable_model(rng)
    x = rng.standard_normal(model.dim)
    both = propagate(model, 0.4, propagate(model, 0.9, x))
    assert_allclose(propagate(model, 1.3, x), both, rtol=1e-10, atol=1e-13)


def test_scalar_propagation_closed_form():
    model = build_scalar_model(lam=-2.0)
    out = propagate(model, 1.5, np.array([3.0]))
    assert out[0] == pytest.approx(3.0 * np.exp(-3.0), rel=1e-13)


def test_backward_time_on_group_inverts_forward(rng):
    model = random_stable_model(rng)
    x = rng.standard_normal(model.dim)
    back = propagate(model, -0.8, propagate(model, 0.8, x))
    assert_allclose(back, x, rtol=1e-9, atol=1e-11)


def test_propagate_rejects_nan_state():
    model = build_scalar_model()
    with pytest.raises(NonFiniteInput):
        propagate(model, 1.0, np.array([np.nan]))
    with pytest.raises(NonFiniteInput):
        propagate(model, np.array([1.0, 2.0]), np.array([np.nan]))
    with pytest.raises(ValueError, match="1-d array"):
        propagate(model, np.ones((2, 2)), np.array([1.0]))


BATCHED_MODELS = {
    "sphere": lambda: build_sphere_schrodinger(
        30, 6, DampingProfile("cap", amplitude=1.0, width=0.05, cutoff=0.85),
        quad_nodes=1200).model,
    "bump_interval": lambda: build_damped_wave_interval(
        40, np.pi, DampingProfile("bump", amplitude=1.0, center=1.5, width=2.0)),
}


@pytest.mark.parametrize("make", BATCHED_MODELS.values(), ids=BATCHED_MODELS)
def test_batched_propagate_matches_per_time_loop(make, rng):
    """An array of times, negative ones included and more of them than one
    contraction block takes, gives the columns the scalar calls give."""
    model = make()
    x = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    ts = np.linspace(-0.6, 2.0, 151)
    out = propagate(model, ts, x)
    ref = np.stack([propagate(model, t, x) for t in ts], axis=1)
    assert out.shape == (model.dim, ts.size)
    err = np.linalg.norm(out - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert err.max() <= 1e-14
    assert propagate(model, 0.7, x).shape == (model.dim,)


def test_batched_propagate_warns_on_backward_growth():
    """e^{20} ~ 4.9e8 at t = -1 exceeds the warning ratio, and the warning
    names that time; the states at positive times do not trigger it."""
    model = build_scalar_model(-20.0)
    x = np.array([1.0])
    with pytest.warns(UserWarning, match=r"at t = -1\.0$"):
        out = propagate(model, np.array([2.0, -0.1, -1.0, -1.5]), x)
    assert out[0, 2] == pytest.approx(np.exp(20.0), rel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        propagate(model, np.array([2.0, -0.1]), x)


@pytest.mark.parametrize("t", [-1.0, np.array([2.0, -1.0])], ids=["scalar", "array"])
def test_backward_growth_warning_names_the_caller(t):
    """A scalar time takes the array path, and the warning points at the
    line that called propagate for either form of t."""
    model = build_scalar_model(-20.0)
    with pytest.warns(UserWarning, match="backward propagation") as caught:
        propagate(model, t, np.array([1.0]))
    assert [c.filename for c in caught] == [__file__]


def test_batched_propagate_warns_once_from_a_later_block():
    """Each block of times is checked as it is built. Backward times in
    the first block stay below the warning ratio (e^{13} at t = -0.65);
    the warning names the first time past it, t = -0.8, the fourth of the
    second block, and it is given once although later times grow more."""
    model = build_scalar_model(-20.0)
    ts = np.concatenate([np.linspace(-0.65, 1.0, _PROPAGATE_BLOCK),
                         [0.5, 0.0, -0.3, -0.8, -0.7, -1.0], -np.ones(_PROPAGATE_BLOCK)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        propagate(model, ts, np.array([1.0]))
    assert [str(c.message).rsplit(" ", 1)[-1] for c in caught] == ["-0.8"]


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_norm_diagonal_exact():
    lams = np.array([-1.0 + 2.0j, -3.0 - 1.0j])
    model = build_diagonal_model(lams)
    for eta in (0.0, 1.0, -2.5):
        oracle = 1.0 / np.min(np.abs(1j * eta - lams))
        assert resolvent_norm(model, eta) == pytest.approx(oracle, rel=1e-11)


def test_resolvent_norm_matches_dense_svd(rng):
    model = random_stable_model(rng)
    eta = 1.7
    G = model.space.gram
    vals, vecs = np.linalg.eigh(G)
    S = (vecs * np.sqrt(vals)) @ vecs.conj().T
    R = np.linalg.inv(1j * eta * np.eye(model.dim) - model.A)
    oracle = np.linalg.svd(S @ R @ np.linalg.inv(S), compute_uv=False)[0]
    assert resolvent_norm(model, eta) == pytest.approx(oracle, rel=1e-10)


def test_resolvent_on_spectrum_raises():
    model = build_diagonal_model([2.0j, -1.0])
    with pytest.raises(OnSpectrum):
        resolvent_norm(model, 2.0)


def test_resolvent_uses_deflated_block():
    """With the kernel mode removed, eta = 0 is a regular point."""
    space = make_state_space(2, np.eye(2))
    e0 = np.array([1.0, 0.0])
    model = build_model(space, np.diag([0.0, -2.0]), kernel_basis=(e0,))
    assert resolvent_norm(model, 0.0) == pytest.approx(0.5, rel=1e-11)


def test_resolvent_norm_matches_weighted_inverse_on_heat_wave():
    """Non-normal generator, non-identity Gram: grid and spectral frequencies."""
    model = build_heat_wave_1d(48, 48)
    vals, vecs = np.linalg.eigh(model.space.gram)
    S = (vecs * np.sqrt(vals)) @ vecs.conj().T
    Si = (vecs / np.sqrt(vals)) @ vecs.conj().T
    # the lowest and highest spectral frequencies inside the bt_heatwave grid
    freqs = np.sort(np.abs(model.deflated_eig[0].imag))
    freqs = freqs[(freqs >= 0.5) & (freqs <= 90.0)]
    for eta in [0.5, 3.0, 17.0, 60.0, freqs[0], freqs[-1]]:
        R = np.linalg.inv(1j * eta * np.eye(model.dim) - model.A)
        oracle = np.linalg.norm(S @ R @ Si, 2)
        assert resolvent_norm(model, eta) == pytest.approx(oracle, rel=1e-10)


def test_resolvent_guard_reads_weighted_sigma_min():
    """i*eta one ulp from the eigenvalue 2i of a non-normal generator
    whose Gram is not the identity."""
    space = make_state_space(2, np.array([[2.0, 0.5], [0.5, 1.0]]))
    model = build_model(space, np.array([[-1.0, 5.0], [0.0, 2.0j]]))
    eta = np.nextafter(2.0, 3.0)
    assert abs(1j * eta - 2.0j) < 1e-15
    with pytest.raises(OnSpectrum):
        resolvent_norm(model, eta)


# ---------------------------------------------------------------------------
# fractional powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("diag,expected", [
    ([-1.0, -4.0], [1.0, 2.0]),
    ([-1.0, -9.0], [1.0, 3.0]),
])
def test_square_root_of_diagonal_generator(diag, expected):
    model = build_diagonal_model(diag)
    F = fractional_power(model, 0.5)
    assert_allclose(F, np.diag(expected), atol=1e-12)


def test_cube_of_cube_root_recovers_generator(rng):
    model = random_stable_model(rng)
    F = fractional_power(model, 1.0 / 3.0)
    assert_allclose(F @ F @ F, -model.A, rtol=1e-9, atol=1e-10)


def test_power_composition_law(rng):
    model = random_stable_model(rng)
    F3 = fractional_power(model, 0.3)
    F4 = fractional_power(model, 0.4)
    F7 = fractional_power(model, 0.7)
    assert_allclose(F3 @ F4, F7, rtol=1e-9, atol=1e-10)


FRACTIONAL_MODELS = {
    "bump_interval": (lambda: build_damped_wave_interval(
        60, np.pi, DampingProfile("bump", amplitude=1.0, center=np.pi / 2, width=2.0)), True),
    "heat_wave": (lambda: build_heat_wave_1d(24, 24), True),
    "circle": (lambda: build_damped_wave_circle(
        16, DampingProfile("constant", amplitude=1.0)), True),
    "sphere": (lambda: build_sphere_schrodinger(
        8, 2, DampingProfile("cap", amplitude=1.0, width=0.5)).model, False),
    "synthetic": (lambda: build_synthetic_resolvent_model(6, 1.0), False),
}


@pytest.mark.parametrize("make, real", FRACTIONAL_MODELS.values(), ids=FRACTIONAL_MODELS)
@pytest.mark.parametrize("alpha", [0.5, 1.0 / 3.0])
def test_fractional_power_keeps_the_field(make, real, alpha):
    """On a real model (-A_r)^alpha is float64, taken in the real basis of
    the deflated block, and matches the complex-basis V mu^alpha V^{-1};
    a complex model keeps complex128."""
    model = make()
    F = fractional_power(model, alpha)
    w, V, Vinv, _ = model.deflated_eig
    ref = (V * np.power(-w, alpha)) @ Vinv
    assert F.dtype == (np.float64 if real else np.complex128)
    assert np.linalg.norm(F - ref) <= 1e-13 * np.linalg.norm(ref)
    assert domain_inv_factor(model, alpha).dtype == F.dtype


def test_integer_power_is_exact():
    model = build_diagonal_model([-1.0, -2.0, -5.0])
    assert_allclose(fractional_power(model, 2.0),
                    np.diag([1.0, 4.0, 25.0]), atol=1e-13)
    assert_allclose(fractional_power(model, 0.0), np.eye(3), atol=1e-13)


def test_spectrum_on_cut_refused():
    space = make_state_space(1, [[1.0]])
    model = build_model(space, [[2.0]])
    with pytest.raises(SpectrumOnCut):
        fractional_power(model, 0.5)


def test_fractional_power_annihilates_kernel():
    """The power lives on the deflated block: lifted back to the full space
    as Q F Q* (I - pi0) it kills the kernel."""
    space = make_state_space(2, np.eye(2))
    e0 = np.array([1.0, 0.0])
    model = build_model(space, np.diag([0.0, -4.0]), kernel_basis=(e0,))
    F = fractional_power(model, 0.5)
    assert F.shape == (1, 1)
    assert_allclose(F, [[2.0]], atol=1e-12)
    lifted = lambda x: from_block(model, F @ to_block(model, x))
    assert_allclose(lifted(e0), np.zeros(2), atol=1e-12)
    assert_allclose(lifted(np.array([0.0, 1.0])), [0.0, 2.0], atol=1e-12)


def test_domain_gram_equivalent_to_sum_norm(rng):
    """Hilbertian domain norm |R_d x|, R_d the inverse of the domain factor,
    sits within [1/sqrt(2), 1] of the sum norm."""
    model = random_stable_model(rng)
    R_d = np.linalg.inv(domain_inv_factor(model, 0.5))
    F = fractional_power(model, 0.5)
    for _ in range(20):
        x = rng.standard_normal(model.dim)
        hilbert = np.linalg.norm(R_d @ x)
        summed = model.space.norm(x) + model.space.norm(F @ x)
        assert hilbert <= summed * (1 + 1e-12)
        assert hilbert >= summed / np.sqrt(2) * (1 - 1e-12)


# ---------------------------------------------------------------------------
# kernel projector and spectrum report
# ---------------------------------------------------------------------------

def test_contour_projector_matches_spectral_projector():
    space = make_state_space(3, np.eye(3))
    e0 = np.array([1.0, 0.0, 0.0])
    A = np.array([[0.0, 0.3, 0.0], [0.0, -2.0, 0.1], [0.0, 0.0, -3.0]])
    model = build_model(space, A, kernel_basis=(e0,))
    P = contour_spectral_projector(model)
    assert_allclose(P, model.pi0, atol=1e-9)
    assert_allclose(P @ P, P, atol=1e-9)
    assert np.trace(P).real == pytest.approx(1.0, abs=1e-9)


def test_kernel_projector_from_one_eig_matches_contour():
    """The projector build_model derives from one eigendecomposition (left
    vectors from the rows of V^{-1}) agrees with the contour integral."""
    damping = DampingProfile("bump", amplitude=1.0, center=2.0, width=2.5)
    circle = build_damped_wave_circle(24, damping)
    model = build_model(circle.space, circle.A, kernel_basis=circle.kernel_basis)
    P = contour_spectral_projector(model)
    scale = np.linalg.norm(P, 2)
    assert np.linalg.norm(model.pi0 - P, 2) <= 1e-10 * scale
    assert np.linalg.norm(model.pi0 - circle.pi0, 2) <= 1e-10 * scale


def test_contour_projector_around_isolated_eigenvalue():
    model = build_diagonal_model([-1.0, -2.0, -5.0])
    P = contour_spectral_projector(model, center=-2.0)
    assert_allclose(P, np.diag([0.0, 1.0, 0.0]), atol=1e-10)


def _naive_contour_projector(A, center, radius, n_nodes=64):
    """Trapezoid rule over all n_nodes nodes, one solve per node."""
    eye = np.eye(len(A))
    acc = np.zeros(A.shape, dtype=complex)
    for th in 2 * np.pi * np.arange(n_nodes) / n_nodes:
        u = np.exp(1j * th)
        acc += u * np.linalg.solve((center + radius * u) * eye - A, eye)
    return radius * acc / n_nodes


def _counted_solves(monkeypatch):
    """The shape of the matrix of each np.linalg.solve call."""
    calls = []
    original = np.linalg.solve

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_contour_projector_pairs_conjugate_nodes_on_real_models(monkeypatch):
    """Real A and a real center: half the nodes plus the two on the real
    axis are solved, and the sum is the all-node trapezoid rule on the
    dim x dim resolvent. A wave A = [[0, I], [L, -D]] (the constant and
    the bump-damped circle) solves its n x n quadratic pencil at each node
    instead of z I - A; a first-order 3 x 3 model solves z I - A."""
    def half_gap(model):
        """Half the distance from 0 to the nearest nonzero eigenvalue."""
        w = np.abs(model.eig[0])
        return 0.5 * w[w > 1e-8].min()

    constant = build_damped_wave_circle(24, DampingProfile("constant", amplitude=1.0))
    bumped = build_damped_wave_circle(
        24, DampingProfile("bump", amplitude=1.0, center=2.0, width=2.5))
    first_order = kernel_model()
    # (model, contour radius, size of each solve)
    cases = [(constant, 0.2, 24), (bumped, half_gap(bumped), 24),
             (first_order, half_gap(first_order), 3)]
    naive = [_naive_contour_projector(model.A, 0.0, radius) for model, radius, _ in cases]
    calls = _counted_solves(monkeypatch)
    for (model, radius, n), ref in zip(cases, naive):
        calls.clear()
        P = contour_spectral_projector(model, radius=radius)
        assert calls == [(n, n)] * 33
        assert_allclose(P, ref, rtol=0, atol=1e-13)
        assert_allclose(P, model.pi0, rtol=0, atol=1e-12)


def test_contour_projector_solves_every_node_on_complex_models(monkeypatch):
    A = np.array([[-1.0, 0.3, 0.0],
                  [0.0, -2.0 + 1.0j, 0.2],
                  [0.0, 0.0, -3.0 - 0.5j]])
    model = build_model(make_state_space(3, np.eye(3)), A)
    naive = _naive_contour_projector(model.A, -1.0, 0.5)
    calls = _counted_solves(monkeypatch)
    P = contour_spectral_projector(model, center=-1.0, radius=0.5)
    assert calls == [(3, 3)] * 64
    assert_allclose(P, naive, rtol=0, atol=1e-13)
    e0 = np.array([1.0, 0.0, 0.0])
    assert_allclose(P @ P, P, atol=1e-12)
    assert_allclose(P @ e0, e0, atol=1e-12)


def test_contour_projector_on_a_complex_quadratic_pencil(monkeypatch):
    """A = [[0, I], [L, -D]] with a complex, non-diagonal D: every node
    solves the 2 x 2 pencil z^2 + z D - L."""
    L = np.array([[-2.0, 0.5], [0.5, -3.0]])
    D = np.array([[1.0 + 0.5j, 0.2], [0.1j, 2.0]])
    A = np.block([[np.zeros((2, 2)), np.eye(2)], [L, -D]])
    model = build_model(make_state_space(4, np.eye(4)), A)
    center = complex(model.eig[0][0])
    naive = _naive_contour_projector(model.A, center, 0.1)
    calls = _counted_solves(monkeypatch)
    P = contour_spectral_projector(model, center=center, radius=0.1)
    assert calls == [(2, 2)] * 64
    assert_allclose(P, naive, rtol=0, atol=1e-13)
    assert_allclose(P @ P, P, atol=1e-12)
    assert np.trace(P).real == pytest.approx(1.0, abs=1e-12)


def test_deflated_block_removes_kernel_direction():
    space = make_state_space(2, np.eye(2))
    e0 = np.array([1.0, 0.0])
    model = build_model(space, np.diag([0.0, -4.0]), kernel_basis=(e0,))
    A_r, Q = model.deflated
    assert A_r.shape == (1, 1)
    assert A_r[0, 0] == pytest.approx(-4.0)
    assert reduced_gram(model)[0, 0].real == pytest.approx(1.0)
    assert Q.shape == (2, 1)


def test_spectrum_report_stable_model():
    model = build_diagonal_model([-1.0 + 5.0j, -0.25])
    rep = spectrum_report(model)
    assert rep.assumptions_ok
    assert rep.abscissa == pytest.approx(-0.25)
    assert rep.kernel_dim == 0
    assert rep.distance_to_imaginary_axis == pytest.approx(0.25)


def test_spectrum_report_flags_imaginary_eigenvalue():
    space = make_state_space(1, [[1.0]])
    model = build_model(space, [[1.0j]])
    rep = spectrum_report(model)
    assert not rep.assumptions_ok
    assert rep.deflated_abscissa == pytest.approx(0.0, abs=1e-14)


def test_spectrum_report_order_survives_round_off(rng):
    """The damped circle's eigenvalues come in pairs whose real parts agree
    only to round-off; a 1e-13 relative change of every eigenvalue must not
    reorder the rows."""
    model = build_damped_wave_circle(96, DampingProfile("constant", amplitude=1.0))
    before = spectrum_report(model).eigenvalues
    w, V, Vinv, cond = model.eig
    noise = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    model.__dict__["eig"] = (w * (1.0 + 1e-13 * noise), V, Vinv, cond)
    after = spectrum_report(model).eigenvalues
    assert_allclose(after, before, rtol=0, atol=1e-11 * np.max(np.abs(w)))


def test_spectrum_report_kernel_model_ok():
    space = make_state_space(2, np.eye(2))
    e0 = np.array([1.0, 0.0])
    model = build_model(space, np.diag([0.0, -4.0]), kernel_basis=(e0,))
    rep = spectrum_report(model)
    assert rep.kernel_dim == 1
    assert rep.assumptions_ok
    assert rep.deflated_abscissa == pytest.approx(-4.0)


def test_build_model_rejects_bad_shapes():
    space = make_state_space(2, np.eye(2))
    with pytest.raises(ValueError):
        build_model(space, np.eye(3))
    with pytest.raises(NonFiniteInput):
        build_model(space, [[np.inf, 0.0], [0.0, -1.0]])


# ---------------------------------------------------------------------------
# factorizations cached on the model
# ---------------------------------------------------------------------------

def kernel_model():
    space = make_state_space(3, np.diag([1.0, 2.0, 0.5]))
    A = np.array([[0.0, 0.3, 0.0], [0.0, -2.0, 0.1], [0.0, 0.0, -3.0]])
    return build_model(space, A, kernel_basis=(np.array([1.0, 0.0, 0.0]),))


def use_spectral_paths(model):
    x = np.linspace(-1.0, 2.0, model.dim)
    propagate(model, 0.5, x)
    propagator_matrix(model, 0.7)
    propagated_columns(model, [0.1, 0.2], np.stack([x, 2 * x]), [1.0, -0.5])
    spectrum_report(model)
    harmonic_solve(model, np.arange(-3, 4), 2.0, np.outer(np.arange(1.0, 8.0), x))
    resolvent_norm(model, 1.3)
    fractional_power(model, 0.5)
    contour_spectral_projector(model)


def test_one_eig_and_no_schur_per_model(monkeypatch):
    """Every spectral path reads one eigendecomposition; the Schur form is
    a fallback that a well-conditioned eigenbasis never builds. The
    constantly damped circle takes the closed form, so no eig at all."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    monkeypatch.setattr(scipy.linalg, "schur", counted("schur", scipy.linalg.schur))
    bump = DampingProfile("bump", amplitude=1.0, center=1.5, width=1.0)
    for model, eigs in ((kernel_model(), 1), (build_heat_wave_1d(12, 10), 1),
                        (build_damped_wave_interval(30, np.pi, bump), 1),
                        (build_damped_wave_circle(
                            24, DampingProfile("constant", amplitude=1.0)), 0)):
        calls.clear()
        use_spectral_paths(model)
        use_spectral_paths(model)
        assert model.deflated_eig[3] <= 1e8
        assert calls == Counter(eig=eigs)


def test_kernel_model_factor_assembles_full_propagator():
    """e^{tA} = pi0 + Q e^{tA_r} Q* (I - pi0) from the deflated factor."""
    damping = DampingProfile("bump", amplitude=1.0, center=2.0, width=2.5)
    model = build_damped_wave_circle(24, damping)
    A_r, Q = model.deflated
    w, V, Vinv, _ = model.eig
    assert_allclose(V @ Vinv, np.eye(model.dim), atol=1e-11)
    assert_allclose(model.A @ V, V * w, atol=1e-9 * np.linalg.norm(model.A))
    P = np.eye(model.dim) - model.pi0
    for t in (0.3, 2.0):
        ref = scipy.linalg.expm(model.A * t)
        via_block = model.pi0 + Q @ scipy.linalg.expm(A_r * t) @ Q.conj().T @ P
        assert_allclose(via_block, ref, atol=1e-10)
        assert_allclose(propagator_matrix(model, t), ref, atol=1e-10)


def test_resolvent_scan_takes_one_svd_per_frequency(monkeypatch):
    model = build_heat_wave_1d(12, 10)
    eta_grid = np.geomspace(0.5, 30.0, 25)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    first = resolvent_scan(model, eta_grid)
    W = model.weighted_generator
    assert calls == {"svd": first.abscissae.size}
    calls.clear()
    second = resolvent_scan(model, eta_grid)
    assert model.weighted_generator is W
    assert calls == {"svd": second.abscissae.size}
    assert_array_equal(second.values, first.values)


def test_spectral_results_are_fresh_arrays(rng):
    """Mutating a returned matrix must not change the next call's result."""
    model = random_stable_model(rng)
    for compute in (lambda: propagator_matrix(model, 0.5),
                    lambda: fractional_power(model, 0.5)):
        first = compute()
        expected = first.copy()
        first[...] = np.nan
        assert_array_equal(compute(), expected)


def test_cached_model_is_freed_by_refcount():
    """The caches hold no reference back to their model, so dropping the
    last reference frees it without the cycle collector."""
    model = kernel_model()
    use_spectral_paths(model)
    model.reduced_gram_factor
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# real models in real arithmetic
# ---------------------------------------------------------------------------

REAL_MODELS = [
    lambda: build_heat_wave_1d(12, 10),
    lambda: build_damped_wave_circle(24, DampingProfile("constant", amplitude=1.0)),
]


@pytest.mark.parametrize("make", REAL_MODELS, ids=["heat_wave", "circle"])
@pytest.mark.parametrize("t", [0.3, 2.0])
def test_real_model_propagator_is_float64_and_matches_expm(make, t):
    model = make()
    P = propagator_matrix(model, t)
    ref = scipy.linalg.expm(model.A.real * t)
    assert P.dtype == np.float64
    assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("make", REAL_MODELS, ids=["heat_wave", "circle"])
def test_real_basis_condition_number_equals_cond_of_V(make):
    """cond(V) = cond(R D) for the real basis R, D = sqrt(2) on the pairs."""
    w, V, _, cond = make().deflated_eig
    assert np.count_nonzero(w.imag) > 0
    assert cond == pytest.approx(np.linalg.cond(V), rel=1e-12)


def test_complex_model_keeps_complex_arrays():
    model = build_diagonal_model([-1.0 + 2.0j, -3.0 - 1.0j, -0.5])
    assert model.real_eig is None
    assert propagator_matrix(model, 0.4).dtype == np.complex128


BUILT_MODELS = {
    "interval": (lambda: constant_wave(20), True),
    "bump_interval": (lambda: build_damped_wave_interval(
        20, np.pi, DampingProfile("bump", amplitude=2.0, center=1.5, width=1.0)), True),
    "circle": (lambda: build_damped_wave_circle(
        16, DampingProfile("constant", amplitude=1.0)), True),
    "heat_wave": (lambda: build_heat_wave_1d(8, 8), True),
    "boundary_wave": (lambda: build_boundary_forced_wave(
        20, np.pi, DampingProfile("constant", amplitude=1.0)), True),
    "scalar_real": (lambda: build_scalar_model(-1.0), True),
    "scalar_imag": (lambda: build_scalar_model(2j * np.pi), False),
    "sphere": (lambda: build_sphere_schrodinger(
        8, 2, DampingProfile("cap", amplitude=1.0, width=0.5)).model, False),
    "synthetic": (lambda: build_synthetic_resolvent_model(6, 1.0), False),
    "diagonal": (lambda: build_diagonal_model([-1.0, -4.0]), False),
}


@pytest.mark.parametrize("make, real", BUILT_MODELS.values(), ids=BUILT_MODELS)
def test_builders_fix_the_field_by_dtype(make, real):
    """Every array of a model, its Gram included, is float64 exactly when
    the model is real, and complex128 otherwise; the real propagator data
    exist exactly on the real models."""
    model = make()
    arrays = {"A": model.A, "pi0": model.pi0, "gram": model.space.gram,
              **{f"kernel_{i}": v for i, v in enumerate(model.kernel_basis)}}
    if model.B is not None:
        arrays["B"] = model.B
    expected = np.float64 if real else np.complex128
    assert {k: M.dtype for k, M in arrays.items()} == dict.fromkeys(arrays, expected)
    assert (model.real_eig is not None) == real


def test_near_defective_fixture_takes_expm_in_propagator_and_fixed_point(
        near_defective, monkeypatch):
    from semiper.periodic_solver import _fixed_point_matrix
    calls = []
    original = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda M: calls.append(M) or original(M))
    P = propagator_matrix(near_defective, 0.7)
    fixed, _ = _fixed_point_matrix(near_defective, 1.5)
    assert len(calls) == 2
    assert_array_equal(P, original(near_defective.A * 0.7))
    assert_array_equal(fixed, np.eye(3) - original(near_defective.A * 1.5))


def test_broken_pairing_takes_the_complex_path(monkeypatch):
    """An eig whose conjugate pairs are not adjacent is a valid factorization
    but not the real driver's layout: the code must not read it as one."""
    reference = propagator_matrix(build_heat_wave_1d(12, 10), 0.8)
    original = np.linalg.eig

    def split_first_pair(M):
        w, V = original(M)
        j = np.flatnonzero(w.imag)[0]
        perm = np.r_[np.delete(np.arange(w.size), j), j]
        return w[perm], V[:, perm]

    monkeypatch.setattr(np.linalg, "eig", split_first_pair)
    model = build_heat_wave_1d(12, 10)
    w, V, _, cond = model.deflated_eig
    assert np.flatnonzero(w.imag)[-1] == w.size - 1
    assert model.real_eig is None
    assert cond == pytest.approx(np.linalg.cond(V), rel=1e-12)
    P = propagator_matrix(model, 0.8)
    assert P.dtype == np.complex128
    assert np.linalg.norm(P - reference) <= 1e-13 * np.linalg.norm(reference)


# ---------------------------------------------------------------------------
# constantly damped waves in closed form
# ---------------------------------------------------------------------------

def constant_wave(n, a=1.0):
    return build_damped_wave_interval(n, np.pi, DampingProfile("constant", amplitude=a))


CLOSED_FORM_MODELS = {
    "interval_50": lambda: constant_wave(50),
    "interval_200": lambda: constant_wave(200),
    "boundary_120": lambda: build_boundary_forced_wave(
        120, np.pi, DampingProfile("constant", amplitude=1.0)),
    "overdamped_50": lambda: constant_wave(50, 5.0),
}


def constant_circle(n, a=1.0):
    return build_damped_wave_circle(n, DampingProfile("constant", amplitude=a))


# each nonzero circle mode is double (sine and cosine), so LAPACK's cond
# depends on its basis inside each pair and is not compared on these
CIRCLE_CLOSED_FORM_MODELS = {
    f"circle_{n}_a{a:g}": functools.partial(constant_circle, n, a)
    for n in (24, 96) for a in (1.0, 5.0)
}


def eig_route(model):
    """The general factorization: LAPACK eig, inv and cond of the real basis,
    as ``Model.deflated_eig`` computes it for every other model."""
    w, V, first = _eig(model.deflated[0])
    return w, V, np.linalg.inv(V), np.linalg.cond(_real_columns(V, first, np.sqrt(2.0)))


def on_eig_route(make):
    model = make()
    model.__dict__["deflated_eig"] = eig_route(model)
    return model


def sine_series_propagator(n, a, t):
    """e^{tA} of the interval wave on (0, pi) from the exact eigenpairs of
    the 3-point Dirichlet Laplacian, mu_k = -(4/h^2) sin^2(k h/2) with sine
    eigenvectors, and the 2 x 2 exponential of each mode's
    [[0, 1], [mu, -a]] = -a/2 + N, N^2 = -b^2: e^{tN} = cos(bt) + sin(bt) N / b."""
    h = np.pi / (n + 1)
    k = np.arange(1, n + 1)
    mu = -(4 / h**2) * np.sin(k * h / 2) ** 2
    U = np.sqrt(2 / (n + 1)) * np.sin(np.outer(k, k) * h)
    b = np.sqrt(-(mu + a * a / 4) + 0j)
    c = (np.exp(-a * t / 2) * np.cos(b * t)).real
    s = (np.exp(-a * t / 2) * np.sin(b * t) / b).real
    return np.block([[(U * (c + a / 2 * s)) @ U.T, (U * s) @ U.T],
                     [(U * (mu * s)) @ U.T, (U * (c - a / 2 * s)) @ U.T]])


def sorted_spectrum(w):
    """w by real part, rounded to 1e-9 max|w| so that round-off ties, then
    by imaginary part; LAPACK may split a double real eigenvalue into a
    pair with imaginary parts of order eps."""
    key = np.round(w.real / (1e-9 * np.abs(w).max()))
    return w[np.lexsort((w.imag, key))]


@pytest.mark.parametrize("make", [*CLOSED_FORM_MODELS.values(),
                                  *CIRCLE_CLOSED_FORM_MODELS.values()],
                         ids=[*CLOSED_FORM_MODELS, *CIRCLE_CLOSED_FORM_MODELS])
def test_closed_form_factor_matches_the_eig_route(make, rng):
    """On the deflated block: the circle's kernel root is dropped, and its
    factor enters through the QR basis Q as (Q* V, Vinv Q)."""
    model, reference = make(), on_eig_route(make)
    assert _damped_wave_eig(model.A, len(model.kernel_basis)) is not None
    A_r = model.deflated[0]
    w, V, Vinv, cond = model.deflated_eig
    w_ref, *_, cond_ref = reference.deflated_eig
    assert len(w) == model.dim - len(model.kernel_basis)
    scale = np.abs(w).max()
    assert np.abs(sorted_spectrum(w) - sorted_spectrum(w_ref)).max() <= 1e-13 * scale
    assert np.linalg.norm(A_r @ V - V * w) <= 1e-15 * np.linalg.norm(A_r)
    assert np.abs(Vinv @ V - np.eye(len(w))).max() <= 1e-13
    first = _conjugate_pairs(w)
    assert first is not None and model.real_eig is not None
    assert np.all(w[first].imag > 0)
    assert cond == pytest.approx(np.linalg.cond(_real_columns(V, first, np.sqrt(2.0))),
                                 rel=1e-12)
    if not model.has_kernel:
        assert cond == pytest.approx(cond_ref, rel=1e-12)
    rhs = rng.standard_normal((5, model.dim)) + 1j * rng.standard_normal((5, model.dim))
    X = harmonic_solve(model, np.arange(-2, 3), 2.0, rhs)
    X_ref = harmonic_solve(reference, np.arange(-2, 3), 2.0, rhs)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)


@pytest.mark.parametrize("make", CLOSED_FORM_MODELS.values(), ids=CLOSED_FORM_MODELS)
@pytest.mark.parametrize("t", [0.3, 1.0, 7.0])
def test_closed_form_propagator_matches_the_sine_series(make, t):
    """Within 1e-12 of the exact propagator (measured <= 3.1e-13). The eig
    route is itself up to 9.7e-12 from it (n = 200, t = 7), so the two
    routes are compared at 2e-11."""
    model = make()
    n, a = model.dim // 2, -model.A[-1, -1].real
    exact = sine_series_propagator(n, a, t)
    P = propagator_matrix(model, t)
    assert P.dtype == np.float64
    assert np.linalg.norm(P - exact) <= 1e-12 * np.linalg.norm(exact)
    P_ref = propagator_matrix(on_eig_route(make), t)
    assert np.linalg.norm(P - P_ref) <= 2e-11 * np.linalg.norm(P_ref)


def test_overdamped_modes_get_real_eigenvalue_pairs():
    """a = 5 on (0, pi): a^2/4 + mu_k > 0 for k = 1, 2, so four real roots."""
    model = constant_wave(50, 5.0)
    w = model.deflated_eig[0]
    real = w[w.imag == 0].real
    mu = -(4 / (np.pi / 51) ** 2) * np.sin(np.arange(1, 3) * np.pi / 102) ** 2
    expected = -2.5 + np.r_[1, -1][:, None] * np.sqrt(6.25 + mu)
    # eigh's mu carry an absolute error of order eps |L| = 2.4e-13
    assert_allclose(np.sort(real), np.sort(expected.ravel()), rtol=0, atol=1e-12)
    assert model.real_eig is not None
    assert propagator_matrix(model, 0.4).dtype == np.float64


def exactly_critical_model():
    """[[0, I], [diag(-1, -4), -2 I]]: mode 1 is a Jordan block at -1."""
    A = np.block([[np.zeros((2, 2)), np.eye(2)], [np.diag([-1.0, -4.0]), -2 * np.eye(2)]])
    return build_model(make_state_space(4, np.eye(4)), A)


def builder_critical_model():
    """The interval wave at critical damping a = 2 sqrt(-mu_1) of its lowest
    mode, mu_1 from the builder's Laplacian."""
    n = 50
    mu_1 = np.linalg.eigvalsh(constant_wave(n).A.real[n:, :n])[-1]
    return constant_wave(n, 2 * np.sqrt(-mu_1))


@pytest.mark.parametrize("make, takes_expm", [(builder_critical_model, False),
                                              (exactly_critical_model, True)],
                         ids=["builder", "exact"])
def test_critical_damping_declines_to_the_eig_route(make, takes_expm, monkeypatch):
    """Both decline on the discriminant. LAPACK's cond(V) is then 7e6 on the
    builder's model (the eig path) and 2e16 on the Jordan block (expm)."""
    model = make()
    assert _damped_wave_eig(model.A) is None
    w, V, Vinv, cond = model.deflated_eig
    w_ref, V_ref, Vinv_ref, cond_ref = eig_route(model)
    for got, ref in ((w, w_ref), (V, V_ref), (Vinv, Vinv_ref)):
        assert_array_equal(got, ref)
    assert cond == cond_ref
    calls = []
    original = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda M: calls.append(M) or original(M))
    P = propagator_matrix(model, 0.7)
    assert (cond > EIG_COND_LIMIT) == takes_expm
    assert len(calls) == takes_expm
    if takes_expm:
        assert_array_equal(P, original(model.A * 0.7))


@pytest.mark.parametrize("name", ["interval_periodic", "boundary_wave", "gain_interval",
                                  "picard_cubic", "convergence", "circle_kernel",
                                  "circle_obstruction", "circle_spectrum"])
def test_shipped_constant_damping_configs_take_the_closed_form(config_dir, name,
                                                               monkeypatch):
    """A config edit that moves one of these off the closed form fails here;
    the circles' deflation basis takes one QR and no SVD."""
    cfg = json.loads((config_dir / f"{name}.json").read_text())
    model = cli.build_bundle(cfg).model
    calls = Counter()
    for fn in ("eig", "inv", "svd", "cond"):
        original = getattr(np.linalg, fn)
        monkeypatch.setattr(np.linalg, fn, lambda *args, _fn=fn, _original=original,
                            **kwargs: calls.update([_fn]) or _original(*args, **kwargs))
    assert model.deflated_eig[3] <= EIG_COND_LIMIT
    assert not calls


def second_order(mu, a=1.0):
    n = len(mu)
    return np.block([[np.zeros((n, n)), np.eye(n)], [np.diag(mu), -a * np.eye(n)]])


@pytest.mark.parametrize("mu, kernel_dim", [([0.0, -1.0, -4.0], 1),
                                            ([0.0, 0.0, -1.0, -4.0], 2),
                                            ([-1e-15, -1.0, -4.0], 0)],
                         ids=["one", "two", "near_zero"])
def test_closed_form_declines_when_the_zero_roots_are_not_the_kernel(mu, kernel_dim):
    """The closed form takes a kernel only when exactly r modes have mu zero
    to round-off; mu = -1e-15 lies in the band n eps (a^2/4 + max|mu|)."""
    A = second_order(mu)
    r = np.count_nonzero(np.abs(mu) < 1e-14)
    for k in range(3):
        assert (_damped_wave_eig(A, k) is None) == (k != r)
    space = make_state_space(len(A), np.eye(len(A)))
    kernel = tuple(np.eye(len(A))[:kernel_dim])
    model = build_model(space, A, kernel_basis=kernel)
    w, V, Vinv, cond = model.deflated_eig
    if kernel_dim != r:
        w_ref, V_ref, Vinv_ref, cond_ref = eig_route(model)
        for got, ref in ((w, w_ref), (V, V_ref), (Vinv, Vinv_ref)):
            assert_array_equal(got, ref)
        assert cond == cond_ref
    else:
        assert np.all(w != 0) and len(w) == len(A) - r
        assert_allclose(sorted_spectrum(w), sorted_spectrum(eig_route(model)[0]),
                        rtol=0, atol=1e-14)
