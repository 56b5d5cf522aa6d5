"""Shared harmonic solves and batched propagation against reference paths.

The closed-form Duhamel response and harmonic balance solve every
harmonic in one eigenbasis of the deflated block, or by one batched dense
solve when that basis is ill conditioned. Here both paths are compared
with an in-test oracle that takes one dense solve per harmonic.
The batched eigen-basis contractions are checked on their expm fallback
against scipy.linalg.expm references.
"""

import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla

from semiper import cli, operator_core
from semiper.errors import ResonantHarmonic
from semiper.forcing import (
    FourierForcing,
    admissibility_constant,
    control_duhamel,
    duhamel_FT,
    duhamel_quadrature,
    gauss_panels,
    make_fourier_forcing,
)
from semiper.models import (
    DampingProfile,
    build_damped_wave_circle,
    build_damped_wave_interval,
    build_diagonal_model,
    build_heat_wave_1d,
)
from semiper.operator_core import (
    EIG_COND_LIMIT,
    fractional_power,
    harmonic_solve,
    propagate,
    propagator_matrix,
)
from semiper.periodic_solver import (
    periodic_w0_direct,
    periodic_w0_harmonic_balance,
    periodic_w0_series,
)

from conftest import gram_sqrt


def _oracle_closed_form(model, f):
    """F_T with one dense solve per harmonic on the deflated block."""
    T = f.period
    A_r, Q = model.deflated
    n = A_r.shape[0]
    mono = propagator_matrix(model, T)
    P = np.eye(model.dim) - model.pi0
    mono_r = mono if Q is None else Q.conj().T @ mono @ Q
    acc = np.zeros(model.dim, dtype=complex)
    for k, c in zip(f.harmonics, f.coefficients):
        om = 2.0 * np.pi * k / T
        c_r = c if Q is None else Q.conj().T @ (P @ c)
        x = np.linalg.solve(1j * om * np.eye(n) - A_r, c_r - mono_r @ c_r)
        acc += x if Q is None else Q @ x
        if Q is not None and k == 0:
            acc += T * (model.pi0 @ c)
    return acc


def _oracle_harmonic_balance(model, f):
    """Periodic start w0 = sum_k (i omega_k - A)^{-1} c_k, one solve per harmonic."""
    A_r, Q = model.deflated
    n = A_r.shape[0]
    P = np.eye(model.dim) - model.pi0
    w0 = np.zeros(model.dim, dtype=complex)
    for k, c in zip(f.harmonics, f.coefficients):
        om = 2.0 * np.pi * k / f.period
        c_r = c if Q is None else Q.conj().T @ (P @ c)
        x = np.linalg.solve(1j * om * np.eye(n) - A_r, c_r)
        w0 += x if Q is None else Q @ x
    return w0 - model.pi0 @ w0


def _random_real_forcing(model, kmax, rng, period=1.0, kernel_free_mean=True):
    """A real-valued forcing with harmonics -kmax..kmax.

    Harmonic balance needs a mean without kernel component; the closed
    form takes any mean and grows linearly along the kernel.
    """
    half = rng.standard_normal((kmax, model.dim)) + 1j * rng.standard_normal((kmax, model.dim))
    mean = rng.standard_normal(model.dim)
    if kernel_free_mean:
        mean = mean - (model.pi0 @ mean).real
    coeffs = {0: mean}
    for k in range(1, kmax + 1):
        coeffs[k] = half[k - 1] / k
        coeffs[-k] = np.conj(half[k - 1]) / k
    return make_fourier_forcing(period, coeffs, model.space)


MODELS = {
    "interval_n60": lambda: build_damped_wave_interval(
        60, math.pi, DampingProfile("constant", amplitude=1.0)),
    "circle_kernel": lambda: build_damped_wave_circle(
        96, DampingProfile("constant", amplitude=1.0)),
    "heatwave_32_32": lambda: build_heat_wave_1d(32, 32),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_schur_solves_match_per_harmonic_oracle(name):
    model = MODELS[name]()
    norm = model.space.norm

    f = _random_real_forcing(model, 32, np.random.default_rng(11), kernel_free_mean=False)
    FT = duhamel_FT(model, f)
    ref = _oracle_closed_form(model, f)
    assert norm(FT - ref) <= 1e-11 * norm(ref)

    f = _random_real_forcing(model, 32, np.random.default_rng(11))
    w0 = periodic_w0_harmonic_balance(model, f).w0
    ref_w0 = _oracle_harmonic_balance(model, f)
    assert norm(w0 - ref_w0) <= 1e-11 * norm(ref_w0)


def test_gain_heatwave_order_three_error_pinned(config_dir, tmp_path):
    """The refinement step keeps the k = 3 gain identity near its parent error."""
    cli.run(config_dir / "gain_heatwave.json", out_dir=tmp_path)
    gain = json.loads((tmp_path / "gain.json").read_text())
    assert gain["errors"]["3"] <= 1e-7


# ---------------------------------------------------------------------------
# resonance detection
# ---------------------------------------------------------------------------

def test_resonant_harmonic_names_first_offender():
    """Eigenvalues at 3 * 2 pi i and -2 pi i: k = -1 comes first in order."""
    T = 1.0
    model = build_diagonal_model([-1.0, 3j * 2 * np.pi / T, -1j * 2 * np.pi / T])
    coeffs = {k: np.ones(3) for k in (-3, -1, 0, 1, 3)}
    f = make_fourier_forcing(T, coeffs, model.space)
    with pytest.raises(ResonantHarmonic, match=r"harmonic k=-1 hits"):
        duhamel_FT(model, f)
    with pytest.raises(ResonantHarmonic, match=r"harmonic k=-1 hits"):
        periodic_w0_harmonic_balance(model, f)
    safe = make_fourier_forcing(T, {k: coeffs[k] for k in (0, 1, 3)}, model.space)
    with pytest.raises(ResonantHarmonic, match=r"harmonic k=3 hits"):
        duhamel_FT(model, safe)


# ---------------------------------------------------------------------------
# expm fallback of the batched contractions
# ---------------------------------------------------------------------------

@pytest.fixture
def counted_propagator(monkeypatch):
    calls = []
    original = operator_core.propagator_matrix

    def counting(model, t):
        calls.append(t)
        return original(model, t)

    monkeypatch.setattr(operator_core, "propagator_matrix", counting)
    return calls


def test_near_defective_fixture_takes_expm_path(near_defective):
    _, V = np.linalg.eig(near_defective.A)
    assert np.linalg.cond(V) > EIG_COND_LIMIT
    assert near_defective.deflated_eig[3] > EIG_COND_LIMIT


def _harmonic_solve_against_oracle(model, monkeypatch):
    """harmonic_solve on random data next to one dense solve per harmonic.

    Returns the number of Schur-form builds it took and the refined
    residual of each row relative to its right-hand side.
    """
    schur_calls = []
    original = sla.schur
    monkeypatch.setattr(sla, "schur", lambda *a, **k: schur_calls.append(a) or original(*a, **k))
    A_r = model.deflated[0]
    n = A_r.shape[0]
    harmonics, T = np.arange(-8, 9), 1.0
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((harmonics.size, n)) + 1j * rng.standard_normal((harmonics.size, n))
    X = harmonic_solve(model, harmonics, T, rhs)
    shifts = 2j * np.pi * harmonics / T
    for s, b, x in zip(shifts, rhs, X):
        ref = np.linalg.solve(s * np.eye(n) - A_r, b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    residual = rhs - (shifts[:, None] * X - X @ A_r.T)
    rel_res = np.linalg.norm(residual, axis=1) / np.linalg.norm(rhs, axis=1)
    return len(schur_calls), rel_res


def test_harmonic_solve_takes_and_returns_states():
    """On the constant circle, whose kernel is the constant displacement,
    the rows are states with no kernel component that solve the full
    system against the projected right-hand side."""
    model = build_damped_wave_circle(16, DampingProfile("constant", amplitude=0.7))
    assert model.has_kernel
    harmonics, T = np.arange(-3, 4), 2.0
    rng = np.random.default_rng(11)
    rhs = (rng.standard_normal((harmonics.size, model.dim))
           + 1j * rng.standard_normal((harmonics.size, model.dim)))
    X = harmonic_solve(model, harmonics, T, rhs)
    assert X.shape == rhs.shape
    P = np.eye(model.dim) - model.pi0
    scale = np.linalg.norm(X, axis=1)
    assert np.all(np.linalg.norm(X @ model.pi0.T, axis=1) <= 1e-13 * scale)
    for k, b, x in zip(harmonics, rhs, X):
        lhs = 2j * np.pi * k / T * x - model.A @ x
        assert np.linalg.norm(lhs - P @ b) <= 1e-12 * np.linalg.norm(P @ b)


def test_harmonic_solve_schur_fallback_matches_dense_oracle(near_defective, monkeypatch):
    """The fallback is a batched dense solve: no Schur form is built."""
    schur_calls, _ = _harmonic_solve_against_oracle(near_defective, monkeypatch)
    assert schur_calls == 0


def test_harmonic_solve_eig_path_matches_dense_oracle(monkeypatch):
    model = build_heat_wave_1d(48, 48)
    schur_calls, rel_res = _harmonic_solve_against_oracle(model, monkeypatch)
    assert schur_calls == 0
    assert rel_res.max() <= 1e-12


def test_admissibility_constant_fallback_matches_expm(near_defective, counted_propagator):
    T, panels, order = 1.5, 6, 6
    value = admissibility_constant(near_defective, T, panels=panels, order=order)
    assert len(counted_propagator) == panels * order
    nodes, weights = gauss_panels(T, panels, order)
    A = near_defective.A
    cols = np.stack([math.sqrt(w) * (sla.expm(A * (T - s)) @ near_defective.B[:, 0])
                     for s, w in zip(nodes, weights)], axis=1)
    ref = np.linalg.norm(gram_sqrt(near_defective.space.gram) @ cols, 2)
    assert value == pytest.approx(ref, rel=1e-12)


def test_batched_propagate_fallback_matches_expm(near_defective, counted_propagator):
    """An array of times on the expm path takes one propagator_matrix per
    distinct time, and each column is expm(tA) x."""
    ts = np.array([0.5, 1.0, 0.5, -0.2, 1.0])
    x = np.array([1.0, -0.5, 0.25])
    out = propagate(near_defective, ts, x)
    assert sorted(counted_propagator) == [-0.2, 0.5, 1.0]
    for t, col in zip(ts, out.T):
        ref = sla.expm(near_defective.A * t) @ x
        assert np.linalg.norm(col - ref) <= 1e-12 * np.linalg.norm(ref)


def test_quadrature_sums_fallback_match_expm(near_defective, counted_propagator,
                                             monkeypatch):
    T = 1.0
    A = near_defective.A
    vec = np.array([1.0, -0.5, 0.25])
    f = make_fourier_forcing(T, {-1: 0.5 * vec, 0: vec, 1: 0.5 * vec},
                             near_defective.space)

    def integrand(s):
        return sla.expm(A * (T - s)) @ f.eval(s)

    ref, _ = scipy.integrate.quad_vec(integrand, 0.0, T, epsabs=1e-13, epsrel=1e-13)
    FT, _ = duhamel_quadrature(near_defective, f)
    assert counted_propagator
    assert np.linalg.norm(FT - ref) <= 1e-10 * np.linalg.norm(ref)

    # the boundary response is the closed form of B g, on the dense-solve
    # fallback, which builds no Schur form
    schur_calls = []
    original = sla.schur
    monkeypatch.setattr(sla, "schur", lambda *a, **k: schur_calls.append(a) or original(*a, **k))
    g = FourierForcing(T, [0, 1, -1], np.array([[1.0], [0.25], [0.25]]))
    Phi = control_duhamel(near_defective, g)
    assert not schur_calls
    ref_phi, _ = scipy.integrate.quad_vec(
        lambda s: sla.expm(A * (T - s)) @ (near_defective.B[:, 0] * g.eval(s)[0]),
        0.0, T, epsabs=1e-13, epsrel=1e-13)
    assert np.linalg.norm(Phi - ref_phi) <= 1e-10 * np.linalg.norm(ref_phi)


def test_periodic_solvers_fallback_match_expm(near_defective, monkeypatch):
    """Series, direct and harmonic balance on the expm path agree with a dense reference."""
    T = 1.0
    A = near_defective.A
    vec = np.array([1.0, -0.5, 0.25])
    f = make_fourier_forcing(T, {-1: 0.5j * vec, 0: vec, 1: -0.5j * vec},
                             near_defective.space)
    FT_ref, _ = scipy.integrate.quad_vec(lambda s: sla.expm(A * (T - s)) @ f.eval(s),
                                         0.0, T, epsabs=1e-13, epsrel=1e-13)
    ref = np.linalg.solve(np.eye(3) - sla.expm(T * A), FT_ref)

    expm_calls = []
    original = sla.expm
    monkeypatch.setattr(sla, "expm", lambda M: expm_calls.append(M) or original(M))
    for solver in (periodic_w0_series, periodic_w0_direct, periodic_w0_harmonic_balance):
        expm_calls.clear()
        w0 = solver(near_defective, f).w0
        assert expm_calls, solver.__name__
        assert np.linalg.norm(w0 - ref) <= 1e-9 * np.linalg.norm(ref), solver.__name__


def test_fractional_power_fallback_squares_to_minus_a(near_defective, monkeypatch):
    calls = []
    original = sla.fractional_matrix_power

    def counting(M, alpha):
        calls.append(alpha)
        return original(M, alpha)

    monkeypatch.setattr(sla, "fractional_matrix_power", counting)
    F = fractional_power(near_defective, 0.5)
    assert calls == [0.5]
    minus_A = -near_defective.A
    assert np.linalg.norm(F @ F - minus_A) <= 1e-10 * np.linalg.norm(minus_A)
