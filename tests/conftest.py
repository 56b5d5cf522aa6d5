"""Shared fixtures for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from semiper.operator_core import build_model, make_state_space

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


def gram_sqrt(G):
    """The Hermitian square root G^{1/2} of a positive definite G, from one
    eigh: an oracle for norms that the package reads through the
    Cholesky factor R = U G^{1/2}, U unitary."""
    vals, vecs = np.linalg.eigh(G)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def reduced_gram(model):
    """The reduced Gram G_r = Q* G Q of the deflated block, formed from the
    state Gram as an oracle (the package reads it only through a factor)."""
    _, Q = model.deflated
    G = model.space.gram
    return G if Q is None else Q.conj().T @ G @ Q


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture
def near_defective():
    """A nearly defective 3x3 generator whose eigenvector basis has cond > 1e8."""
    A = np.array([[-1.0, 1.0, 0.0],
                  [0.0, -1.0 - 1e-10, 0.5],
                  [0.0, 0.0, -2.0]])
    space = make_state_space(3, np.diag([1.0, 2.0, 0.5]))
    return build_model(space, A, B=np.array([0.0, 0.3, 1.0]), label="near_defective")
