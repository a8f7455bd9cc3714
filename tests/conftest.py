"""Shared fixtures."""

import math
import os
import resource
import subprocess
import sys
from itertools import count, islice
from pathlib import Path

import numpy as np
import pytest

import iwqm
from iwqm.verify import MAX_NMAX, MAX_OMEGA, MAX_OMEGA_SQRT_NMAX, MIN_OMEGA

#: Address-space cap for child processes that must stay in O(nmax) memory: a
#: dense 100000 x 100000 matrix needs 74.5 GiB, so an attempt fails at once
#: with MemoryError instead of straining the host.
ADDRESS_SPACE_CAP = 4 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.fixture
def run_capped():
    """Run ``python ARGS...`` under ``ADDRESS_SPACE_CAP``; returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(Path(iwqm.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=env, preexec_fn=_cap_address_space,
                              capture_output=True, text=True, timeout=120)
    return run


def _normalized_levels(z, start):
    """The plain normalized recurrence, one fresh array per level."""
    prev, cur = 0.0, start
    for n in count():
        yield cur
        prev, cur = cur, math.sqrt(2.0 / (n + 1)) * z * cur - math.sqrt(n / (n + 1)) * prev


def _scaled_levels(z, start):
    """The monic recurrence with the normalization as a scalar, one fresh array
    per level: the operations and folds of ``hermite_levels``, allocating."""
    prev, cur, scale = np.zeros_like(start), start, 1.0
    for n in count():
        yield scale, cur
        scale *= math.sqrt(2.0 / (n + 1))
        if scale < 1.0:
            cur, prev, scale = cur * 2.0 ** -64, prev * 2.0 ** -64, scale * 2.0 ** 64
        prev, cur = cur, z * cur - (0.5 * n) * prev


@pytest.fixture
def reference_levels():
    """levels(z, start, number): the first ``number`` levels scale * q, stacked.

    The allocating form of the scaled recurrence: the reference for the
    in-place ``eigenfunctions.hermite_levels``, which must agree with it bit
    for bit.
    """
    def levels(z: np.ndarray, start: np.ndarray, number: int) -> np.ndarray:
        return np.array([scale * q for scale, q in islice(_scaled_levels(z, start), number)])
    return levels


@pytest.fixture
def scaled_levels():
    """The generator behind ``reference_levels``, levels(z, start), yielding
    (scale, q): for references on grids too large to stack 65 levels."""
    return _scaled_levels


@pytest.fixture
def normalized_levels():
    """The generator of the plain normalized recurrence, levels(z, start):
    an independent accuracy reference for the scaled one."""
    return _normalized_levels


@pytest.fixture(scope="session")
def dense_ladder():
    """ladder(dim, dtype=complex) -> (lowering, raising): the truncated dense
    generators, entry sqrt(n) at (n-1, n) and at (n, n-1), built here from
    np.sqrt(np.arange(1, dim)) as a reference independent of the package.
    ``dtype=np.clongdouble`` gives a reference whose rounding sits far below
    the float64 tolerances."""
    def ladder(dim: int, dtype=complex) -> tuple[np.ndarray, np.ndarray]:
        root = np.sqrt(np.arange(1, dim).astype(dtype))
        return np.diag(root, 1), np.diag(root, -1)
    return ladder


@pytest.fixture(scope="session")
def region_points() -> list[tuple[float, int]]:
    """The (omega, nmax) points of verify's region gate: the region's corners,
    points on the product edge up to nmax 90000, and seeded log-uniform
    points inside: omega over the whole range and over [0.01, 100], where
    the product edge lies below the nmax cap, then nmax from 4 to the
    largest at that omega (capped at the nmax cap)."""
    edges = [(MIN_OMEGA, 4), (MIN_OMEGA, MAX_NMAX), (MAX_OMEGA, 4), (MAX_OMEGA, 900),
             (30.0, 10_000), (10.0, 90_000), (3e3 / math.sqrt(2_000), 2_000)]
    rng = np.random.default_rng(2023)
    inside = []
    for low in (MIN_OMEGA, 0.01):
        log_omegas = rng.uniform(math.log(low), math.log(MAX_OMEGA), 16)
        for omega in np.exp(log_omegas):
            root = min(MAX_OMEGA_SQRT_NMAX / omega, math.sqrt(MAX_NMAX))
            nmax = int(math.exp(rng.uniform(math.log(4), 2 * math.log(root))))
            inside.append((float(omega), nmax))
    return edges + inside
