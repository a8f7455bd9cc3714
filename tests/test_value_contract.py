"""One value contract.  Each argument rule of ``algebra`` returns the value it
accepted as the one type the package computes with, a Python ``int`` or
``float`` (a real array as float64), and every frozen type stores only
those values and read-only float64 or complex128 copies of its arrays.  So
a numpy scalar argument gives, bit for bit, the result of the Python number
it holds: a float32 omega is no longer computed in single precision."""

import math

import numpy as np
import pytest

from iwqm import coherent, dynamics, eigenfunctions, expressions, quadrature
from iwqm.algebra import (KET, _require_finite, _require_integer, _require_positive,
                          _require_real)
from iwqm.verify import RunConfig

F32, F64, I64 = np.float32, np.float64, np.int64


def _python(arg):
    """The Python number a numpy scalar holds, ``float(arg)`` or ``int(arg)``."""
    return arg.item() if isinstance(arg, np.generic) else arg


def _bits(result):
    """A comparable record of ``result`` that differs wherever a bit or a type does."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (dynamics.Trajectory, dynamics.GridState)):
        fields = vars(result).items()
        return type(result).__name__, [(name, _bits(value)) for name, value in fields]
    if isinstance(result, (int, float, complex)):
        return type(result).__name__, repr(result)
    return type(result).__name__, sorted((word, repr(c)) for word, c in result.items())


def _grid(v, omega, t_final, dt, steps):
    return dynamics.grid_split_step(dynamics.gaussian_packet(v, omega, t_final), dt, steps)


NUMPY_SCALAR_CALLS = [
    ("classical_orbit_float32", dynamics.classical_orbit, (F32(0.5), F32(1.3), 1, F32(0.7))),
    ("classical_orbit_float64", dynamics.classical_orbit, (F64(0.5), F64(1.3), 1, F64(0.7))),
    ("classical_orbit_int64", dynamics.classical_orbit, (I64(2), I64(3), I64(-1), I64(1))),
    ("propagate_fock_float32", dynamics.propagate_fock, (KET, I64(3), F32(1.3), F32(0.7))),
    ("propagate_fock_int64", dynamics.propagate_fock, (KET, I64(3), I64(2), I64(1))),
    ("schrodinger_residual_float32", dynamics.schrodinger_residual,
     (KET, I64(2), F32(1.3), F32(1e-3))),
    ("schrodinger_residual_float64", dynamics.schrodinger_residual,
     (KET, I64(2), F64(1.3), F64(1e-3))),
    ("step_count_float32", dynamics.step_count, (F32(1.3), F32(0.01))),
    ("step_count_int64", dynamics.step_count, (I64(3), I64(1))),
    ("integrate_alpha_float32", dynamics.integrate_alpha,
     (F32(0.5), F32(1.3), F32(1.0), F32(1e-3), F32(1e-6))),
    ("integrate_alpha_float64", dynamics.integrate_alpha,
     (F64(0.5), F64(1.3), F64(1.0), F64(1e-3), F64(1e-6))),
    ("hamiltonian_expression_float32", expressions.hamiltonian_expression, (F32(1.3),)),
    ("hamiltonian_expression_int64", expressions.hamiltonian_expression, (I64(3),)),
    ("grid_float32", _grid, (F32(0.5), F32(1.3), F32(0.3), F32(1e-3), I64(200))),
    ("grid_float64", _grid, (F64(0.5), F64(1.3), F64(0.3), F64(1e-3), I64(200))),
    ("grid_state_float32", dynamics.GridState,
     (F32(-2.5), F32(3.0), I64(8), np.ones(8), F32(1.3))),
    ("grid_state_int64", dynamics.GridState, (I64(-2), I64(3), I64(8), np.ones(8), I64(2))),
]


@pytest.mark.parametrize("call, args", [(call, args) for _, call, args in NUMPY_SCALAR_CALLS],
                         ids=[name for name, _, _ in NUMPY_SCALAR_CALLS])
def test_numpy_scalars_give_the_result_of_the_python_numbers(call, args):
    assert _bits(call(*args)) == _bits(call(*map(_python, args)))


def test_a_float32_omega_keeps_the_split_step_at_double_precision():
    omega = F32(1.3)
    errors = []
    for w in (omega, float(omega)):
        dt = 1e-3 / float(omega)
        run = dynamics.grid_split_step(dynamics.gaussian_packet(0.5, w), dt, 1500)
        exact = dynamics.classical_orbit(0.5, w, 1, run.times)
        window = run.times * float(omega) >= 0.1
        errors.append(np.max(np.abs(run.values.real[window] - exact[window])
                             / np.abs(exact[window])))
    assert errors[0] == errors[1] < 1e-12


SCALAR_RULES = [
    ("real_float32", _require_real, F32(1.3), float(F32(1.3))),
    ("real_bool", _require_real, True, 1.0),
    ("real_0d_int", _require_real, np.array(2), 2.0),
    ("real_huge_int", _require_real, 10 ** 400, math.inf),
    ("real_huge_negative_int", _require_real, -10 ** 400, -math.inf),
    ("positive_int64", _require_positive, I64(3), 3.0),
    ("finite_float64", _require_finite, F64(-0.5), -0.5),
    ("integer_int64", _require_integer, I64(5), 5),
    ("integer_uint8", _require_integer, np.uint8(5), 5),
]


@pytest.mark.parametrize("rule, value, expected", [case[1:] for case in SCALAR_RULES],
                         ids=[case[0] for case in SCALAR_RULES])
def test_scalar_rules_return_python_numbers(rule, value, expected):
    result = rule("x", value)
    assert type(result) is type(expected) and result == expected


def test_array_rules_return_float64_arrays_and_integer_arrays_as_given():
    levels = [0, 2]
    assert _require_integer("n", levels, arrays=True) is levels
    for rule in (_require_real, _require_finite):
        result = rule("t", np.arange(3, dtype=np.float32), arrays=True)
        assert result.dtype == np.float64 and result.tolist() == [0.0, 1.0, 2.0]
        assert type(rule("t", np.array(0.5), arrays=True)) is float
        with pytest.raises(ValueError, match="^t must be a real number, got"):
            rule("t", [0.0, 1.0])  # scalar-only by default


def test_a_float64_array_is_checked_without_a_copy():
    x = np.linspace(-1.0, 1.0, 5)
    assert _require_real("x", x, arrays=True) is x


FROZEN = [
    ("coherent_state_batch", coherent.CoherentState,
     (KET, np.array([0.5, 1j]), np.ones((2, 8)))),
    ("coherent_state_label", coherent.CoherentState,
     (KET, np.complex64(0.5), np.ones(8, dtype=np.float32))),
    ("trajectory", dynamics.Trajectory,
     (np.arange(3, dtype=np.float32), np.ones(3, dtype=np.int64))),
    ("trajectory_float64", dynamics.Trajectory, (np.arange(3.0), np.ones(3, dtype=complex))),
    ("grid_state", dynamics.GridState, (F32(-1.0), F32(1.0), I64(8), np.ones(8), F32(2.0))),
    ("grid_state_complex", dynamics.GridState, (-1.0, 1.0, 8, np.ones(8, dtype=complex), 2.0)),
    ("contour_quadrature", quadrature.ContourQuadrature,
     (np.ones(3), np.ones(3, dtype=complex))),
    ("eigenfunction", eigenfunctions.Eigenfunction, (KET, I64(3))),
    ("run_config", RunConfig, (I64(16), F32(0.5), np.uint8(1))),
]


@pytest.mark.parametrize("build, args", [(build, args) for _, build, args in FROZEN],
                         ids=[name for name, _, _ in FROZEN])
def test_frozen_types_store_python_scalars_and_read_only_copies(build, args):
    stored = vars(build(*args))
    for name, value in stored.items():
        if isinstance(value, np.ndarray):
            assert value.dtype in (np.float64, np.complex128), name
            assert not value.flags.writeable, name
        else:
            assert type(value) in (str, int, float, complex), (name, type(value))
    for arg in args:
        if isinstance(arg, np.ndarray):
            assert arg.flags.writeable
            assert not any(np.shares_memory(arg, value) for value in stored.values()
                           if isinstance(value, np.ndarray))
