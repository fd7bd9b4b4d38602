"""Property tests of theta11 and the Kronecker function, and an mpmath oracle.

Both third-party libraries are optional test dependencies (the ``test``
extra); each test is skipped when its library is missing.
"""

import cmath
import math

import numpy as np
import pytest

from aybe.errors import PoleProximityError
from aybe.special import (
    _theta_raw,
    _theta_raw_grid,
    kronecker_F,
    lattice_distance,
    modular_param,
    split_lattice,
    theta11,
)

TWO_PI_I = 2j * math.pi

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    tau_re=st.floats(-0.5, 0.5),
    tau_im=st.floats(0.05, 2.0),
    u_re=st.floats(-0.5, 0.5),
    u_height=st.floats(-30.0, 30.0),
    v_re=st.floats(-0.5, 0.5),
    v_height=st.floats(-0.45, 0.45),
)
def test_theta_and_kronecker_scalar_array_and_quasi_periodicity(
    tau_re, tau_im, u_re, u_height, v_re, v_height
):
    # |Im u| up to 30*Im tau, Im tau down to 0.05
    tau = complex(tau_re, tau_im)
    m = modular_param(tau)
    u = complex(u_re, 0.0) + u_height * tau
    v = complex(v_re, 0.0) + v_height * tau

    u0, _, _ = split_lattice(u, tau)
    (point,) = _theta_raw(u0, tau, (0,))
    (grid,) = _theta_raw_grid(np.array([u0]), tau)
    assert abs(grid - point) <= 1e-13 * abs(point)

    hypothesis.assume(
        min(lattice_distance(z, tau) for z in (u, v, u + v, u + tau, u + tau + v))
        > 0.05 * min(1.0, tau_im)
    )
    f = kronecker_F(u, v, m)
    f_grid = kronecker_F(np.array([u]), v, m)[0]
    assert abs(f_grid - f) <= 1e-13 * abs(f)
    # Near the origin theta11 is small against the terms of its series, and
    # this cancellation costs F relative accuracy like 1/Im(tau)^2 (measured
    # worst: 1.4e-12 at Im tau = 1, 2.4e-10 at Im tau = 0.06).
    tol = 1e-11 / min(1.0, tau_im) ** 2
    assert abs(kronecker_F(u + 1.0, v, m) - f) <= tol * abs(f)
    expected = cmath.exp(-TWO_PI_I * v) * f
    assert abs(kronecker_F(u + tau, v, m) - expected) <= tol * abs(expected)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    tau_im=st.floats(0.05, 2.0),
    height=st.integers(-30, 30),
    offset=st.floats(-0.9e-6, 0.9e-6),
)
def test_kronecker_pole_guard_on_points_and_arrays(tau_im, height, offset):
    # a point within POLE_GUARD of the lattice raises on both paths
    tau = complex(0.1, tau_im)
    m = modular_param(tau)
    u = 1.0 + height * tau + offset
    with pytest.raises(PoleProximityError):
        kronecker_F(u, 0.3, m)
    with pytest.raises(PoleProximityError):
        kronecker_F(np.array([0.2, u]), 0.3, m)


@pytest.mark.parametrize("tau", [1j, 0.5 + 0.9j, 0.1 + 0.3j])
def test_theta11_matches_mpmath_jtheta(tau):
    mpmath = pytest.importorskip("mpmath")
    m = modular_param(tau)
    with mpmath.workdps(30):
        # theta11(u, tau) = i * theta_1(pi*u, q) with nome q = exp(pi*i*tau)
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        for u in (0.17 + 0.05j, -0.42 + 0.31j, 2.31 + 1.72j, 0.3 - 2.5j):
            ref = complex(1j * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(u), q))
            assert abs(theta11(u, m) - ref) < 1e-12 * abs(ref)
