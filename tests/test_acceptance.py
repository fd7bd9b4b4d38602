"""Acceptance checks: one PASS/FAIL line per shipped guarantee.

Each test exercises one guarantee end to end at its stated tolerance and
records a single summary line (also printed in the terminal summary via
the conftest hook).  Tolerances here are contractual: loosening one is a
behavior change, not a test tweak.
"""

import cmath
import math

import numpy as np
import pytest

from aybe import bruteforce as bf
from aybe.bruteforce import eval_cybe_alt, identity_p_distribution, identity_zeta_distribution
from aybe.curve import BundleParams, composite_map, tensor_from_linear_map
from aybe.series import (
    check_aux4,
    check_aux5,
    check_r1_relation,
    check_reconstruction_chain,
    classify_scalar,
)
from aybe.solutions import (
    elliptic_aybe,
    elliptic_cybe,
    eval_aybe,
    eval_cybe,
    in_domain,
    scalar_kronecker,
    scalar_rational,
    scalar_trig,
    trig_aybe,
    trig_cybe,
)
from aybe.special import (
    eisenstein_G,
    j_invariant,
    kronecker_F,
    lattice_distance,
    modular_param,
    theta11,
    weierstrass_zeta,
)
from aybe.verify import SuiteConfig, check_aybe, check_cybe, check_limit_consistency, check_rank, check_unitarity

REPORT_LINES = []

TAU_SQUARE = 1j
TAU_GENERIC = 0.5 + 0.9j
TRIG_C = -20.0 / 49.0
TWO_PI_I = 2j * math.pi


def _record(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def _disc(rng, radius, n):
    r = radius * np.sqrt(rng.uniform(size=n))
    phi = 2.0 * np.pi * rng.uniform(size=n)
    return r * np.cos(phi) + 1j * r * np.sin(phi)


# ---------------------------------------------------------------------------
# 1. two-variable identity, elliptic families
# ---------------------------------------------------------------------------


def test_01_elliptic_aybe_residuals():
    tol = 1e-8
    worst = 0.0
    config = SuiteConfig(seed=101, n_aybe=25, tol_aybe=tol)
    for d, r in ((1, 1), (2, 1), (3, 1), (3, 2)):
        for tau in (TAU_SQUARE, TAU_GENERIC):
            rep = check_aybe(elliptic_aybe(d, r, tau), config)
            worst = max(worst, rep.max_rel_residual)
    _record(
        "elliptic-aybe",
        worst < tol,
        f"8 families x 25 quadruples, max_rel={worst:.3e} tol={tol:.1e}",
    )


# ---------------------------------------------------------------------------
# 2. size-1 elliptic solution equals the scalar kernel up to v -> -v
# ---------------------------------------------------------------------------


def test_02_size1_matches_scalar_kernel():
    tol = 1e-10
    worst = 0.0
    rng = np.random.default_rng(202)
    for tau in (TAU_SQUARE, TAU_GENERIC):
        h11 = elliptic_aybe(1, 1, tau)
        kron = scalar_kronecker(tau)
        m = modular_param(tau)
        count = 0
        for u, v in zip(_disc(rng, 0.35, 400), _disc(rng, 0.35, 400)):
            if not (
                in_domain(h11, u, v, guard=1e-3)
                and in_domain(kron, u, -v, guard=1e-3)
            ):
                continue
            lhs = complex(eval_aybe(h11, u, v).coeffs[0, 0, 0, 0])
            mid = kronecker_F(u, -v, m)
            rhs = complex(eval_aybe(kron, u, -v).coeffs[0, 0, 0, 0])
            worst = max(worst, abs(lhs - mid), abs(lhs - rhs))
            count += 1
            if count == 50:
                break
        assert count == 50
    _record(
        "size1-scalar-kernel",
        worst < tol,
        f"50 points per tau, max_abs={worst:.3e} tol={tol:.1e}",
    )


# ---------------------------------------------------------------------------
# 3. unitarity for every shipped family
# ---------------------------------------------------------------------------


def test_03_unitarity_all_families():
    tol = 1e-10
    handles = [
        elliptic_aybe(1, 1, TAU_SQUARE),
        elliptic_aybe(2, 1, TAU_SQUARE),
        elliptic_aybe(3, 1, TAU_GENERIC),
        elliptic_aybe(3, 2, TAU_SQUARE),
        trig_aybe(1),
        trig_aybe(2),
        scalar_kronecker(TAU_SQUARE),
        scalar_trig(),
        scalar_rational(1.0, 1.0),
        elliptic_cybe(2, 1, TAU_SQUARE),
        elliptic_cybe(3, 1, TAU_SQUARE),
        trig_cybe(1),
        trig_cybe(2),
    ]
    config = SuiteConfig(seed=303, n_unitarity=20, tol_unitarity=tol)
    worst = 0.0
    for h in handles:
        rep = check_unitarity(h, config)
        worst = max(worst, rep.max_abs_residual)
    _record(
        "unitarity",
        worst < tol,
        f"{len(handles)} families x 20 points, max_abs={worst:.3e} tol={tol:.1e}",
    )


# ---------------------------------------------------------------------------
# 4. one-variable identity, elliptic and trigonometric families
# ---------------------------------------------------------------------------


def test_04_cybe_residuals():
    config = SuiteConfig(seed=404, n_cybe=25)
    worst_ell = 0.0
    for d, r in ((2, 1), (3, 1), (3, 2)):
        rep = check_cybe(elliptic_cybe(d, r, TAU_SQUARE), config)
        assert rep.tolerance == 1e-8
        worst_ell = max(worst_ell, rep.max_rel_residual)
    worst_trig = 0.0
    for kind in (1, 2):
        rep = check_cybe(trig_cybe(kind), config)
        assert rep.tolerance == 1e-10
        worst_trig = max(worst_trig, rep.max_rel_residual)
    _record(
        "cybe",
        worst_ell < 1e-8 and worst_trig < 1e-10,
        f"elliptic max_rel={worst_ell:.3e} (tol 1e-08), "
        f"trig max_rel={worst_trig:.3e} (tol 1e-10), 25 pairs each",
    )


# ---------------------------------------------------------------------------
# 5. u -> 0 limit of the two-variable solutions hits the one-variable ones
# ---------------------------------------------------------------------------


def test_05_limit_consistency():
    tol = 1e-7
    config = SuiteConfig(seed=505, n_limit=5, tol_limit=tol)
    worst = 0.0
    for h in (elliptic_aybe(2, 1, TAU_SQUARE), trig_aybe(1), trig_aybe(2)):
        rep = check_limit_consistency(h, config)
        worst = max(worst, rep.max_rel_residual)
    _record(
        "limit-consistency",
        worst < tol,
        f"3 families x 5 v-points, max_rel={worst:.3e} tol={tol:.1e}",
    )


# ---------------------------------------------------------------------------
# 6. the two one-variable evaluation routes agree
# ---------------------------------------------------------------------------


def test_06_cybe_evaluation_routes_agree():
    tol = 1e-9
    rng = np.random.default_rng(606)
    worst = 0.0
    for d, r in ((2, 1), (3, 1)):
        h = elliptic_cybe(d, r, TAU_SQUARE)
        count = 0
        for v in _disc(rng, 0.35, 200):
            if not in_domain(h, None, v, guard=1e-3):
                continue
            a = eval_cybe(h, v)
            b = eval_cybe_alt(h, v)
            worst = max(worst, (a - b).max_abs() / max(a.max_abs(), 1e-30))
            count += 1
            if count == 10:
                break
        assert count == 10
    _record(
        "cybe-alt-route",
        worst < tol,
        f"sizes 2 and 3, 10 points each, max_rel={worst:.3e} tol={tol:.1e}",
    )


# ---------------------------------------------------------------------------
# 7. lattice-function identities and the period relation
# ---------------------------------------------------------------------------


def test_07_lattice_identities():
    tol_identity = 1e-8
    tol_period = 1e-10
    rng = np.random.default_rng(707)
    m = modular_param(TAU_SQUARE)
    worst = 0.0
    for d in (2, 3, 5):
        count = 0
        for x in _disc(rng, 0.35, 400):
            if lattice_distance(d * x, d * TAU_SQUARE) < 1e-2:
                continue
            if min(lattice_distance(x - k / d, TAU_SQUARE) for k in range(d)) < 1e-2:
                continue
            worst = max(
                worst,
                abs(identity_zeta_distribution(d, x, m)),
                abs(identity_p_distribution(d, x, m)),
            )
            count += 1
            if count == 10:
                break
        assert count == 10
    # Period relation: eta1 from the theta route vs the lattice sum, and
    # the exact eta1*tau - eta2 = 2*pi*i closure.
    eta_gap = abs(m.eta1 - bf.eta1_lattice_sum(TAU_SQUARE))
    legendre_gap = abs(m.eta1 * m.tau - m.eta2 - TWO_PI_I)
    _record(
        "lattice-identities",
        worst < tol_identity and eta_gap < tol_period and legendre_gap < tol_period,
        f"orders 2/3/5 max_abs={worst:.3e} (tol {tol_identity:.1e}), "
        f"eta1 route gap={eta_gap:.3e}, period closure={legendre_gap:.3e} "
        f"(tol {tol_period:.1e})",
    )


# ---------------------------------------------------------------------------
# 8. scalar classification: trigonometric point and modular correspondence
# ---------------------------------------------------------------------------


def test_08_scalar_classification():
    trig_result = classify_scalar(scalar_trig(), radius=1.5)
    trig_gap = abs(complex(trig_result.C) - TRIG_C)

    worst_j = 0.0
    worst_b = 0.0
    for tau in (1j, 2j, 0.6 + 1.1j):
        m = modular_param(tau)
        result = classify_scalar(scalar_kronecker(tau))
        target = TRIG_C * (1.0 - 1728.0 / j_invariant(m))
        worst_j = max(worst_j, abs(complex(result.C) - target))
        b3 = result.c3 / TWO_PI_I**4
        b5 = result.c5 / TWO_PI_I**6
        worst_b = max(
            worst_b,
            abs(b3 + eisenstein_G(4, m) / 3.0),
            abs(b5 + eisenstein_G(6, m) / 60.0),
        )
    ok = trig_gap < 1e-10 and worst_j < 1e-6 and worst_b < 1e-9
    _record(
        "scalar-classification",
        ok,
        f"|C_trig+20/49|={trig_gap:.3e} (tol 1e-10), modular gap={worst_j:.3e} "
        f"(tol 1e-06), Laurent-vs-Eisenstein gap={worst_b:.3e} (tol 1e-09)",
    )


# ---------------------------------------------------------------------------
# 9. Laurent-coefficient relations and the reconstruction chain
# ---------------------------------------------------------------------------


def test_09_series_relations():
    pts = (0.31, 0.22 - 0.11j)
    worst_r1 = 0.0
    for h in (
        scalar_kronecker(TAU_SQUARE),
        scalar_kronecker(2j),
        scalar_trig(),
        scalar_rational(1.0, 1.0),
    ):
        rep = check_r1_relation(h, pts)
        worst_r1 = max(worst_r1, rep.max_abs_residual)

    aux4_kron = abs(check_aux4(scalar_kronecker(2j), 0.2, 0.35))
    aux4_trig = abs(check_aux4(scalar_trig(), 0.4j, 0.3))
    aux5 = check_aux5(elliptic_aybe(2, 1, TAU_SQUARE), 0.2, 0.31).max_abs()
    recon = check_reconstruction_chain(
        elliptic_aybe(2, 1, TAU_SQUARE), [(0.2, 0.31), (0.15, -0.23)],
        tolerance=1e-6,
    )
    ok = (
        worst_r1 < 1e-8
        and aux4_kron < 1e-8
        and aux4_trig < 1e-9
        and aux5 < 1e-7
        and recon.passed
    )
    _record(
        "series-relations",
        ok,
        f"r1 max_abs={worst_r1:.3e} (tol 1e-08), aux4={aux4_kron:.3e}/"
        f"{aux4_trig:.3e} (tol 1e-08/1e-09), aux5={aux5:.3e} (tol 1e-07), "
        f"reconstruction max_rel={recon.max_rel_residual:.3e} (tol 1e-06)",
    )


# ---------------------------------------------------------------------------
# 10. nodal-curve composites reproduce the closed trigonometric forms
# ---------------------------------------------------------------------------


def test_10_curve_composites():
    tol_closed = 1e-10
    tol_dep = 1e-12
    rng = np.random.default_rng(1010)
    worst_closed = 0.0
    worst_dep = 0.0
    control = 0.0
    for k in range(20):
        case = 1 + (k % 2)
        s = complex(rng.uniform(0.35, 1.2) * rng.choice([-1, 1]), rng.uniform(-1, 1))
        t = complex(rng.uniform(0.35, 1.2) * rng.choice([-1, 1]), rng.uniform(-1, 1))
        w1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.8, 0.8))
        w2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.8, 0.8))
        g1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        g2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        p = BundleParams(
            cmath.exp(w1), cmath.exp(w1 - s), cmath.exp(w2), cmath.exp(w2 - t), case
        )
        q = BundleParams(
            p.lambda1 * cmath.exp(g1), p.lambda2 * cmath.exp(g1),
            p.y1 * cmath.exp(g2), p.y2 * cmath.exp(g2), case,
        )
        tensor = tensor_from_linear_map(composite_map(p))
        tensor_q = tensor_from_linear_map(composite_map(q))
        ref = eval_aybe(trig_aybe(case), s, t)
        worst_closed = max(
            worst_closed, (tensor - ref).max_abs() / ref.max_abs()
        )
        worst_dep = max(
            worst_dep, (tensor_q - tensor).max_abs() / tensor.max_abs()
        )
        if case == 2:
            m1 = composite_map(p, "constant")
            m2 = composite_map(q, "constant")
            control = max(control, (m1 - m2).max_abs() / m1.max_abs())
    ok = worst_closed < tol_closed and worst_dep < tol_dep and control > 1e-3
    _record(
        "curve-composites",
        ok,
        f"20 parameter sets, closed-form max_rel={worst_closed:.3e} "
        f"(tol {tol_closed:.1e}), ratio-dependence max_rel={worst_dep:.3e} "
        f"(tol {tol_dep:.1e}), constant-trivialization control={control:.3e} (>1e-03)",
    )


# ---------------------------------------------------------------------------
# 11. nondegeneracy: the solutions are invertible as maps
# ---------------------------------------------------------------------------


def test_11_full_rank():
    config = SuiteConfig(seed=1111, n_rank=5)
    handles = [
        elliptic_aybe(2, 1, TAU_SQUARE),
        elliptic_aybe(3, 1, TAU_SQUARE),
        trig_aybe(1),
        trig_aybe(2),
    ]
    all_ok = True
    for h in handles:
        rep = check_rank(h, config)
        all_ok = all_ok and rep.passed
    _record(
        "full-rank",
        all_ok,
        "rank equals n^2 at 5 generic points for sizes 2, 3 and both "
        "trigonometric families",
    )


# ---------------------------------------------------------------------------
# 12. production evaluators vs defining-series oracles
# ---------------------------------------------------------------------------


def test_12_fast_vs_oracle():
    tol = 1e-9
    tol_quasi = 1e-10
    m = modular_param(TAU_GENERIC)
    worst = 0.0
    for u in (0.23 + 0.11j, -0.4 + 0.31j, 0.52 - 0.07j):
        fast = theta11(u, m)
        slow = bf.theta11_series(u, TAU_GENERIC)
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
        zf = weierstrass_zeta(u, m)
        zs = bf.zeta_lattice_extrapolated(u, TAU_GENERIC)
        worst = max(worst, abs(zf - zs) / max(1.0, abs(zs)))
    for u, v in ((0.13 + 0.35j, -0.21 + 0.52j), (0.4 + 0.6j, 0.3 + 0.2j)):
        fast = kronecker_F(u, v, m)
        slow = bf.kronecker_double_series(u, v, TAU_GENERIC)
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    quasi = 0.0
    for u in (0.23 + 0.11j, -0.31 + 0.27j):
        base = theta11(u, m)
        quasi = max(quasi, abs(theta11(u + 1.0, m) + base))
        factor = -cmath.exp(-1j * math.pi * m.tau - TWO_PI_I * u)
        quasi = max(quasi, abs(theta11(u + m.tau, m) - factor * base))
    _record(
        "fast-vs-oracle",
        worst < tol and quasi < tol_quasi,
        f"theta/zeta/kernel max_rel={worst:.3e} (tol {tol:.1e}), "
        f"quasi-periodicity max_abs={quasi:.3e} (tol {tol_quasi:.1e})",
    )
