"""Metamorphic relations of the whole pipeline, checked at the ``fit`` level.

Reflection: negating y and reflecting the quantile, (y, tau) -> (-y, 1 - tau),
negates every root of the smoothed equations and leaves the plug-in
bandwidth, the analytic sandwich and the bootstrap draws unchanged.  On the
n = 1 000 cases the fit is the exact mirror image, bit for bit.  At n = 3 000
and tau in {0.08, 0.92}, the Gaussian-reference candidate, which
Phi^{-1}(tau) feeds, sets the bandwidth in 10 of the 12 cases.  There the
mirror is exact from tau = 0.92 only: Phi^{-1}(0.92) works on 1 - 0.92,
which is not the double 0.08.  So those cases take the tolerances of the
other relations; the worst seen were 2.7e-14 SE in beta and 4.5e-16
relative in h.

The other relations hold to rounding, on a design with one endogenous and
one exogenous regressor x2 and one or three instruments:

- affine y -> 3y + Xc: beta -> 3 beta + c, h -> 3h, cov -> 9 cov
- units y -> 1e6 y: beta, h and se scale by 1e6, also on a reference-design
  case where the nonparametric bandwidth candidate binds
- x2 -> 2 x2 + 1, that is X -> XA: beta -> A^{-1} beta, cov -> A^{-1} cov A^{-T}
- instruments Z -> ZB + 0.3 x2 with B nonsingular: the instrument space is
  the same, so is the fit
- a row permutation, and weights times 7: the fit is the same

The bootstrap draws row r's weight from replication r's stream, so under a
row permutation the draws differ; that relation is checked on the analytic
path only.  On these cases (n = 1 000) the worst deviations measured were
4e-13 SE in beta, 2.1e-15 relative in h, and 4.1e-14 se_i se_j in an
analytic covariance against 2.2e-7 in a bootstrap one, whose draws each stop
at the solver tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from ivqr.estimate import fit
from ivqr.model import build_problem
from ivqr.simulation import generate, reference_dgp


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("tau", [0.1, 0.5, 0.8])
@pytest.mark.parametrize("seed", range(6))
def test_reflection_negates_the_fit(seed, tau, weighted):
    prob, _ = generate(reference_dgp(n=1000, seed=seed), tau)
    if weighted:
        prob = prob.reweighted(np.random.default_rng(seed).uniform(0.2, 3.0, size=prob.n))
    mirror = replace(prob, y=-prob.y, tau=1.0 - prob.tau)
    # the bootstrap on every other seed, so each tau and weighting meets both paths
    reps = 20 if seed % 2 else 0
    got, want = fit(mirror, reps=reps), fit(prob, reps=reps)
    assert got.vcov_kind == want.vcov_kind
    assert (got.beta == -want.beta).all()
    assert got.bandwidth.h_used == want.bandwidth.h_used
    assert (got.cov == want.cov).all()


# the reflection cases at n = 3 000 where Silverman's candidate sets the bandwidth
GAUSSIAN_REF_DOES_NOT_BIND = {(2, 0.08), (4, 0.92)}


@pytest.mark.parametrize("tau", [0.08, 0.92])
@pytest.mark.parametrize("seed", range(6))
def test_reflection_where_the_gaussian_reference_candidate_binds(seed, tau):
    prob, _ = generate(reference_dgp(n=3000, seed=seed), tau)
    got = fit(replace(prob, y=-prob.y, tau=1.0 - prob.tau))
    want = fit(prob)
    bw = want.bandwidth
    binds = bw.h_requested == bw.candidates.h_gaussian_ref
    assert binds == ((seed, tau) not in GAUSSIAN_REF_DOES_NOT_BIND)
    se = want.se
    assert np.all(np.abs(got.beta + want.beta) <= 1e-10 * se)
    assert abs(got.bandwidth.h_used - bw.h_used) <= 3e-12 * bw.h_used
    assert np.all(np.abs(got.cov - want.cov) <= 5e-12 * np.outer(se, se))


def columns(seed, k, weighted, n=1000):
    """y, endogenous d, exogenous x2, k instruments z and U(0.2, 3) weights or None."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, k))
    x2 = rng.normal(size=n)
    e = rng.normal(size=n)
    d = z.sum(axis=1) / np.sqrt(k) + 0.5 * x2 + 0.5 * e + rng.normal(size=n)
    y = 1.0 + d + 0.5 * x2 + e
    w = rng.uniform(0.2, 3.0, size=n) if weighted else None
    return {"y": y, "d": d, "x2": x2, "z": z, "w": w}


def problem(cols, tau):
    return build_problem(cols["y"], raw_exog=cols["x2"], raw_endog=cols["d"],
                         raw_instr=cols["z"], weights=cols["w"], quantile=tau)


# X = [d, x2, 1]; x2 -> 2 x2 + 1 is X -> X @ REPARAM
REPARAM = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.0, 1.0]])


# each relation returns the moved columns with M, c and s such that
# beta -> M beta + c, cov -> M cov M' and h -> s h
def affine(cols, seed):
    c = np.array([0.5, -1.0, 2.0])
    X = np.column_stack([cols["d"], cols["x2"], np.ones_like(cols["y"])])
    return {**cols, "y": 3.0 * cols["y"] + X @ c}, 3.0 * np.eye(3), c, 3.0


def units(cols, seed):
    return {**cols, "y": 1e6 * cols["y"]}, 1e6 * np.eye(3), 0.0, 1e6


def exogenous(cols, seed):
    return {**cols, "x2": 2.0 * cols["x2"] + 1.0}, np.linalg.inv(REPARAM), 0.0, 1.0


def rotation(cols, seed):
    k = cols["z"].shape[1]
    B = np.random.default_rng(seed + 100).normal(size=(k, k)) + 2.0 * np.eye(k)
    assert abs(np.linalg.det(B)) > 0.1
    return {**cols, "z": cols["z"] @ B + 0.3 * cols["x2"][:, None]}, np.eye(3), 0.0, 1.0


def permutation(cols, seed):
    perm = np.random.default_rng(seed + 200).permutation(len(cols["y"]))
    return {key: None if v is None else v[perm] for key, v in cols.items()}, np.eye(3), 0.0, 1.0


def weights(cols, seed):
    w = np.ones_like(cols["y"]) if cols["w"] is None else cols["w"]
    return {**cols, "w": 7.0 * w}, np.eye(3), 0.0, 1.0


# relation -> tolerances: beta in SE, h relative, cov relative to se_i se_j;
# none looser than 100 times the worst case measured at n = 2 000 (ROADMAP)
RELATIONS = {
    affine: (9e-11, 3e-12, 5e-12),
    units: (9e-11, 3e-12, 5e-12),
    exogenous: (1.1e-10, 3e-12, 5e-12),
    rotation: (1e-9, 2e-13, 1e-9),
    permutation: (1.1e-10, 3e-12, 5e-12),
    weights: (1.1e-10, 3e-12, 5e-12),
}
# a bootstrap covariance moves with the draws' stopping points, not by
# rounding: 45 times the worst seen, under 100 times ROADMAP's 1.1e-7 SE
BOOT_COV_RTOL = 1e-5
# (seed, tau, instruments, weighted, reps): every design on the analytic
# path, and two with the bootstrap
CASES = [
    (0, 0.1, 1, False, 0),
    (1, 0.5, 3, True, 0),
    (2, 0.8, 1, True, 0),
    (3, 0.25, 3, False, 0),
    (4, 0.5, 1, False, 20),
    (5, 0.8, 3, True, 20),
]


@pytest.mark.parametrize("relation, case", [
    pytest.param(rel, case, id=f"{rel.__name__}-{case[0]}-{case[1]}-q{case[2]}"
                 f"{'-weighted' if case[3] else ''}{'-boot' if case[4] else ''}")
    for rel in RELATIONS for case in CASES
    if not (rel is permutation and case[4])
])
def test_fit_is_equivariant(relation, case):
    seed, tau, k, weighted, reps = case
    cols = columns(seed, k, weighted)
    moved, M, c, h_scale = relation(cols, seed)
    got, base = fit(problem(moved, tau), reps=reps), fit(problem(cols, tau), reps=reps)
    assert_moved(got, base, M, c, h_scale, RELATIONS[relation], reps)


def assert_moved(got, base, M, c, h_scale, tolerances, reps):
    """``got`` is ``base`` under beta -> M beta + c, cov -> M cov M', h -> h_scale h."""
    beta_tol, h_rtol, cov_rtol = tolerances
    cov = M @ base.cov @ M.T
    se = np.sqrt(np.diag(cov))
    assert got.vcov_kind == base.vcov_kind and got.reps_used == base.reps_used
    assert np.all(np.abs(got.beta - (M @ base.beta + c)) <= beta_tol * se)
    assert abs(got.bandwidth.h_used - h_scale * base.bandwidth.h_used) <= h_rtol * got.bandwidth.h_used
    cov_rtol = BOOT_COV_RTOL if reps else cov_rtol
    assert np.all(np.abs(got.cov - cov) <= cov_rtol * np.outer(se, se))


def test_units_of_y_where_the_nonparametric_candidate_binds():
    # on the n = 1 000 cases Silverman's candidate sets the bandwidth; here
    # the nonparametric one does, and whether it is a candidate at all must
    # not depend on the units of y, though its f'(0) estimate scales as
    # 1 / scale^2
    prob, _ = generate(reference_dgp(n=2000, seed=19), 0.1)
    base = fit(prob)
    assert base.bandwidth.h_requested == base.bandwidth.candidates.h_nonparametric
    got = fit(replace(prob, y=1e6 * prob.y))
    assert_moved(got, base, 1e6 * np.eye(2), 0.0, 1e6, RELATIONS[units], 0)
