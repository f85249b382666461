"""Metamorphic relations of the whole pipeline, checked at the ``fit`` level.

Reflection: negating y and reflecting the quantile, (y, tau) -> (-y, 1 - tau),
negates every root of the smoothed equations and leaves the plug-in
bandwidth, the analytic sandwich and the bootstrap draws unchanged, so the
fit is the exact mirror image, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from ivqr.estimate import fit
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
