"""Large-n statistical equivalence between engine configurations.

Bit-identity vs the legacy oracle is only affordable at small n
(``test_engine_equivalence``); these tests cover the paper-scale regime
with the ensemble helpers from :mod:`tests.runtime.equivalence`: a
10^4-row stencil across 128 ranks, compared over seeded ensembles by
residual envelope and time-to-tolerance.
"""

import numpy as np
import pytest

from repro.matrices.laplacian import fd_laplacian_2d
from repro.runtime.distributed import DistributedJacobi
from repro.util.rng import as_rng
from tests.runtime.equivalence import (
    assert_envelopes_agree,
    envelopes_overlap,
    residual_envelope,
    run_ensemble,
    times_to_tolerance,
)

SEEDS = (1, 2, 3)
GRID = (100, 100)
N_RANKS = 128
A = fd_laplacian_2d(*GRID)


def _sim(seed: int) -> tuple:
    b = as_rng(seed).uniform(-1, 1, A.shape[0])
    sim = DistributedJacobi(
        A, b, n_ranks=N_RANKS, partition="contiguous", seed=seed
    )
    tol = sim.run_sync(max_iterations=1).residual_norms[0] / 10.0
    return sim, tol


def _async_runner():
    def run_one(seed: int):
        sim, tol = _sim(seed)
        result = sim.run_async(
            tol=tol, max_iterations=400, observe_every=N_RANKS
        )
        result.tol = tol
        return result

    return run_one


def test_async_envelope_tracks_sync_large_n():
    """Async residual observations track the sync sweep envelope.

    Without injected delays the async trajectory is genuinely different
    from the sync one (free-running ranks, no barrier), yet observation k
    of each — roughly one sweep's worth of commits apart — must land in
    the same residual band, and async must not be slower to tolerance
    (Figure 3's zero-delay anchor).
    """

    def run_sync_one(seed: int):
        sim, tol = _sim(seed)
        result = sim.run_sync(tol=tol, max_iterations=400)
        result.tol = tol
        return result

    sync = run_ensemble(run_sync_one, SEEDS)
    asyn = run_ensemble(_async_runner(), SEEDS)
    assert_envelopes_agree(sync, asyn, slack=0.25)
    tol = min(r.tol for r in sync)
    t_sync = times_to_tolerance(sync, tol)
    t_async = times_to_tolerance(asyn, tol)
    assert float(np.median(t_async)) <= float(np.median(t_sync))


def test_envelope_helpers_detect_separation():
    """The helpers flag genuinely divergent ensembles."""

    class _Fake:
        def __init__(self, norms):
            self.residual_norms = list(norms)

    fast = [_Fake([1.0, 0.5, 0.25]), _Fake([1.0, 0.45, 0.22])]
    slow = [_Fake([1.0, 0.9, 0.8]), _Fake([1.0, 0.95, 0.85])]
    env_fast = residual_envelope(fast)
    env_slow = residual_envelope(slow)
    assert envelopes_overlap(env_fast, env_fast) is None
    assert envelopes_overlap(env_fast, env_slow, slack=0.05) == 1
    with pytest.raises(AssertionError, match="separate at observation"):
        assert_envelopes_agree(fast, slow, slack=0.05)
