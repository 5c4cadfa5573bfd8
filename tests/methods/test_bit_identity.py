"""The method refactor's contract: ``method="jacobi"`` changed nothing.

Every scenario in :mod:`tests.methods.trajectories` runs twice — once with
the executor's default relaxation rule (what pre-refactor main executed;
the committed goldens were generated from that code) and once asking for
the same rule explicitly through the ``method=`` flag — and both must
match the golden trajectory *bit for bit*: final iterate and full residual
history. The ``dist_gs_*`` scenarios are the SOR oracle: ``method="sor"``
must reproduce the Gauss-Seidel block-sweep goldens exactly.
"""

import pytest

from tests.methods.trajectories import SCENARIOS, load_goldens, run_scenario

GOLDENS = load_goldens()


def test_golden_covers_every_scenario():
    assert sorted(GOLDENS) == sorted(SCENARIOS)


@pytest.mark.parametrize(
    "method_kwargs", [False, True], ids=["default", "method-flag"]
)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trajectory_matches_golden(name, method_kwargs):
    got = run_scenario(name, method_kwargs=method_kwargs)
    want = GOLDENS[name]
    assert got["x"] == want["x"], f"{name}: final iterate differs from golden"
    assert got["residual_norms"] == want["residual_norms"], (
        f"{name}: residual history differs from golden"
    )
