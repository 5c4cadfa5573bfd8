"""Frozen set-up arrays: the distributed solver's split of ``A``, pinned by digest.

``setup_digests.json`` pins sha256 digests of every array the
distributed solver builds before its first event: each
:class:`~repro.partition.subdomain.Subdomain` (rows, the CSR arrays of
its row slice, ``recv_from``/``send_to``), each rank template (the
compacted local CSR, ghost columns, send plan), the warm plan's per-rank
tables (put plan, concatenated send rows, buffer offsets, ``dinv`` and
``b`` gathers), each observer scatter plan and the native compact
arrays. It also pins the CSR arrays of the stencil builders. Every field
hashes its arrays' dtype, shape and bytes in rank order, so a change of
dtype, of dict order or of a single bit fails the case.

The compact arrays need no compiled library (only the packed rows a run
hands to it do), so every case runs both with and without the kernels.
Beyond the frozen cases, a Hypothesis test compares every array the
whole-matrix passes build with the per-rank loops they replaced
(``setup_oracle.py``) on random matrices and label arrays.
Regenerate (only for a deliberate change) with::

    PYTHONPATH=src python -m tests.runtime.test_setup_digests --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matrices.laplacian import fd_laplacian_1d, fd_laplacian_2d, fd_laplacian_3d
from repro.matrices.sparse import CSRMatrix
from repro.matrices.stencil import (
    anisotropic_laplacian_2d,
    nine_point_laplacian_2d,
    variable_coefficient_laplacian_2d,
)
from repro.perf.native import ROW_FIELDS
from repro.runtime.distributed import DistributedJacobi
from tests.runtime import setup_oracle

SETUP_DIGESTS = Path(__file__).with_name("setup_digests.json")
REGENERATE = "PYTHONPATH=src python -m tests.runtime.test_setup_digests --write"


def _shuffled_labels(n, parts, seed):
    """An explicit label array with every rank non-contiguous."""
    return np.random.default_rng(seed).permutation(np.arange(n) % parts)


#: Set-up cases: key -> (matrix builder, n_ranks, partition, method).
CASES = {
    **{
        f"bfs63/{p}": (lambda: fd_laplacian_2d(63, 63), p, "bfs", None)
        for p in (4, 16, 64, 256)
    },
    "contiguous1000/256": (
        lambda: fd_laplacian_2d(1000, 1000), 256, "contiguous", None),
    "anisotropic/12": (
        lambda: anisotropic_laplacian_2d(30, 20, eps=0.01), 12, "bfs", None),
    "nine-point/16": (
        lambda: nine_point_laplacian_2d(40, 30), 16, "contiguous", None),
    "variable-coefficient/9": (
        lambda: variable_coefficient_laplacian_2d(25, 25, seed=3, contrast=1.5),
        9, "bfs", "damped_jacobi"),
    "shuffled-labels/7": (
        lambda: fd_laplacian_2d(20, 20), 7, _shuffled_labels(400, 7, 4), None),
    "one-rank": (lambda: fd_laplacian_2d(12, 9), 1, "bfs", None),
    "n-ranks/30": (lambda: fd_laplacian_2d(6, 5), 30, "bfs", None),
}

#: Stencil builds: key -> builder. Covers degenerate 1-wide and 1x1 grids.
STENCILS = {
    **{
        f"fd2d/{nx}x{ny}{'' if s else '/unscaled'}": (
            lambda nx=nx, ny=ny, s=s: fd_laplacian_2d(nx, ny, scaled=s))
        for nx, ny in ((1000, 1000), (68, 68), (63, 63), (4, 17), (1, 5),
                       (5, 1), (1, 1), (7, 3))
        for s in (True, False)
    },
    **{
        f"fd3d/{nx}x{ny}x{nz}{'' if s else '/unscaled'}": (
            lambda nx=nx, ny=ny, nz=nz, s=s: fd_laplacian_3d(nx, ny, nz, scaled=s))
        for nx, ny, nz in ((12, 12, 12), (7, 6, 5), (3, 1, 5), (1, 4, 1),
                           (1, 1, 1))
        for s in (True, False)
    },
    **{
        f"anisotropic/{nx}x{ny}/eps{eps}{'' if s else '/unscaled'}": (
            lambda nx=nx, ny=ny, eps=eps, s=s: anisotropic_laplacian_2d(
                nx, ny, eps=eps, scaled=s))
        for nx, ny, eps in ((30, 20, 0.01), (9, 11, 3.0), (1, 5, 0.3),
                            (5, 1, 0.3), (1, 1, 1.0))
        for s in (True, False)
    },
    **{
        f"fd1d/{n}{'' if s else '/unscaled'}": (
            lambda n=n, s=s: fd_laplacian_1d(n, scaled=s))
        for n in (1, 2, 100)
        for s in (True, False)
    },
    "nine-point/40x30": lambda: nine_point_laplacian_2d(40, 30),
    "nine-point/1x1": lambda: nine_point_laplacian_2d(1, 1),
    "variable-coefficient/25x25": lambda: variable_coefficient_laplacian_2d(
        25, 25, seed=3, contrast=1.5),
}


def build_case(key) -> DistributedJacobi:
    """The solver of set-up case ``key`` (its set-up not yet warmed)."""
    build, n_ranks, partition, method = CASES[key]
    A = build()
    b = np.random.default_rng(7).uniform(-1, 1, A.nrows)
    return DistributedJacobi(
        A, b, n_ranks=n_ranks, partition=partition, seed=1, method=method
    )


def _ints(*values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _csr(m) -> list:
    return [_ints(*m.shape), m.indptr, m.indices, m.data, m._row_of_nnz]


def _dict(d) -> list:
    """Keys in insertion order, then each value."""
    return [_ints(*d), *d.values()]


def structural_fields(subs, tmpl, splans, keep, tab) -> dict:
    """The arrays the solver's whole-matrix passes build, by field."""
    col = ROW_FIELDS.index
    return {
        "rows": [s.rows for s in subs],
        "matrix": [a for s in subs for a in _csr(s.matrix)],
        "recv_from": [a for s in subs for a in _dict(s.recv_from)],
        "send_to": [a for s in subs for a in _dict(s.send_to)],
        "template_rows": [_ints(t[0]) for t in tmpl] + [t[1] for t in tmpl],
        "local": [a for t in tmpl for a in _csr(t[2])],
        "ghost_cols": [t[3] for t in tmpl],
        "send_plan": [
            a for t in tmpl for q, slots, local_rows in t[4]
            for a in (_ints(q), slots, local_rows)
        ],
        "splans": [
            a for sp in splans
            for a in (
                _ints(sp.base, sp.span), sp.local, sp.vals, sp.rep_idx,
                _ints(sp._scratch.size),
                *(() if sp.pairs is None else (
                    _ints(*(i for i, _ in sp.pairs)),
                    np.asarray([v for _, v in sp.pairs], dtype=np.float64))),
            )
        ],
        "native": [a for arrs in keep for a in arrs]
        + [tab[:, [col("m"), col("base"), col("span")]]],
    }


def setup_fields(sim) -> dict:
    """``{field: [arrays]}``: every set-up array of ``sim``, in rank order.

    Warms the solver's plan (templates, tables, scatter plans, compact
    native arrays) the way a first run does.
    """
    ranks = sim._compile_ranks()
    wp = sim._warm_plan(ranks)
    splans = sim._warm_splans()
    sim._warm_native(ranks)
    return {
        "dinv": [sim.dinv],
        **structural_fields(
            list(sim.decomposition), wp.templates, splans, *wp.native),
        "put_plan": [
            a for plan in wp.put_plan for q, slots, local_rows, base in plan
            for a in (_ints(q), slots, local_rows, np.asarray([base]))
        ],
        "cat_rows": wp.cat_rows,
        "offsets": [
            _ints(*wp.nrows_loc), _ints(*wp.lb_off), _ints(*wp.row_off),
            _ints(*wp.nnz_off),
        ],
        "dinv_loc": wp.dinv_loc,
        "b_loc": wp.b_loc + [np.asarray([wp.b_norm1])],
    }


def fields_digest(fields) -> dict:
    """sha256 per field over each array's dtype, shape and bytes."""
    out = {}
    for name, arrays in fields.items():
        h = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        out[name] = h.hexdigest()
    return out


def stencil_digest(A) -> str:
    return fields_digest({"csr": _csr(A)})["csr"]


@pytest.fixture(scope="module")
def frozen():
    return json.loads(SETUP_DIGESTS.read_text())


def test_digest_file_names_its_regeneration_command(frozen):
    assert frozen["regenerate"] == REGENERATE
    assert set(frozen["setups"]) == set(CASES)
    assert set(frozen["stencils"]) == set(STENCILS)


@pytest.mark.parametrize("key", CASES)
def test_setup_matches_frozen_digest(frozen, key):
    assert fields_digest(setup_fields(build_case(key))) == frozen["setups"][key]


@pytest.mark.parametrize("key", STENCILS)
def test_stencil_matches_frozen_digest(frozen, key):
    assert stencil_digest(STENCILS[key]()) == frozen["stencils"][key]


@st.composite
def _split_matrices(draw):
    """A random symmetric sparse matrix and a label array whose ranks are
    usually non-contiguous. One draw cuts every coupling of rank 0,
    leaving it with no neighbours; another zeroes part of the diagonal
    (Richardson needs none), which can leave a rank's columns empty."""
    n = draw(st.integers(1, 40))
    parts = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(
        np.concatenate((np.arange(parts), rng.integers(0, parts, n - parts))))
    if draw(st.booleans()):
        labels = np.sort(labels)
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    dense = np.triu(dense, 1)
    dense += dense.T
    if draw(st.booleans()):
        in0 = labels == 0
        dense[np.ix_(in0, ~in0)] = dense[np.ix_(~in0, in0)] = 0.0
    dense[np.arange(n), np.arange(n)] = rng.uniform(1.0, 3.0, n)
    method = None
    if draw(st.booleans()):
        method = "richardson"
        dense[np.arange(n), np.arange(n)] *= rng.random(n) < 0.5
    return CSRMatrix.from_dense(dense), labels, method


@settings(max_examples=150, deadline=None)
@given(_split_matrices())
def test_property_setup_matches_per_rank_oracle(case):
    A, labels, method = case
    parts = int(labels.max()) + 1
    sim = DistributedJacobi(
        A, np.ones(A.nrows), n_ranks=parts, partition=labels, method=method)
    got = setup_fields(sim)
    subs = setup_oracle.subdomains(A, labels)
    tmpl = setup_oracle.templates(subs, A.nrows)
    splans = setup_oracle.scatter_plans(A, subs)
    wp = sim._plan
    keep, tab = setup_oracle.native_arrays(tmpl, splans, wp.b_loc, wp.dinv_loc)
    for name, arrays in structural_fields(subs, tmpl, splans, keep, tab).items():
        assert len(got[name]) == len(arrays), name
        for a, b in zip(got[name], arrays):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    SETUP_DIGESTS.write_text(json.dumps({
        "regenerate": REGENERATE,
        "setups": {k: fields_digest(setup_fields(build_case(k))) for k in CASES},
        "stencils": {k: stencil_digest(build()) for k, build in STENCILS.items()},
    }, indent=1) + "\n")
    print(f"wrote {SETUP_DIGESTS} ({len(CASES)} set-ups, {len(STENCILS)} stencils)")
