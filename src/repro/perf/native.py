"""Compiled CSR relax/commit kernels for the distributed simulator.

The pure-Python simulators bottom out at ~25-30 us of NumPy call overhead
per block commit (docs/performance.md): a whole-rank relax is six buffered
NumPy kernels over a few dozen values each, so the fixed per-call cost
dominates the arithmetic. This module removes that floor without adding a
dependency: it generates a small C source file, compiles it on first use
with the container's ``cc`` into a shared library named by the content
hash of (source, flags), and binds the entry points through :mod:`ctypes`.
No numba, no cffi — nothing beyond the stdlib and a C compiler.

Bit-identity contract
---------------------
Every kernel reproduces the exact floating-point operand order of the
NumPy path it replaces, so trajectories stay byte-for-byte equal to the
``repro.runtime.legacy`` oracle:

* ``repro_residual`` computes ``r = b - A x`` with a CSR row loop: each
  row's products ``data[k] * x[indices[k]]`` are added in storage order
  into a sum that starts at ``0.0`` — exactly how ``np.bincount`` sums
  its weights in ``CSRMatrix.matvec`` — and ``b`` is subtracted last, so
  the result is bitwise ``b - A.matvec(x)``.
* ``repro_relax`` mirrors the buffered relax closure: the row-subset
  SpMV sums ``data[k] * lb[indices[k]]`` per row in storage order (the
  same ``bincount`` order, held in a register), and the elementwise tail
  ``own + dinv * (b - mv)`` (plus the optional second-order Richardson
  momentum term) rounds each operation separately.
* ``repro_relax_commit`` runs that relax and then the commit: the
  ``x[rows]`` store, ``dx = pend - own`` and the
  :class:`~repro.matrices.sparse.ColumnScatterPlan` residual update
  (per-entry products, bin accumulation in the plan's storage order, one
  full-span subtract). It is one whole block iteration of the block
  loop; ``repro_relax`` alone serves the general loop, which commits in
  NumPy.

Packed argument row
-------------------
Both entry points take one pointer to a per-rank int64 row, whose
columns are :data:`ROW_FIELDS` (sizes, offsets and buffer addresses),
plus the momentum ``beta``. Every row carries the run's residual
vector, so each commit maintains the observer's residual; only an empty
scatter plan skips the update. ctypes marshals every argument on every
call: with no rows to relax, a call taking the twelve fields as separate
arguments cost 1.6-2.5 us, and a packed-row call ~0.65 us (2-core x86-64
VM). At a few thousand commits per run on blocks of a few dozen rows,
that marshalling outweighed the arithmetic.

Compact layout
--------------
The row points at one layout, built once per solver by
``DistributedJacobi``'s warm plan. The relax loops over the rank's local
CSR row pointers (int64) with its column indices as int32; the commit
loops over per-column pointers into the scatter plan's entries with their
span-local rows as int32. Nothing streams a per-nonzero row id or column
id any more: per nonzero the relax reads 12 bytes (value + int32 column)
instead of 24, and the commit 12 instead of 24. :func:`int32_index` builds
the int32 streams and raises :class:`NativeLayoutError` when a rank's
local column count or residual span reaches 2^31; there is no silent
fallback to a wider layout.

What the solver keeps across runs
---------------------------------
``DistributedJacobi`` builds these tables on its first native run and
keeps them for its lifetime (its warm plan; see docs/performance.md):
the int32 column and span-row copies, the column pointers, the per-rank
``b``/``dinv`` gathers the relax reads, one zeroed bin scratch per rank
and the run-invariant columns of the packed rows. They are safe to keep
because they are functions of ``A``, the partition and the solver's
private read-only copy of ``b`` alone, and the commit leaves every bin
zeroed when it returns. Each run fills the per-run columns with its own
``x``, ``local_x`` scratch, pending buffers, momentum state and residual
vector.

The library is compiled with ``-ffp-contract=off`` so the compiler cannot
fuse the multiply-add chains into FMAs (which would round differently
from NumPy's separate kernels). ``-ffast-math`` is never used. The one
relaxation the kernels refuse is the sequential Gauss-Seidel sweep, whose
NumPy implementation accumulates through BLAS dot products with an
unspecified summation order no portable C loop can reproduce.

Environment knobs
-----------------
``REPRO_NATIVE_DIR``
    Build-cache directory (default ``~/.cache/repro_native``). The
    compiled library lands there as ``repro_native_<hash>.so`` next to a
    ``build.log``; a matching hash on a later run loads without
    recompiling.
``REPRO_NO_NATIVE``
    Any value other than ``""``/``"0"`` disables the subsystem entirely:
    :func:`native_kernels` returns ``None`` and every caller silently
    falls back to the NumPy kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* r = b - A x over a CSR matrix, bit-identical to b - A.matvec(x):
 * each row's products data[k] * x[indices[k]] are added, in storage
 * order, into a sum that starts at 0.0 (np.bincount's order), and b is
 * subtracted last. */
void repro_residual(int64_t n, const int64_t *indptr, const int64_t *indices,
                    const double *data, const double *x, const double *b,
                    double *r)
{
    int64_t i, k;
    for (i = 0; i < n; i++) {
        double acc = 0.0;
        for (k = indptr[i]; k < indptr[i + 1]; k++) {
            double g = data[k] * x[indices[k]];
            acc += g;
        }
        r[i] = b[i] - acc;
    }
}

/* One whole-rank relax over the rank's compacted local CSR (int64 row
 * pointers, int32 columns into lb), bit-identical to the simulator's
 * buffered NumPy closure:
 *   lb[:m] = x[rows]
 *   mv     = bincount(rowid, data * lb[indices], minlength=m)
 *   pend   = lb[:m] + dinv * (b - mv)
 * plus, when mom_prev is given, the second-order Richardson tail
 *   pend  += beta * (lb[:m] - mom_prev);  mom_prev = lb[:m]
 * Each row sums in storage order from 0.0, as bincount does. */
static void relax_one(int64_t m, const double *x, const int64_t *rows,
                      double *lb, const int64_t *indptr,
                      const int32_t *indices, const double *data,
                      const double *b_loc, const double *dinv_loc,
                      double *pend, double beta, double *mom_prev)
{
    int64_t i, k;
    for (i = 0; i < m; i++)
        lb[i] = x[rows[i]];
    for (i = 0; i < m; i++) {
        double own = lb[i], acc = 0.0;
        for (k = indptr[i]; k < indptr[i + 1]; k++) {
            double g = data[k] * lb[indices[k]];
            acc += g;
        }
        double t = b_loc[i] - acc;
        t = dinv_loc[i] * t;
        double p = own + t;
        if (mom_prev) {
            double d = own - mom_prev[i];
            d = beta * d;
            p = p + d;
            mom_prev[i] = own;
        }
        pend[i] = p;
    }
}

/* One block commit: x[rows] = pend and the observer's residual
 * update, bit-identical to
 *   dx = pend - own;  plan.apply(r_vec, dx)
 * where plan is the block's ColumnScatterPlan. Column c's entries are
 * colptr[c]..colptr[c+1] (int32 rows local to the touched span, the
 * plan's storage order), so bins accumulate exactly as its bincount;
 * then the whole span is subtracted (untouched rows subtract 0.0, an
 * IEEE no-op, as in NumPy). binc is a zeroed scratch of length span and
 * is zeroed again before returning. An empty plan (colptr[m] == 0)
 * skips the update, like plan.apply's early return. */
static void commit_one(int64_t m, const int64_t *rows, double *x,
                       const double *own, const double *pend,
                       const int64_t *colptr, const int32_t *local,
                       const double *vals, int64_t base, int64_t span,
                       double *binc, double *r_vec)
{
    int64_t c, i, k;
    for (c = 0; c < m; c++)
        x[rows[c]] = pend[c];
    if (colptr[m] == 0)
        return;
    for (c = 0; c < m; c++) {
        double d = pend[c] - own[c];
        for (k = colptr[c]; k < colptr[c + 1]; k++) {
            double s = vals[k] * d;
            binc[local[k]] += s;
        }
    }
    for (i = 0; i < span; i++)
        r_vec[base + i] -= binc[i];
    memset(binc, 0, (size_t) span * sizeof(double));
}

/* The packed argument row: one int64 per field, pointers as addresses.
 * Its column order is ROW_FIELDS on the Python side. mom_prev == 0
 * drops the momentum tail. */
enum { F_M, F_X, F_ROWS, F_LX, F_INDPTR, F_IDX, F_DATA, F_B, F_DINV, F_PEND,
       F_MOM, F_COLPTR, F_LOCAL, F_VALS, F_BASE, F_SPAN, F_BINC, F_RVEC };
#define P(type, f) ((type) (intptr_t) row[f])

void repro_relax(const int64_t *row, double beta)
{
    relax_one(row[F_M], P(const double *, F_X), P(const int64_t *, F_ROWS),
              P(double *, F_LX), P(const int64_t *, F_INDPTR),
              P(const int32_t *, F_IDX), P(const double *, F_DATA),
              P(const double *, F_B), P(const double *, F_DINV),
              P(double *, F_PEND), beta, P(double *, F_MOM));
}

/* One whole block iteration of the block loop: relax, then commit. */
void repro_relax_commit(const int64_t *row, double beta)
{
    repro_relax(row, beta);
    commit_one(row[F_M], P(const int64_t *, F_ROWS), P(double *, F_X),
               P(const double *, F_LX), P(const double *, F_PEND),
               P(const int64_t *, F_COLPTR), P(const int32_t *, F_LOCAL),
               P(const double *, F_VALS), row[F_BASE], row[F_SPAN],
               P(double *, F_BINC), P(double *, F_RVEC));
}
"""

#: Compile flags. ``-ffp-contract=off`` is load-bearing: contraction into
#: FMAs would round the relax chain differently from NumPy's separate
#: multiply/add kernels and break the bit-identity contract.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_PFX = "repro_native_"

# Module-level probe cache: (attempted, NativeKernels-or-None).
_cache: list = [False, None]


class NativeBuildError(RuntimeError):
    """Compilation of the native kernel library failed."""


class NativeLayoutError(ValueError):
    """A block is too large for the kernels' int32 index layout."""


#: Exclusive bound of the int32 index streams (local columns, span rows).
INT32_LIMIT = 2**31

#: Columns of the packed argument row ``repro_relax`` and
#: ``repro_relax_commit`` read (the C ``enum`` order): one int64 per
#: field, buffers as raw addresses. ``mom_prev = 0`` drops the momentum
#: tail.
ROW_FIELDS = (
    "m", "x", "rows", "local_x", "indptr", "indices", "data", "b", "dinv",
    "pend", "mom_prev", "colptr", "local", "vals", "base", "span", "binc",
    "r_vec",
)


def int32_index(idx, extent: int, what: str) -> np.ndarray:
    """``idx`` (indices into ``range(extent)``) as a fresh int32 array.

    Raises :class:`NativeLayoutError` when ``extent`` reaches 2^31, so a
    block the compact layout cannot address fails loudly instead of
    wrapping around or switching to another path.
    """
    if extent >= INT32_LIMIT:
        raise NativeLayoutError(
            f"{what} has {extent} entries; the native kernels index it "
            f"with int32 (< 2**31)"
        )
    return np.asarray(idx).astype(np.int32)


class NativeKernels:
    """A loaded native kernel library plus its build provenance."""

    __slots__ = ("lib", "path", "build_ms", "residual_fn", "relax",
                 "relax_commit")

    def __init__(self, lib: ctypes.CDLL, path: Path, build_ms: float):
        self.lib = lib
        self.path = path
        #: Wall-clock milliseconds spent compiling *in this process*
        #: (0.0 when the content-hash cache already held the library).
        self.build_ms = build_ms
        i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        fn = lib.repro_residual
        fn.restype = None
        fn.argtypes = [i64] + [ptr] * 6
        self.residual_fn = fn
        fn = lib.repro_relax
        fn.restype = None
        fn.argtypes = [ptr, dbl]
        self.relax = fn
        fn = lib.repro_relax_commit
        fn.restype = None
        fn.argtypes = [ptr, dbl]
        self.relax_commit = fn

    def residual(self, A, x, b, out) -> np.ndarray:
        """``out[:] = b - A x``, bit-identical to ``b - A.matvec(x)``.

        ``A`` is a :class:`~repro.matrices.sparse.CSRMatrix`; ``x`` (length
        ``A.ncols``), ``b`` and ``out`` (length ``A.nrows``) are contiguous
        float64 vectors, and ``out`` must not overlap ``x`` or ``b``
        (``ValueError`` otherwise). Returns ``out``.
        """
        for name, v, size in (("x", x, A.ncols), ("b", b, A.nrows),
                              ("out", out, A.nrows)):
            if (v.dtype != np.float64 or v.shape != (size,)
                    or not v.flags.c_contiguous):
                raise ValueError(
                    f"{name} must be a contiguous float64 vector of length "
                    f"{size}, got {v.dtype} {v.shape}"
                )
        if np.may_share_memory(out, x) or np.may_share_memory(out, b):
            raise ValueError("out must not overlap x or b")
        c = np.ascontiguousarray
        self.residual_fn(
            A.nrows, c(A.indptr).ctypes.data, c(A.indices).ctypes.data,
            c(A.data).ctypes.data, x.ctypes.data, b.ctypes.data,
            out.ctypes.data,
        )
        return out


def _disabled() -> bool:
    return os.environ.get("REPRO_NO_NATIVE", "") not in ("", "0")


def cache_dir() -> Path:
    """The build-cache directory (honors ``REPRO_NATIVE_DIR``)."""
    env = os.environ.get("REPRO_NATIVE_DIR", "")
    if env:
        return Path(env)
    try:
        home = Path.home()
    except (RuntimeError, OSError):  # no resolvable home: shared tempdir
        return Path(tempfile.gettempdir()) / "repro_native"
    return home / ".cache" / "repro_native"


def _compiler() -> str | None:
    cc = os.environ.get("CC") or "cc"
    return shutil.which(cc)


def source_hash() -> str:
    """Content hash naming the compiled library (source + flags)."""
    h = hashlib.sha256()
    h.update(_C_SOURCE.encode())
    h.update(" ".join(_CFLAGS).encode())
    return h.hexdigest()[:16]


def _build(cc: str, directory: Path) -> Path:
    """Compile into the cache dir; atomic rename makes races benign."""
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / f"{_PFX}{source_hash()}.so"
    if out.exists():
        return out
    src = directory / f"{_PFX}{source_hash()}.c"
    src.write_text(_C_SOURCE)
    tmp = directory / f"{_PFX}{source_hash()}.{os.getpid()}.tmp.so"
    cmd = [cc, *_CFLAGS, str(src), "-o", str(tmp)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    log = directory / "build.log"
    log.write_text(
        f"$ {' '.join(cmd)}\nexit {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}\n"
    )
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise NativeBuildError(
            f"cc failed (exit {proc.returncode}); see {log}"
        )
    os.replace(tmp, out)
    return out


def native_kernels() -> NativeKernels | None:
    """The process-wide kernel library, or ``None`` when unavailable.

    First call probes the toolchain and compiles (or cache-loads) the
    library; later calls return the memoized result. Every failure mode —
    ``REPRO_NO_NATIVE`` set, no compiler on PATH, compilation or load
    error — yields ``None`` so callers degrade to the NumPy kernels.
    """
    if _cache[0]:
        return _cache[1]
    _cache[0] = True
    _cache[1] = None
    if _disabled():
        return None
    cc = _compiler()
    if cc is None:
        return None
    try:
        t0 = time.perf_counter()
        path = cache_dir() / f"{_PFX}{source_hash()}.so"
        build_ms = 0.0
        if not path.exists():
            path = _build(cc, cache_dir())
            build_ms = (time.perf_counter() - t0) * 1e3
        lib = ctypes.CDLL(str(path))
        _cache[1] = NativeKernels(lib, path, build_ms)
    except (NativeBuildError, OSError):
        _cache[1] = None
    return _cache[1]


def native_available() -> bool:
    """Cheap probe: can the compiled kernels actually run here?"""
    return native_kernels() is not None


def build_info() -> dict:
    """Provenance for logs/CI artifacts (never raises)."""
    k = native_kernels()
    return {
        "available": k is not None,
        "disabled": _disabled(),
        "compiler": _compiler(),
        "cache_dir": str(cache_dir()),
        "source_hash": source_hash(),
        "library": str(k.path) if k is not None else None,
        "build_ms": k.build_ms if k is not None else None,
    }


def _reset_probe_cache() -> None:
    """Forget the memoized probe (tests flip env knobs between calls)."""
    _cache[0] = False
    _cache[1] = None
