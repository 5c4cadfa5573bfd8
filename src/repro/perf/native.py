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
NumPy kernels' and to the frozen engine corpus
(``tests/runtime/engine_digests.json``):

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
* ``repro_block_loop`` runs ``DistributedJacobi._block_loop`` for a
  plain run, in the same operation order: a binary heap of events
  ordered by ``(time, seq)`` with the seq counter advanced at the same
  points (one stamp per put, one per virtual START, one per push);
  same-time batches sorted by read cursor ``(ts, sv)``, a convergence
  stopping the rest of its batch; mailboxes flushed at the cursor,
  where every record with ``(arrival, stamp) < (ts, sv)`` counts as
  delivered and only the newest is written to the ghost slots;
  ``repro_relax_commit`` per commit; put arrivals ``t + mb * f[j]``, the
  next START ``t + ((ovbase * f[-1] + puts_const) * slow + extra)`` and
  COMMIT ``nts + (cbase * f[0]) * slow``. Its jitter factors are libm
  ``exp`` of scaled normals Python draws exactly as
  ``PatternJitterStream`` does, and it returns to Python at each
  observation (so the residual 1-norm keeps NumPy's pairwise sum), when
  a rank's chunk of normals runs out, when the mailbox pool must grow,
  and at the end; a call resumes where the last one returned. Its state
  is the C ``loop_t``, mirrored by :class:`BlockLoopState`. A plain run
  takes it whenever the library loads, the method is not the sequential
  kind and every rank's ``delay.constant_extra`` is known (nothing else
  draws from a rank's generator, so its normals can be drawn ahead);
  every other plain run keeps the Python block loop, the reference the
  compiled one is tested against (``SimulationResult.loop`` names it).

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
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
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

/* ---- The plain distributed block loop ------------------------------
 * A heap event: START (a rank's initial wake-up) or COMMIT carrying its
 * virtual read cursor (ts, sv); a START's cursor is its own (t, s). */
typedef struct { double t; int64_t s, kind, rid; double ts; int64_t sv; } ev_t;

enum { EV_START, EV_COMMIT };
enum { BL_DONE, BL_OBSERVE, BL_REFILL, BL_GROW };
enum { PH_NEXT, PH_EVENT, PH_OBSERVED, PH_REFILLED };

/* One run's loop state. Python owns every buffer; its mirror is
 * BlockLoopState, field for field. */
typedef struct {
    int64_t n_ranks, max_iter, observe_every, row_stride, W;
    double beta, ovbase;
    int64_t *nat_tab;
    double *cbase, *slow, *cextra, *puts_const;
    int64_t *nrows, *iters;
    int64_t *out_ptr, *in_ptr, *in_edges, *e_lo, *e_w, *e_slots, *e_gbase;
    int64_t *row_off, *cat_ptr;
    double *e_mb, *pend, *loc;
    int64_t *width, *fac_off;
    double *fac;
    int64_t *ch_ptr, *ch_len, *ch_pos;
    ev_t *heap, *batch;
    int64_t heap_n, batch_n, batch_i;
    int64_t n_edges, *edge_head, *slot_s, *slot_next, *free_stack, *slot_ptr;
    double *slot_t;
    int64_t free_top;
    int64_t seq, relaxations, commits_since_obs, delivered, puts_sent;
    int64_t converged, conv_set, conv_s, phase, need, nsv;
    double t_end, nts, conv_t;
    ev_t cur;
} loop_t;

int64_t repro_block_loop_state_size(void) { return (int64_t) sizeof(loop_t); }

static int ev_before(const ev_t *a, const ev_t *b)
{
    return a->t < b->t || (a->t == b->t && a->s < b->s);
}

static void heap_push(ev_t *h, int64_t *n, const ev_t *e)
{
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!ev_before(e, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = *e;
}

static ev_t heap_pop(ev_t *h, int64_t *n)
{
    ev_t top = h[0], last = h[--(*n)];
    int64_t i = 0, m = *n;
    if (m == 0)
        return top;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= m)
            break;
        if (c + 1 < m && ev_before(&h[c + 1], &h[c]))
            c++;
        if (!ev_before(&h[c], &last))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = last;
    return top;
}

/* Same-time batch order: by read cursor (seqs are unique, so no ties). */
static int cursor_cmp(const void *pa, const void *pb)
{
    const ev_t *a = pa, *b = pb;
    if (a->ts != b->ts)
        return a->ts < b->ts ? -1 : 1;
    return (a->sv > b->sv) - (a->sv < b->sv);
}

/* Deliver, on every edge into rank rid, the records that arrival-precede
 * the read cursor (ts, sv): count each, write only the newest by
 * (arrival, stamp) into the ghost slots, free their pool slots. Edge e
 * writes e_w[e] values to loc[e_gbase[e] + slots[i]], slots being the
 * int64 array at address e_slots[e]. */
static void flush(loop_t *L, int64_t rid, double ts, int64_t sv)
{
    int64_t k, j;
    for (k = L->in_ptr[rid]; k < L->in_ptr[rid + 1]; k++) {
        int64_t e = L->in_edges[k], best = -1, i;
        int64_t *link = &L->edge_head[e];
        while ((i = *link) >= 0) {
            double a = L->slot_t[i];
            if (a < ts || (a == ts && L->slot_s[i] < sv)) {
                L->delivered++;
                *link = L->slot_next[i];
                if (best < 0 || a > L->slot_t[best]
                    || (a == L->slot_t[best] && L->slot_s[i] > L->slot_s[best])) {
                    if (best >= 0)
                        L->free_stack[L->free_top++] = best;
                    best = i;
                } else
                    L->free_stack[L->free_top++] = i;
            } else
                link = &L->slot_next[i];
        }
        if (best >= 0) {
            const double *v = (const double *) (intptr_t) L->slot_ptr[best];
            const int64_t *slots = (const int64_t *) (intptr_t) L->e_slots[e];
            double *ghosts = L->loc + L->e_gbase[e];
            for (j = 0; j < L->e_w[e]; j++)
                ghosts[slots[j]] = v[j];
            L->free_stack[L->free_top++] = best;
        }
    }
}

/* Records still boxed at exit: after a convergence, those that
 * arrival-precede the converging event (conv_t, conv_s); after a drained
 * heap, all of them. */
static void exit_tails(loop_t *L)
{
    int64_t e, i;
    if (!L->conv_set && L->converged)
        return;
    for (e = 0; e < L->n_edges; e++)
        for (i = L->edge_head[e]; i >= 0; i = L->slot_next[i])
            if (!L->conv_set || L->slot_t[i] < L->conv_t
                || (L->slot_t[i] == L->conv_t && L->slot_s[i] < L->conv_s))
                L->delivered++;
}

/* Runs the block loop until the heap drains or the run converges
 * (BL_DONE), or until Python is needed: an observation point
 * (BL_OBSERVE; Python records it and sets `converged`), a rank whose
 * factor chunk ran out (BL_REFILL; rank `need`), or a pool too small
 * for the next commit's puts (BL_GROW; `need` free slots). Calling it
 * again resumes at `phase`. */
int64_t repro_block_loop(loop_t *L)
{
    ev_t *ev = &L->cur;
    int64_t rid, e, j, k, i, w;
    double t, *fac;

    switch (L->phase) {
    case PH_EVENT: goto event;
    case PH_OBSERVED: goto observed;
    case PH_REFILLED: goto refilled;
    default: break;
    }
next:
    if (L->converged)
        goto done;
    if (L->batch_i == L->batch_n) {
        if (L->heap_n == 0)
            goto done;
        L->batch[0] = heap_pop(L->heap, &L->heap_n);
        L->batch_n = 1;
        while (L->heap_n && L->heap[0].t == L->batch[0].t)
            L->batch[L->batch_n++] = heap_pop(L->heap, &L->heap_n);
        if (L->batch_n > 1)
            qsort(L->batch, (size_t) L->batch_n, sizeof(ev_t), cursor_cmp);
        L->batch_i = 0;
    }
    *ev = L->batch[L->batch_i++];
event:
    rid = ev->rid;
    if (ev->kind == EV_START) {
        L->nts = ev->t;
        L->nsv = ev->s;
        goto draw;
    }
    k = L->out_ptr[rid + 1] - L->out_ptr[rid];
    if (L->free_top < k) {
        L->phase = PH_EVENT;
        L->need = k;
        return BL_GROW;
    }
    flush(L, rid, ev->ts, ev->sv);
    repro_relax_commit(L->nat_tab + rid * L->row_stride, L->beta);
    L->iters[rid]++;
    L->relaxations += L->nrows[rid];
    t = L->t_end = ev->t;
    fac = L->fac + L->fac_off[rid];
    /* Put e copies the rank's pending rows cat_rows[e_lo[e]:][:e_w[e]],
     * cat_rows being the int64 array at address cat_ptr[rid]. */
    for (e = L->out_ptr[rid], j = 1; e < L->out_ptr[rid + 1]; e++, j++) {
        const int64_t *src = (const int64_t *) (intptr_t) L->cat_ptr[rid] + L->e_lo[e];
        const double *pend = L->pend + L->row_off[rid];
        double *v;
        i = L->free_stack[--L->free_top];
        L->slot_t[i] = t + L->e_mb[e] * fac[j];
        L->slot_s[i] = L->seq++;
        v = (double *) (intptr_t) L->slot_ptr[i];
        for (w = 0; w < L->e_w[e]; w++)
            v[w] = pend[src[w]];
        L->slot_next[i] = L->edge_head[e];
        L->edge_head[e] = i;
    }
    L->puts_sent += k;
    if (++L->commits_since_obs >= L->observe_every) {
        L->commits_since_obs = 0;
        L->phase = PH_OBSERVED;
        return BL_OBSERVE;
    }
observed:
    rid = ev->rid;
    if (L->converged) {
        L->conv_set = 1;
        L->conv_t = ev->t;
        L->conv_s = ev->s;
        goto next;
    }
    if (L->iters[rid] >= L->max_iter)
        goto next;
    fac = L->fac + L->fac_off[rid];
    w = L->width[rid];
    L->nts = ev->t + ((L->ovbase * fac[w - 1] + L->puts_const[rid]) * L->slow[rid]
                      + L->cextra[rid]);
    L->nsv = L->seq++;
draw:
    rid = ev->rid;
    if (L->ch_pos[rid] >= L->ch_len[rid]) {
        L->phase = PH_REFILLED;
        L->need = rid;
        return BL_REFILL;
    }
refilled:
    rid = ev->rid;
    {
        const double *z = (const double *) (intptr_t) L->ch_ptr[rid] + L->ch_pos[rid];
        ev_t nx;
        w = L->width[rid];
        fac = L->fac + L->fac_off[rid];
        for (i = 0; i < w; i++)
            fac[i] = exp(z[i]);
        L->ch_pos[rid] += w;
        nx.t = L->nts + (L->cbase[rid] * fac[0]) * L->slow[rid];
        nx.s = L->seq++;
        nx.kind = EV_COMMIT;
        nx.rid = rid;
        nx.ts = L->nts;
        nx.sv = L->nsv;
        heap_push(L->heap, &L->heap_n, &nx);
    }
    goto next;
done:
    exit_tails(L);
    L->phase = PH_NEXT;
    return BL_DONE;
}
"""

#: Compile flags. ``-ffp-contract=off`` is load-bearing: contraction into
#: FMAs would round the relax chain differently from NumPy's separate
#: multiply/add kernels and break the bit-identity contract.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Libraries linked after the source: libm for the jitter factors' ``exp``.
_LDLIBS = ("-lm",)

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

_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p

#: ``repro_block_loop``'s return codes: done, observe, refill, grow.
BL_DONE, BL_OBSERVE, BL_REFILL, BL_GROW = range(4)


class _Event(ctypes.Structure):
    """The C ``ev_t``: ``kind`` 0 is a rank's initial START, 1 a COMMIT
    with read cursor ``(ts, sv)``; a START's cursor is its own ``(t, s)``."""

    _fields_ = [("t", _F64), ("s", _I64), ("kind", _I64), ("rid", _I64),
                ("ts", _F64), ("sv", _I64)]


#: One heap or batch event of ``repro_block_loop``, as a NumPy record.
EVENT_DTYPE = np.dtype(_Event)


class BlockLoopState(ctypes.Structure):
    """The C ``loop_t`` of ``repro_block_loop``, field for field.

    Pointer fields take raw addresses of run-owned NumPy buffers;
    ``DistributedJacobi._native_block_loop`` fills them and keeps the
    buffers alive for the call sequence.
    """

    _fields_ = [
        *((f, _I64) for f in ("n_ranks", "max_iter", "observe_every",
                              "row_stride", "W")),
        ("beta", _F64), ("ovbase", _F64),
        *((f, _PTR) for f in (
            "nat_tab", "cbase", "slow", "cextra", "puts_const", "nrows",
            "iters", "out_ptr", "in_ptr", "in_edges", "e_lo", "e_w",
            "e_slots", "e_gbase", "row_off", "cat_ptr", "e_mb", "pend",
            "loc", "width", "fac_off", "fac",
            "ch_ptr", "ch_len", "ch_pos", "heap", "batch")),
        *((f, _I64) for f in ("heap_n", "batch_n", "batch_i", "n_edges")),
        *((f, _PTR) for f in ("edge_head", "slot_s", "slot_next",
                              "free_stack", "slot_ptr", "slot_t")),
        *((f, _I64) for f in (
            "free_top", "seq", "relaxations", "commits_since_obs",
            "delivered", "puts_sent", "converged", "conv_set", "conv_s",
            "phase", "need", "nsv")),
        *((f, _F64) for f in ("t_end", "nts", "conv_t")),
        ("cur", _Event),
    ]


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
                 "relax_commit", "block_loop")

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
        size = lib.repro_block_loop_state_size
        size.restype = i64
        if size() != ctypes.sizeof(BlockLoopState):
            raise NativeBuildError("BlockLoopState does not match the C loop_t")
        fn = lib.repro_block_loop
        fn.restype = i64
        fn.argtypes = [ptr]
        self.block_loop = fn

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
    h.update(" ".join(_CFLAGS + _LDLIBS).encode())
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
    cmd = [cc, *_CFLAGS, str(src), "-o", str(tmp), *_LDLIBS]
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
