"""The model's inner loops in C: the fused AdamW step and the sparse row sums
behind the first layer's products, compiled into one library with the
system C compiler and loaded through ctypes, with their numpy equivalents.

The shared library is cached in ``$XDG_CACHE_HOME/sepll`` (``~/.cache/sepll``
when the variable is unset) under a name derived from the sha256 of the
source, the compiler flags and the machine type, so a changed kernel gets a
new file and a cached one is never rebuilt. A build writes a temporary file
in that directory and renames it into place, so commands that start at once
each load a complete library.

On x86-64 with glibc each kernel is compiled once per instruction set in
:data:`DISPATCH`, and the loader picks the widest one the CPU has; so the
cache key needs no CPU model, and one cached library runs on any x86-64
machine. Elsewhere the kernels are compiled for the compiler's default target.

Callers use :func:`adamw` and :func:`row_sums`, which run the kernel where it
loaded and numpy otherwise; both paths give every element the same operations
in the same order, so the same bits. The first call of either in a process
calls :func:`load`, which builds the library if needed, loads it and decides
for the rest of the process: where the compiler is missing, the build or the
load fails, the library lacks a kernel, or the cache directory cannot be
written, both kernels are off and numpy runs. A command that never multiplies
or steps builds and loads nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# Each element gets its numpy path's operation sequence: no contraction into
# fused multiply-adds and no reassociation (so no -ffast-math), and
# -fno-math-errno only lets sqrt compile to the sqrt instruction, which rounds
# correctly, as numpy's does. Every clone target is built under these flags,
# so the vector width changes how many elements one instruction handles, never
# an element's result.
#
# sepll_adamw: updates of a chunk are checked in a pass of their own, which
# keeps the arithmetic loop free of exits and so vectorized. Its scratch for
# one chunk's updates lives on the stack. It walks a block of rows in runs that
# share one gradient source: consecutive given rows read theirs from grad, and
# the rows between them read +0.0 from a static zero chunk, so no caller needs
# a gradient the size of the block. Its caller has checked the row list.
# Both paths add the decay term even when weight decay is 0, so that theta
# streams through the arithmetic loop and an overflowed theta fails the check.
# For a finite theta, theta * 0.0 is a signed zero that can only turn an update
# of -0.0 into +0.0, where theta >= +0.0, and theta minus either zero gives the
# same bits.
#
# sepll_row_sums: every output element adds its terms left to right from 0.0,
# the order of numpy's blocked loop in row_sums and of scipy's CSR
# products. Its caller has checked every index it reads.
#
# AVX2 carries most of the dispatch's gain. Each kernel built for one target
# alone, at wide-vocab shapes (1,042,264 parameters; a 16-row batch, 256 wide),
# on a 2-vCPU 2.1 GHz Xeon with AVX-512, median of three runs: AdamW step
# 3.4 / 2.8 / 2.7 ms (5.1 / 4.5 / 4.2 ms with three divisions an element) and
# forward row sums 106 / 91 / 87 us for the baseline, AVX2 and AVX-512F builds.
# So an AVX2-only CPU gains nearly as much as this one.
CHUNK = 4096  # elements whose updates are checked before any of them is applied
DISPATCH = '__attribute__((target_clones("avx512f", "avx2", "default")))'
SOURCE = f"#define CHUNK {CHUNK}\n" + r"""
#include <math.h>

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SEPLL_DISPATCH """ + DISPATCH + r"""
#endif
#endif
#ifndef SEPLL_DISPATCH
#define SEPLL_DISPATCH
#endif

/* One AdamW step over the n_rows x width block of theta, m and v (row-major),
   in place. grad holds, one after another, the gradient rows of the k
   ascending, distinct row indices in rows; every other row's gradient is +0.0.
   Returns -1, or the index in the block of the first non-finite update: m and v
   then hold the step up to the end of its chunk, theta up to the start of it. */
SEPLL_DISPATCH
long long sepll_adamw(double *theta, double *m, double *v, long long n_rows, long long width,
                      const long long *rows, long long k, const double *grad,
                      double beta1, double one_minus_beta1, double beta2, double one_minus_beta2,
                      double step_size, double eps_hat, double decay)
{
    static const double zero[CHUNK];
    double u[CHUNK];
    long long j = 0;
    for (long long r = 0; r < n_rows;) {
        /* rows r..end share one gradient source: given rows that follow each
           other, stored back to back in grad, or the rows before the next given one */
        long long given = j;
        while (j < k && rows[j] == r + (j - given))
            j++;
        long long end = j > given ? r + (j - given) : (j < k ? rows[j] : n_rows);
        const double *run = j > given ? grad + given * width : 0;
        for (long long lo = r * width; lo < end * width; lo += CHUNK) {
            long long n = end * width - lo < CHUNK ? end * width - lo : CHUNK;
            double *th = theta + lo, *mm = m + lo, *vv = v + lo;
            const double *g = run ? run + (lo - r * width) : zero;
            for (long long i = 0; i < n; i++) {
                mm[i] = mm[i] * beta1 + g[i] * one_minus_beta1;
                vv[i] = vv[i] * beta2 + (g[i] * g[i]) * one_minus_beta2;
                u[i] = mm[i] * step_size / (sqrt(vv[i]) + eps_hat);
                u[i] += th[i] * decay;
            }
            int finite = 1;
            for (long long i = 0; i < n; i++)
                finite &= isfinite(u[i]) != 0;
            if (!finite)
                for (long long i = 0;; i++)
                    if (!isfinite(u[i]))
                        return lo + i;
            for (long long i = 0; i < n; i++)
                th[i] -= u[i];
        }
        r = end;
    }
    return -1;
}

/* out[i] = sum_k data[k] * V[indices[k]] over k in [indptr[i], indptr[i + 1]),
   for n rows of w columns each; V is row-major with w columns. */
SEPLL_DISPATCH
void sepll_row_sums(const double *data, const long long *indices,
                    const long long *indptr, long long n,
                    const double *restrict V, long long w, double *restrict out)
{
    for (long long i = 0; i < n; i++) {
        double *restrict o = out + i * w;
        for (long long j = 0; j < w; j++)
            o[j] = 0.0;
        for (long long k = indptr[i]; k < indptr[i + 1]; k++) {
            const double a = data[k];
            const double *restrict row = V + indices[k] * w;
            for (long long j = 0; j < w; j++)
                o[j] += a * row[j];
        }
    }
}
"""
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 60


class Kernels(NamedTuple):
    """The library's entry points, with their argument types set."""

    adamw: Callable
    row_sums: Callable


_UNSET = object()
# the loaded kernels, or None once building or loading them failed
_kernels = _UNSET


def load() -> Kernels | None:
    """The kernels, built and loaded on the first call of the process; None
    where that failed."""
    global _kernels
    if _kernels is _UNSET:
        _kernels = _load()
    return _kernels


# AdamW's moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Elements per block of numpy's AdamW step: 32768 float64 are 256 KiB per
# operand, so one block of theta, m, v and three scratch buffers (the gradient
# and two temporaries) fits a 2 MiB L2 cache, where whole-layer temporaries
# (8 MB for a 4000x256 first layer) stream through main memory once per operation.
BLOCK = 32768
# float64 elements in one row block of numpy's sparse product output (512 KiB)
ROW_BLOCK = 65536


def adamw(
    theta: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    rows: np.ndarray,
    first: np.ndarray,
    rest: np.ndarray,
    step: int,
    lr: float,
    decay: float,
) -> int:
    """Step ``step`` (from 1) of decoupled-weight-decay Adam, in place on the
    vector ``theta`` and its moments ``m`` and ``v``; ``decay`` is ``lr`` times
    the weight decay. The gradient comes in two parts. The first ``theta.size -
    rest.size`` elements are rows of ``first.shape[1]``: ``first`` holds the
    gradient of the ascending, distinct ``rows`` among them, and every other row's
    gradient is +0.0. ``rest`` is the gradient of the elements after them. Each
    element's result is bitwise the whole-array formula ``theta -= m * s /
    (sqrt(v) + e) + decay * theta`` on that gradient made dense, where the step
    size ``s = lr * sqrt(bc2) / bc1`` and ``e = EPS * sqrt(bc2)`` fold both bias
    corrections into two scalars of the step (Kingma & Ba, section 2): in real
    arithmetic the textbook ``lr * (m / bc1) / (sqrt(v / bc2) + EPS)``, with one
    division per element in place of three.

    Returns -1, or the index of the first non-finite update; the arrays are
    then left partly updated. Arrays that disagree in shape, and rows that are
    not ascending indices of the first part, raise ``ValueError`` before any
    array is written.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    width = first.shape[1] if first.ndim == 2 else -1
    split = theta.size - rest.size
    n_rows = split // width if width > 0 else 0
    if (
        {a.shape for a in (theta, m, v)} != {(theta.size,)}
        or rest.ndim != 1
        or width < 0
        or n_rows * width != split
        or rows.shape != first.shape[:1]
    ):
        shapes = [a.shape for a in (theta, m, v, rows, first, rest)]
        raise ValueError(f"AdamW arrays disagree in shape: {shapes}")
    if rows.size and not (rows[0] >= 0 and rows[-1] < n_rows and np.all(rows[1:] > rows[:-1])):
        raise ValueError(f"AdamW gradient rows are not ascending indices of {n_rows} rows")
    root_bc2 = math.sqrt(1.0 - BETA2**step)
    step_size, eps_hat = lr * root_bc2 / (1.0 - BETA1**step), EPS * root_bc2
    blocks = (
        (0, (n_rows, width), rows, first),
        (split, (1, rest.size), ONE_ROW, rest.reshape(1, -1)),  # the rest as one row
    )
    for lo, shape, block_rows, grad in blocks:
        block = (a[lo : lo + math.prod(shape)].reshape(shape) for a in (theta, m, v))
        bad = _adamw_block(*block, block_rows, grad, step_size, eps_hat, decay)
        if bad >= 0:
            return lo + bad
    return -1


# the row list of a block that is one dense row
ONE_ROW = np.zeros(1, dtype=np.int64)


def _adamw_block(theta, m, v, rows, grad, step_size, eps_hat, decay) -> int:
    """:func:`adamw` on one (n_rows, width) block of C-contiguous views, for a
    checked gradient of ``rows``; returns -1 or the index in the block."""
    (n_rows, width), grad = theta.shape, np.ascontiguousarray(grad, dtype=np.float64)
    kernels = load()
    if kernels is not None:
        return kernels.adamw(
            theta, m, v, n_rows, width, rows, rows.size, grad,
            BETA1, 1.0 - BETA1, BETA2, 1.0 - BETA2, step_size, eps_hat, decay,
        )  # fmt: skip
    if theta.size == 0:
        return -1
    # numpy walks the block in pieces of at most BLOCK elements: whole rows, or
    # pieces of one row wider than that. Each piece gets its gradient in scratch,
    # +0.0 where no given row falls, and goes through out= and in-place ufuncs.
    per = max(1, BLOCK // width)
    span = min(width, BLOCK)
    scratch, finite_scratch = np.empty((3, BLOCK)), np.empty(BLOCK, dtype=bool)
    for r in range(0, n_rows, per):
        a, b = np.searchsorted(rows, (r, r + per))  # the given rows among r..r+per
        for c in range(0, width, span):
            th, mm, vv = (x[r : r + per, c : c + span] for x in (theta, m, v))
            u, w, g = (s[: th.size].reshape(th.shape) for s in scratch)
            finite = finite_scratch[: th.size].reshape(th.shape)
            g.fill(0.0)
            g[rows[a:b] - r] = grad[a:b, c : c + span]
            mm *= BETA1
            np.multiply(g, 1.0 - BETA1, out=u)
            mm += u
            vv *= BETA2
            np.multiply(g, g, out=u)
            u *= 1.0 - BETA2
            vv += u
            np.multiply(mm, step_size, out=u)
            np.sqrt(vv, out=w)
            w += eps_hat
            u /= w
            np.multiply(th, decay, out=w)
            u += w
            if not np.isfinite(u, out=finite).all():
                i, j = divmod(int(np.argmin(finite)), th.shape[1])
                return (r + i) * width + c + j
            th -= u
    return -1


def row_sums(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``out[i] = sum_k data[k] * V[indices[k]]`` over row ``i``'s nonzeros ``k``,
    added left to right from 0.0, for a structure its caller has checked.

    Without the kernel, numpy works through blocks of rows small enough to stay
    cache-resident. Within a block, step ``j`` adds the ``j``-th term of every
    row that has one; rows go longest first, so the rows still active at step
    ``j`` are a prefix.
    """
    n = indptr.size - 1
    out = np.empty((n, V.shape[1]))
    kernels = load()
    if kernels is not None:
        data, indices, indptr, V = map(np.ascontiguousarray, (data, indices, indptr, V))
        kernels.row_sums(data, indices, indptr, n, V, V.shape[1], out)
        return out
    block = max(1, ROW_BLOCK // max(V.shape[1], 1))
    for lo in range(0, n, block):
        ptr = indptr[lo : lo + block + 1]
        lengths = np.diff(ptr)
        order = np.argsort(-lengths, kind="stable")
        active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # active[j] = #rows longer than j
        # The block's terms in step order: step j holds term j of rows order[:active[j]].
        step = np.repeat(np.arange(active.size), active)
        first = np.cumsum(active) - active  # where each step's terms start
        pos = ptr[:-1][order][np.arange(step.size) - first[step]] + step
        cols, coef = indices[pos], data[pos, None]
        sums = np.zeros((lengths.size, V.shape[1]))
        for f, k in zip(first.tolist(), active.tolist()):
            terms = V[cols[f : f + k]]
            terms *= coef[f : f + k]
            sums[:k] += terms
        out[lo + order] = sums
    return out


def library_path() -> Path:
    """Where the shared library is cached, named by source, flags and machine."""
    key = hashlib.sha256("\0".join([SOURCE, *FLAGS, platform.machine()]).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return cache / "sepll" / f"kernels-{key.hexdigest()[:16]}.so"


def bind(library: ctypes.CDLL) -> Kernels:
    """The kernels of a loaded library; AttributeError where one is missing."""
    doubles = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    longs = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    adamw, row_sums = library.sepll_adamw, library.sepll_row_sums
    adamw.argtypes = [doubles] * 3 + [ctypes.c_longlong] * 2 + [longs, ctypes.c_longlong, doubles]
    adamw.argtypes += [ctypes.c_double] * 7
    adamw.restype = ctypes.c_longlong
    row_sums.argtypes = [doubles, longs, longs, ctypes.c_longlong, doubles, ctypes.c_longlong, doubles]
    row_sums.restype = None
    return Kernels(adamw, row_sums)


def _load() -> Kernels | None:
    try:
        path = library_path()
        if not path.exists():
            _build(path)
        return bind(ctypes.CDLL(str(path)))
    except (OSError, RuntimeError, AttributeError):
        # RuntimeError: Path.home() found no home directory; AttributeError: a
        # library at the cache path that lacks a kernel
        return None


def _build(path: Path) -> None:
    """Compile the source into ``path`` through a temporary file beside it; a
    failed or timed-out compile raises OSError."""
    # imported here, not at the top: a process that loads a cached library
    # never starts a compiler and does not pay for the import
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".kernels-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *FLAGS, "-x", "c", "-", "-o", tmp],
            input=SOURCE.encode(),
            capture_output=True,
            timeout=COMPILE_TIMEOUT_S,
            check=True,
        )
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cannot compile the native kernels: {exc}") from exc
    finally:
        Path(tmp).unlink(missing_ok=True)
