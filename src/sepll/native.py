"""The training step's inner loops in C: the fused AdamW step and the sparse
row sums behind the first layer's products, compiled into one library with the
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

Callers use :func:`adamw` and :func:`row_sums`, which run the kernel where
:func:`load` has loaded it in this process and numpy otherwise; both paths give
every element the same operations in the same order, so the same bits.
Training calls :func:`load` before its first step. It builds the library if
needed and decides for the whole process: where the compiler is missing, the
build or the load fails, the library lacks a kernel, or the cache directory
cannot be written, both kernels are off. Nothing else builds, so commands that
never train build and load nothing and keep the numpy paths.
"""

from __future__ import annotations

import ctypes
import hashlib
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
# one chunk's updates lives on the stack.
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
# 6.0 / 4.6 / 4.4 ms and forward row sums 106 / 91 / 87 us for the baseline,
# AVX2 and AVX-512F builds. So an AVX2-only CPU gains nearly as much as this one.
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

/* One AdamW step over n elements, in place on theta, m and v. Returns -1, or
   the index of the first non-finite update: m and v then hold the step up to
   the end of its chunk, theta up to the start of it. */
SEPLL_DISPATCH
long long sepll_adamw(double *theta, const double *grad, double *m, double *v,
                      long long n, double beta1, double one_minus_beta1,
                      double beta2, double one_minus_beta2, double bc1, double bc2,
                      double lr, double eps, double decay)
{
    double u[CHUNK];
    for (long long lo = 0; lo < n; lo += CHUNK) {
        long long k = n - lo < CHUNK ? n - lo : CHUNK;
        double *th = theta + lo, *mm = m + lo, *vv = v + lo;
        const double *g = grad + lo;
        for (long long i = 0; i < k; i++) {
            mm[i] = mm[i] * beta1 + g[i] * one_minus_beta1;
            vv[i] = vv[i] * beta2 + (g[i] * g[i]) * one_minus_beta2;
            u[i] = (mm[i] / bc1) * lr / (sqrt(vv[i] / bc2) + eps);
            u[i] += th[i] * decay;
        }
        int finite = 1;
        for (long long i = 0; i < k; i++)
            finite &= isfinite(u[i]) != 0;
        if (!finite)
            for (long long i = 0;; i++)
                if (!isfinite(u[i]))
                    return lo + i;
        for (long long i = 0; i < k; i++)
            th[i] -= u[i];
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


def loaded() -> Kernels | None:
    """The kernels if :func:`load` has loaded them in this process; never builds."""
    return None if _kernels is _UNSET else _kernels


# AdamW's moment decay rates and denominator offset
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Elements per block of numpy's AdamW step: 32768 float64 are 256 KiB per
# operand, so one block of theta, grad, m, v and two scratch buffers fits a 2 MiB
# L2 cache, where whole-layer temporaries (8 MB for a 4000x256 first layer)
# stream through main memory once per operation.
BLOCK = 32768
# float64 elements in one row block of numpy's sparse product output (512 KiB)
ROW_BLOCK = 65536


def adamw(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, step: int, lr: float, decay: float) -> int:
    """Step ``step`` (from 1) of decoupled-weight-decay Adam, in place on
    ``theta`` and its moments ``m`` and ``v``; ``decay`` is ``lr`` times the
    weight decay. Each element's result is bitwise the whole-array formula
    ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + EPS) + decay * theta``.

    Returns -1, or the index of the first non-finite update; the arrays are
    then left partly updated. Arrays that disagree in shape raise
    ``ValueError`` before any of them is written.
    """
    shapes = {a.shape for a in (theta, grad, m, v)}
    if len(shapes) != 1:
        raise ValueError(f"AdamW arrays disagree in shape: {shapes}")
    bc1 = 1.0 - BETA1**step
    bc2 = 1.0 - BETA2**step
    kernels = loaded()
    if kernels is not None:
        return kernels.adamw(
            theta, grad, m, v, theta.size, BETA1, 1.0 - BETA1, BETA2, 1.0 - BETA2, bc1, bc2, lr, EPS, decay
        )
    # numpy walks the arrays together in blocks, with out= and in-place ufuncs
    # into one block's scratch
    scratch, finite_scratch = np.empty((2, BLOCK)), np.empty(BLOCK, dtype=bool)
    for lo in range(0, theta.size, BLOCK):
        th, g, mm, vv = (a[lo : lo + BLOCK] for a in (theta, grad, m, v))
        u, w = scratch[:, : th.size]
        finite = finite_scratch[: th.size]
        mm *= BETA1
        np.multiply(g, 1.0 - BETA1, out=u)
        mm += u
        vv *= BETA2
        np.multiply(g, g, out=u)
        u *= 1.0 - BETA2
        vv += u
        np.divide(mm, bc1, out=u)
        u *= lr
        np.divide(vv, bc2, out=w)
        np.sqrt(w, out=w)
        w += EPS
        u /= w
        np.multiply(th, decay, out=w)
        u += w
        if not np.isfinite(u, out=finite).all():
            return lo + int(np.argmin(finite))
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
    kernels = loaded()
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
    adamw.argtypes = [doubles] * 4 + [ctypes.c_longlong] + [ctypes.c_double] * 9
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
