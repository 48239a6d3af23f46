"""The training step's inner loops in C: the fused AdamW step and the sparse
row sums behind the first layer's products, compiled into one library with the
system C compiler and loaded through ctypes.

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

Training calls :func:`load` before its first step. It builds the library if
needed and decides for the whole process: where the compiler is missing, the
build or the load fails, the library lacks a kernel, or the cache directory
cannot be written, both kernels are off and their callers use numpy. Callers
ask :func:`loaded`, which never builds, so commands that never train build
and load nothing and keep the numpy paths.
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
# keeps the arithmetic loop free of exits and so vectorized.
# The decay term is added even when weight decay is 0, so that theta streams
# through the arithmetic loop. For a finite theta, theta * 0.0 is a signed zero
# that can only turn an update of -0.0 into +0.0, where theta >= +0.0, and
# theta minus either zero gives the same bits.
#
# sepll_row_sums: every output element adds its terms left to right from 0.0,
# the order of numpy's blocked loop in nnet._row_sums and of scipy's CSR
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

/* One AdamW step over n elements, in place on theta, m and v; u is scratch of
   at least CHUNK doubles. Returns -1, or the index of the first non-finite
   update: m and v then hold the step up to the end of its chunk, theta up to
   the start of it. */
SEPLL_DISPATCH
long long sepll_adamw(double *theta, const double *grad, double *m, double *v,
                      double *u, long long n, double beta1, double one_minus_beta1,
                      double beta2, double one_minus_beta2, double bc1, double bc2,
                      double lr, double eps, double decay)
{
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
    adamw.argtypes = [doubles] * 5 + [ctypes.c_longlong] + [ctypes.c_double] * 9
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
