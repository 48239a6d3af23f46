"""The fused AdamW step in C, compiled with the system C compiler on first use
and loaded through ctypes.

The shared library is cached in ``$XDG_CACHE_HOME/sepll`` (``~/.cache/sepll``
when the variable is unset) under a name derived from the sha256 of the
source, the compiler flags and the machine type, so a changed kernel gets a
new file and a cached one is never rebuilt. A build writes a temporary file
in that directory and renames it into place, so commands that start at once
each load a complete library.

Where the compiler is missing, the build or the load fails, or the cache
directory cannot be written, :func:`adamw` returns None and the caller uses
its numpy path. The first call decides for the whole process; commands that
never train never build.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

# Each element gets the numpy step's operation sequence: no contraction into
# fused multiply-adds and no reassociation (so no -ffast-math), and
# -fno-math-errno only lets sqrt compile to the sqrt instruction, which rounds
# correctly, as numpy's does.
# Updates of a chunk are checked in a pass of their own, which keeps the
# arithmetic loop free of exits and so vectorized.
# The decay term is added even when weight decay is 0, so that theta streams
# through the arithmetic loop. For a finite theta, theta * 0.0 is a signed zero
# that can only turn an update of -0.0 into +0.0, where theta >= +0.0, and
# theta minus either zero gives the same bits.
CHUNK = 4096  # elements whose updates are checked before any of them is applied
SOURCE = f"#define CHUNK {CHUNK}\n" + r"""
#include <math.h>

/* One AdamW step over n elements, in place on theta, m and v; u is scratch of
   at least CHUNK doubles. Returns -1, or the index of the first non-finite
   update: m and v then hold the step up to the end of its chunk, theta up to
   the start of it. */
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
"""
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 60

_UNSET = object()
# the loaded step, or None once building or loading it failed
_adamw = _UNSET


def adamw():
    """The compiled ``sepll_adamw``, or None where it cannot be built or loaded."""
    global _adamw
    if _adamw is _UNSET:
        _adamw = _load()
    return _adamw


def library_path() -> Path:
    """Where the shared library is cached, named by source, flags and machine."""
    key = hashlib.sha256("\0".join([SOURCE, *FLAGS, platform.machine()]).encode())
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return cache / "sepll" / f"adamw-{key.hexdigest()[:16]}.so"


def _load():
    try:
        path = library_path()
        if not path.exists():
            _build(path)
        step = ctypes.CDLL(str(path)).sepll_adamw
    except (OSError, RuntimeError):
        return None  # RuntimeError: Path.home() found no home directory
    array = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
    step.argtypes = [array, array, array, array, array, ctypes.c_longlong]
    step.argtypes += [ctypes.c_double] * 9
    step.restype = ctypes.c_longlong
    return step


def _build(path: Path) -> None:
    """Compile the source into ``path`` through a temporary file beside it; a
    failed or timed-out compile raises OSError."""
    # imported here, not at the top: a process that loads a cached library
    # never starts a compiler and does not pay for the import
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".adamw-", suffix=".so")
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
        raise OSError(f"cannot compile the AdamW kernel: {exc}") from exc
    finally:
        Path(tmp).unlink(missing_ok=True)
