"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark's shared virtual machine switches between speed states about
1.7x apart, for seconds to minutes at a time, so whole runs can land in one
state.  The benchmark times this kernel between request blocks and scales
every request time to the speed at which the kernel takes
:data:`REFERENCE_S`.  The kernel runs no ``mzgauss`` code, so a change to the
program cannot move it; it mixes the kinds of work the workloads do (Python
bytecode, small numpy calls, small dense and sparse linear algebra) so that a
speed state slows it about as much as it slows a request.
"""

from __future__ import annotations

import math
import time

import numpy
import scipy.sparse

REFERENCE_S = 0.010  # kernel time at the reference speed, near its fast-state time

_rng = numpy.random.default_rng(20191209)
_DENSE = _rng.standard_normal((60, 60)) / 60.0
_SIZE = 3721  # the oracle's two-mode dimension at n_max = 60
# built from index lists: scipy.sparse.random would add ~90 MB to peak_rss_mb
_SPARSE = scipy.sparse.csr_matrix(
    (_rng.standard_normal(7 * _SIZE),
     (_rng.integers(0, _SIZE, 7 * _SIZE), _rng.integers(0, _SIZE, 7 * _SIZE))),
    shape=(_SIZE, _SIZE))
_VECTOR = _rng.standard_normal(_SIZE)


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(27000):
        acc += math.sin(i * 0.001) * (i % 7)
        table[i % 97] = acc
    x = numpy.linspace(0.0, 1.0, 64)
    for _ in range(400):
        x = numpy.cos(x) * 0.5 + numpy.sqrt(numpy.abs(x))
    a = _DENSE.copy()
    for _ in range(27):
        a = a @ _DENSE
        a /= numpy.abs(a).max()  # stay clear of subnormal numbers
    v = _VECTOR
    for _ in range(53):
        v = _SPARSE @ v
        v /= numpy.linalg.norm(v)
    return acc + float(x[0]) + float(a[0, 0]) + float(v[0])


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
