"""Baseline simulators used by the paper's evaluation.

The paper compares qTask against Qulacs and Qiskit, two optimized C++
state-vector simulators that support circuit modification but *re-simulate
the whole circuit* on every update.  Neither ships in this offline
environment, so the package provides one in-repo stand-in that preserves the
property the experiments measure (full re-simulation on every update) while
running on the same machine and runtime as qTask, plus the tests' oracle:

* :class:`QulacsLikeSimulator` -- an optimized numpy state-vector engine with
  specialized diagonal/permutation kernels and a reshape-based dense kernel,
  on one thread (the "fast full simulator" role of Qulacs);
* :class:`DenseReferenceSimulator` -- an intentionally naive full-matrix
  simulator used as ground truth in the test suite.

See docs/architecture.md for where they sit beside the engine; the ledger
(benchmarks/ledger/README.md) takes every ratio against
:class:`QulacsLikeSimulator` in the same process.
"""

from .base import BaselineResult, BaselineSimulator
from .dense import DenseReferenceSimulator
from .statevector import QulacsLikeSimulator

__all__ = [
    "BaselineResult",
    "BaselineSimulator",
    "DenseReferenceSimulator",
    "QulacsLikeSimulator",
]
