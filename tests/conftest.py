"""Pin BLAS to one thread for the test suite, and share test-side helpers.

On a machine whose cores are shared, OpenBLAS's default thread pool thrashes
and the suite runs several times slower.  BLAS reads its thread count when
numpy is first imported, so the pin is set here, before any test module
imports numpy; a value already in the environment wins.  numpy and tqpsim
are therefore imported only inside the fixtures.  For the same reason the
filter that turns numpy's ComplexWarning (a complex-to-real cast dropping an
imaginary part) into an error is added in `pytest_configure`, not in
pyproject.toml: pytest resolves the ini filters, importing numpy, before it
loads this file.
"""

import os
import sys
import warnings

import pytest

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not pinned")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")


def _dense_segment_product(schedule, params, cutoff, free_matrix):
    """The schedule unitary as a product of dense 2d x 2d segment matrices in
    time order; `free_matrix(t)` gives a free evolution's matrix."""
    import dense_reference as dense
    import numpy as np
    from tqpsim import pulses

    lay = dense.SpaceLayout(1, (cutoff,))
    free: dict[float, np.ndarray] = {}
    u = np.eye(lay.total_dim, dtype=complex)
    for seg in schedule.segments:
        if isinstance(seg, pulses.QubitRotation):
            mat = dense.qubit_rotation(lay, seg.axis, seg.angle)
        elif isinstance(seg, pulses.FreeEvolution):
            if seg.duration not in free:
                free[seg.duration] = free_matrix(seg.duration)
            mat = free[seg.duration]
        else:
            mat = dense.bare_rotation(params.nu, seg.duration, cutoff)
        u = mat @ u
    return u


@pytest.fixture
def measurement_configs():
    """The standard (repetitions, eta) pairs: 50, 100 and 200 phase-calibrated
    sequences (eta = 0.0222, 0.0157, 0.0111)."""
    from tqpsim import pulses

    return tuple((r, pulses.eta_for_repetitions(r)) for r in (50, 100, 200))


@pytest.fixture
def dense_schedule_unitary():
    """``dense_reference.simulate_schedule`` with every free evolution a dense matrix
    exponential of the truncated Hamiltonian, in place of the closed-form
    propagator: the cross-check of the schedule unitary."""
    import dense_reference as dense
    from tqpsim import pulses

    def unitary(schedule, params, cutoff):
        h = pulses.hamiltonian(params, cutoff)
        return _dense_segment_product(
            schedule, params, cutoff, lambda t: dense.matrix_exponential((-1j * t) * h))
    return unitary


@pytest.fixture
def dense_segment_product():
    """The same closed-form segments as ``dense_reference.simulate_schedule``, each
    embedded as a dense 2d x 2d matrix (rotations through ``np.kron``) and
    multiplied in turn: the cross-check of its per-ancilla-level blocks."""
    from tqpsim import pulses

    def unitary(schedule, params, cutoff):
        return _dense_segment_product(
            schedule, params, cutoff,
            lambda t: pulses.exact_free_propagator(params, t, cutoff))
    return unitary
