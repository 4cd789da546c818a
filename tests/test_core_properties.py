"""Property tests for the one symmetric eigensolver and the scatter checks.

`sym_eig` must be a slice of `_sym_eig_stack` wherever the matrix sits in
a stack, keep the package sign convention, and give bit-identical results
under power-of-two rescaling; `SumOfSquares` must accept what
`sums_of_squares` builds and refuse a triple with broken additivity.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from allopca import Dataset, SumOfSquares, center_columns, sums_of_squares, sym_eig  # noqa: E402
from allopca.core import _sym_eig_stack  # noqa: E402


@st.composite
def scatter_inputs(draw):
    """A seeded dataset shape: (n, p, q, seed) with n > 1 + q."""
    q = draw(st.integers(1, 4))
    return (draw(st.integers(q + 2, q + 30)), draw(st.integers(2, 12)), q,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scatter_inputs())
def test_sums_of_squares_pass_the_scatter_checks(shape):
    n, p, q, seed = shape
    rng = np.random.default_rng(seed)
    data = Dataset(rng.standard_normal((n, p)), center_columns(rng.standard_normal((n, q))))
    ss = sums_of_squares(data)
    rebuilt = SumOfSquares(ss.s_reg, ss.s_resid, ss.s_total, n, q)
    assert rebuilt.s_total.tobytes() == ss.s_total.tobytes()
    broken = ss.s_total + 1e-6 * np.abs(ss.s_total).max() * np.eye(p)
    with pytest.raises(ValueError, match=r"s_total != s_reg \+ s_resid: max entry gap"):
        SumOfSquares(ss.s_reg, ss.s_resid, broken, n, q)


def _random_symmetric(rng, p, rank):
    a = rng.standard_normal((p, p))
    m = a[:, :rank] @ a[:, :rank].T if rank < p else a + a.T
    return (m + m.T) / 2.0


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric p x p matrices, p in 2..12: indefinite, or PSD of
    low rank (so with tied zero eigenvalues), some with their peak entry
    one ulp below a power of two."""
    p = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = _random_symmetric(rng, p, draw(st.integers(1, p)))
    if draw(st.booleans()):
        e = int(np.ceil(np.log2(np.abs(m).max()))) + 1
        m[0, 0] = np.nextafter(2.0 ** e, 0.0) * (1.0 if draw(st.booleans()) else -1.0)
    return m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(symmetric_matrices(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_sym_eig_is_a_slice_of_the_stacked_solver(m, before, after, seed):
    rng = np.random.default_rng(seed)
    p = m.shape[0]
    stack = np.stack([_random_symmetric(rng, p, p) for _ in range(before)] + [m]
                     + [_random_symmetric(rng, p, p) for _ in range(after)])
    vals, vecs = _sym_eig_stack(stack)
    eig = sym_eig(m)
    assert eig.values.tobytes() == vals[before].tobytes()
    assert eig.vectors.tobytes() == vecs[before].tobytes()
    assert np.all(np.diff(eig.values) <= 0.0)
    peaks = np.argmax(np.abs(eig.vectors), axis=0)
    assert np.all(eig.vectors[peaks, np.arange(p)] > 0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(symmetric_matrices(), st.integers(-20, 20))
def test_sym_eig_bit_identical_under_power_of_two_rescaling(m, k):
    base = sym_eig(m)
    scaled = sym_eig(np.ldexp(m, k))
    assert scaled.vectors.tobytes() == base.vectors.tobytes()
    assert scaled.values.tobytes() == np.ldexp(base.values, k).tobytes()
