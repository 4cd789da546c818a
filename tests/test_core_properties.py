"""Property tests for the one-definition numerical helpers.

`sym_eig` must be a slice of `_sym_eig_stack` wherever the matrix sits in
a stack, keep the package sign convention, and give bit-identical results
under power-of-two rescaling; `SumOfSquares` must accept what
`sums_of_squares` builds, and its total must match the dense Yc'Yc.  A
stack of estimates must score the bytes that each scores alone under
`mse_up_to_sign`, and the plug-in weight must be `w_star` of its plug-in
summaries.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from allopca import (  # noqa: E402
    AbcdParams,
    Dataset,
    SumOfSquares,
    center_columns,
    mse_up_to_sign,
    sums_of_squares,
    sym_eig,
    w_star,
)
from allopca.core import _sym_eig_stack  # noqa: E402
from allopca.estimators import _plugin_weights  # noqa: E402


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
    rebuilt = SumOfSquares(ss.s_reg, ss.s_resid, n, q)
    assert rebuilt.s_total.tobytes() == ss.s_total.tobytes()
    yc = data.y - data.y.mean(axis=0)
    assert np.abs(ss.s_total - yc.T @ yc).max() <= 1e-9 * np.abs(ss.s_total).max()


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


def _unit_rows(rng, shape):
    g = rng.standard_normal(shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(), (3,)]), st.integers(1, 6), st.integers(2, 400),
       st.integers(0, 2**32 - 1))
def test_stacked_mse_is_the_per_row_np_dot_score(outer, k, p, seed):
    rng = np.random.default_rng(seed)
    stack, g_true = _unit_rows(rng, (*outer, k, p)), _unit_rows(rng, p)
    got = mse_up_to_sign(stack, g_true)
    rows = stack.reshape(-1, p)
    alone = np.array([mse_up_to_sign(g, g_true) for g in rows])
    by_dot = np.array([max(0.0, 2.0 - 2.0 * abs(float(np.dot(g, g_true)))) for g in rows])
    assert got.shape == (*outer, k)
    assert got.tobytes() == alone.reshape(got.shape).tobytes()
    assert got.tobytes() == by_dot.reshape(got.shape).tobytes()
    assert type(mse_up_to_sign(rows[0], g_true)) is float


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(4,), (2, 3)]), st.integers(2, 20), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 1.0 + 1e-6, 3.0, np.nan, np.inf]))
def test_non_unit_row_anywhere_in_a_stack_is_refused(stack_shape, p, seed, scale):
    rng = np.random.default_rng(seed)
    stack, g_true = _unit_rows(rng, (*stack_shape, p)), _unit_rows(rng, p)
    at = tuple(int(rng.integers(0, s)) for s in stack_shape)
    stack[at] *= scale
    with pytest.raises(ValueError, match="must be unit length"):
        mse_up_to_sign(stack, g_true)
    with pytest.raises(ValueError, match="must be unit length"):
        mse_up_to_sign(stack[at], g_true)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(scatter_inputs(), st.integers(1, 4), st.floats(0.0, 3.0))
def test_plugin_raw_weight_is_w_star_of_the_plugin_summaries(shape, k, signal):
    n, p, q, seed = shape
    assume(n > q + 2)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n, q))
    x -= x.mean(axis=1, keepdims=True)
    y = signal * x @ rng.standard_normal((q, p)) + rng.standard_normal((k, n, p))
    fits = [sums_of_squares(Dataset(yi, xi)) for yi, xi in zip(y, x)]
    s_reg = np.stack([ss.s_reg for ss in fits])
    s_resid = np.stack([ss.s_resid for ss in fits])
    fields = _plugin_weights(s_reg, s_resid, np.linalg.eigvalsh(s_resid), n, q)
    for i in range(k):
        try:
            params = AbcdParams(*(fields[f"{v}_hat"][i] for v in "abcd"), q, n)
        except ValueError:  # summaries outside the model's range
            continue
        assert fields["w_hat_raw"][i] == w_star(params)
