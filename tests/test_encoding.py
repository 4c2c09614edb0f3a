"""Position codes: sinusoidal time features fused with node embeddings."""

import numpy as np
import pytest

import graphfill.tensor as T
import unfused_ops as U
from graphfill.encoding import EncodingParams, temporal_encoding
from graphfill.errors import ValidationError


def positional_encoding(step, node, params: EncodingParams) -> T.Value:
    """The code q for one (step, node) position, as a d_q vector."""
    if not (0 <= node < params.n_nodes):
        raise ValidationError(f"node {node} out of range [0, {params.n_nodes})")
    u = T.Value(temporal_encoding([step], params.periods))
    v = T.gather_rows(params.spatial, [node])
    q = params.fuse(T.concat([u, v], axis=-1))
    return T.reshape(q, (params.d_q,))


def test_temporal_encoding_shape_and_values():
    u = temporal_encoding([0, 6, 12, 18, 24], periods=(24,))
    assert u.shape == (5, 2)
    want = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0],
                     [0.0, 1.0]])
    assert np.max(np.abs(u - want)) < 1e-12


def test_temporal_encoding_is_periodic():
    rng = np.random.default_rng(0)
    steps = rng.integers(0, 1000, size=50).astype(float)
    u1 = temporal_encoding(steps, periods=(24, 7))
    u2 = temporal_encoding(steps + 24 * 7, periods=(24, 7))
    assert np.max(np.abs(u1 - u2)) < 1e-9


def test_temporal_encoding_multiple_periods_stack():
    u = temporal_encoding([3.0], periods=(24, 12, 6))
    assert u.shape == (1, 6)
    for k, p in enumerate((24, 12, 6)):
        assert abs(u[0, 2 * k] - np.sin(2 * np.pi * 3.0 / p)) < 1e-12
        assert abs(u[0, 2 * k + 1] - np.cos(2 * np.pi * 3.0 / p)) < 1e-12


def test_temporal_encoding_validation():
    with pytest.raises(ValidationError):
        temporal_encoding([1.0], periods=())
    with pytest.raises(ValidationError):
        temporal_encoding([1.0], periods=(0,))
    with pytest.raises(ValidationError):
        temporal_encoding([-1.0])


def test_codes_distinguish_nodes_and_steps():
    params = EncodingParams(n_nodes=3, rng=np.random.default_rng(1))
    with T.no_grad():
        q00 = positional_encoding(0, 0, params).data
        q01 = positional_encoding(0, 1, params).data
        q10 = positional_encoding(1, 0, params).data
    assert q00.shape == (32,)
    assert np.max(np.abs(q00 - q01)) > 1e-6  # different nodes differ
    assert np.max(np.abs(q00 - q10)) > 1e-6  # different steps differ


def test_codes_flat_row_layout_matches_positional():
    params = EncodingParams(n_nodes=4, rng=np.random.default_rng(2))
    steps = np.array([7.0, 8.0, 9.0])
    with T.no_grad():
        flat = params.codes_flat(steps, 4).data
        assert flat.shape == (12, params.d_q)
        for ti, t in enumerate(steps):
            for i in range(4):
                single = positional_encoding(t, i, params).data
                assert np.max(np.abs(flat[ti * 4 + i] - single)) < 1e-12


def test_codes_deterministic_given_seed():
    a = EncodingParams(n_nodes=5, rng=np.random.default_rng(7))
    b = EncodingParams(n_nodes=5, rng=np.random.default_rng(7))
    with T.no_grad():
        qa = a.codes_flat(np.arange(6.0), 5).data
        qb = b.codes_flat(np.arange(6.0), 5).data
    assert np.array_equal(qa, qb)


def test_encoding_parameters_are_named_and_trainable():
    params = EncodingParams(n_nodes=2, rng=np.random.default_rng(3))
    names = [n for n, _ in params.named_parameters()]
    assert names[0] == "encoding.spatial"
    assert "encoding.fuse.layer0.weight" in names
    assert all(p.requires_grad for _, p in params.named_parameters())


def test_spatial_embedding_gradient_flows():
    params = EncodingParams(n_nodes=3, rng=np.random.default_rng(4))
    with T.Tape():
        q = params.codes_flat(np.arange(4.0), 3)
        T.backward(U.vsum(U.mul(q, q)))
    g = params.spatial.grad
    assert g is not None and g.shape == params.spatial.data.shape
    assert np.any(g != 0.0)


def test_node_range_validation():
    params = EncodingParams(n_nodes=2, rng=np.random.default_rng(5))
    with pytest.raises(ValidationError):
        positional_encoding(0, 2, params)
    with pytest.raises(ValidationError):
        params.codes_flat(np.arange(3.0), 4)
