import json

import numpy as np
import pytest

from crcsec import prob
from crcsec.channel import (
    ChannelError,
    DiscreteCRC,
    GaussianCRC,
    detect_semi_deterministic,
    erasure_cascade_channel,
    induce_joint,
    load_channel,
    orthogonal_channel,
    write_channel,
    xor_channel,
)


def bsc_y1_channel(flip=0.1):
    # Y1 = BSC(flip) of X1, Y2 = X2 noiselessly
    k = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            k[x1, x2, x1, x2] = 1.0 - flip
            k[x1, x2, 1 - x1, x2] = flip
    return DiscreteCRC(k)


def uniform_inputs():
    return prob.JointPmf(("X1", "X2"), np.full((2, 2), 0.25))


def test_load_write_round_trip(tmp_path):
    path = tmp_path / "orth.json"
    write_channel(orthogonal_channel(), path)
    loaded = load_channel(path)
    assert np.array_equal(loaded.kernel, orthogonal_channel().kernel)
    assert loaded.name == "orthogonal"
    sums = loaded.kernel.sum(axis=(2, 3))
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_load_rejects_bad_rows(tmp_path):
    obj = json.loads((lambda p: (write_channel(orthogonal_channel(), p), p.read_text())[1])(tmp_path / "c.json"))
    obj["kernel"][0] = 0.9  # row (0,0) now sums to 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ChannelError, match=r"x1=0, x2=0"):
        load_channel(bad)
    obj["kernel"][0] = -1.0
    bad.write_text(json.dumps(obj))
    with pytest.raises(ChannelError):
        load_channel(bad)


def test_load_parse_errors(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(ChannelError):
        load_channel(p)
    with pytest.raises(FileNotFoundError):
        load_channel(tmp_path / "missing.json")
    q = tmp_path / "short.json"
    q.write_text(json.dumps({"x1": 2, "x2": 2, "y1": 2, "y2": 2, "kernel": [1.0]}))
    with pytest.raises(ChannelError):
        load_channel(q)


def test_semi_deterministic_detection():
    table = detect_semi_deterministic(xor_channel())
    assert table is not None
    assert table.tolist() == [[0, 1], [1, 0]]
    assert detect_semi_deterministic(bsc_y1_channel()) is None


def test_semi_deterministic_only_y1_matters():
    # Y1 = X1 noiseless, Y2 noisy: still tagged
    k = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            k[x1, x2, x1, x2] = 0.9
            k[x1, x2, x1, 1 - x2] = 0.1
    table = detect_semi_deterministic(DiscreteCRC(k))
    assert table is not None
    assert table.tolist() == [[0, 0], [1, 1]]


def test_semi_det_table_consistent_with_kernel():
    ch = xor_channel()
    table = detect_semi_deterministic(ch)
    py1 = ch.y1_marginal()
    rebuilt = np.zeros_like(py1)
    for x1 in range(2):
        for x2 in range(2):
            rebuilt[x1, x2, table[x1, x2]] = 1.0
    assert np.array_equal(py1, rebuilt)


def test_induce_joint_orthogonal():
    ext = induce_joint(orthogonal_channel(), uniform_inputs())
    assert ext.axes == ("X1", "X2", "Y1", "Y2")
    assert prob.mutual_information(ext, "X1", "Y1") == 1.0
    assert prob.mutual_information(ext, "X1", "Y2") == 0.0


def test_induce_joint_xor_hides_x2():
    ext = induce_joint(xor_channel(), uniform_inputs())
    assert prob.mutual_information(ext, "X2", "Y2") == 0.0


def test_induce_joint_point_mass_and_marginal_identity():
    point = prob.JointPmf(("X1", "X2"), np.array([[0.0, 1.0], [0.0, 0.0]]))
    ext = induce_joint(orthogonal_channel(), point)
    assert ext.probs[0, 1, 0, 1] == 1.0
    inp = prob.sample_joint([("X1", 2), ("X2", 2)], seed=3)
    back = prob.marginalize(induce_joint(orthogonal_channel(), inp), ("X1", "X2"))
    np.testing.assert_allclose(back.probs, inp.probs, atol=1e-12)


def test_induce_joint_with_aux_axes_and_odd_order():
    aux = prob.sample_joint([("X2", 2), ("U", 3), ("X1", 2)], seed=8)
    ext = induce_joint(orthogonal_channel(), aux)
    assert ext.axes == ("X2", "U", "X1", "Y1", "Y2")
    back = prob.marginalize(ext, ("X2", "U", "X1"))
    np.testing.assert_allclose(back.probs, aux.probs, atol=1e-12)
    # conditional of outputs given inputs equals the kernel; marginalize
    # keeps the source axis order (X2 before X1 here)
    pair = prob.marginalize(ext, ("X1", "X2", "Y1", "Y2"))
    assert pair.axes == ("X2", "X1", "Y1", "Y2")
    inp = prob.marginalize(aux, ("X1", "X2"))
    for x1 in range(2):
        for x2 in range(2):
            cond = pair.probs[x2, x1] / inp.probs[x2, x1]
            np.testing.assert_allclose(cond, orthogonal_channel().kernel[x1, x2], atol=1e-12)


def test_induce_joint_cardinality_mismatch():
    big = prob.JointPmf(("X1", "X2"), np.full((3, 2), 1 / 6))
    with pytest.raises(ChannelError):
        induce_joint(orthogonal_channel(), big)
    with pytest.raises(ChannelError):
        induce_joint(orthogonal_channel(), prob.JointPmf(("X1",), np.array([0.5, 0.5])))


def test_gaussian_crc_validation():
    g = GaussianCRC(a=1.0, b=0.5, p1=20.0, p2=20.0)
    assert (g.a, g.b, g.p1, g.p2) == (1.0, 0.5, 20.0, 20.0)
    with pytest.raises(ChannelError):
        GaussianCRC(a=1.0, b=0.5, p1=0.0, p2=20.0)
    with pytest.raises(ChannelError):
        GaussianCRC(a=1.0, b=float("inf"), p1=1.0, p2=1.0)


def test_erasure_cascade_is_degraded_shape():
    ch = erasure_cascade_channel(0.3)
    assert ch.cards == (2, 2, 2, 3)
    ext = induce_joint(ch, uniform_inputs())
    # Y2 can never disagree with Y1 except via the erasure symbol
    assert prob.conditional_mutual_information(ext, "X1", "Y2", "Y1") == 0.0
