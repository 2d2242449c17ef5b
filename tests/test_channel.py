import dataclasses
import json

import numpy as np
import pytest

from fcic.channel import DetParams, apply_channel, run_feedback_session
from fcic.schemes import NoSolution, build_scheme

from conftest import all_sign_matrices_k3


def test_params_validation():
    with pytest.raises(ValueError):
        DetParams(K=1, n=2, m=1, p=5)
    with pytest.raises(ValueError):
        DetParams(K=3, n=0, m=0, p=5)
    with pytest.raises(ValueError):
        DetParams(K=3, n=2, m=1, p=4)
    with pytest.raises(ValueError):
        DetParams(K=3, n=2, m=1, p=5, signs=((0, 1, 1), (1, 0, 1), (1, 2, 0)))
    with pytest.raises(ValueError):
        DetParams(K=3, n=2, m=1, p=5, signs=((1, 1, 1), (1, 0, 1), (1, 1, 0)))


def test_q_is_max_of_levels():
    assert DetParams(K=2, n=3, m=1, p=5).q == 3
    assert DetParams(K=2, n=1, m=4, p=5).q == 4


# ---------------------------------------------------------------------------
# apply_channel
# ---------------------------------------------------------------------------

def test_weak_worked_example_block1():
    """K=3, n=3, m=1: receiver 1 sees (a1, a2, a3 + b1 + c1)."""
    params = DetParams(K=3, n=3, m=1, p=5)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 5, size=(3, 3))
    y = apply_channel(params, x)
    a, b, c = x
    assert y[0].tolist() == [a[0], a[1], (a[2] + b[0] + c[0]) % 5]


def test_strong_worked_example_block1():
    """K=3, n=1, m=3: the direct signal drops q - n = 2 levels, so receiver 1
    sees (b1+c1, b2+c2, a1+b3+c3)."""
    params = DetParams(K=3, n=1, m=3, p=5)
    rng = np.random.default_rng(1)
    x = rng.integers(0, 5, size=(3, 3))
    y = apply_channel(params, x)
    a, b, c = x
    expect = [(b[0] + c[0]) % 5, (b[1] + c[1]) % 5, (a[0] + b[2] + c[2]) % 5]
    assert y[0].tolist() == expect


def test_zero_input_zero_output():
    params = DetParams(K=4, n=2, m=3, p=7)
    assert (apply_channel(params, np.zeros((4, 3), dtype=int)) == 0).all()


def test_channel_linearity():
    rng = np.random.default_rng(2)
    params = DetParams(K=3, n=2, m=4, p=7)
    for _ in range(10):
        x1 = rng.integers(0, 7, size=(3, 4))
        x2 = rng.integers(0, 7, size=(3, 4))
        lhs = apply_channel(params, (x1 + x2) % 7)
        rhs = (apply_channel(params, x1) + apply_channel(params, x2)) % 7
        assert (lhs == rhs).all()


def test_symmetric_permutation_equivariance():
    rng = np.random.default_rng(3)
    params = DetParams(K=4, n=3, m=2, p=5)
    x = rng.integers(0, 5, size=(4, 3))
    perm = rng.permutation(4)
    y = apply_channel(params, x)
    y_perm = apply_channel(params, x[perm])
    assert (y_perm == y[perm]).all()


def test_top_levels_interference_free():
    """The top q - m levels of Y_k cannot depend on other users' signals."""
    rng = np.random.default_rng(4)
    params = DetParams(K=3, n=4, m=2, p=5)
    x = rng.integers(0, 5, size=(3, 4))
    solo = x.copy()
    solo[1:] = 0
    y_full = apply_channel(params, x)
    y_solo = apply_channel(params, solo)
    q_minus_m = params.q - params.m
    assert (y_full[0, :q_minus_m] == y_solo[0, :q_minus_m]).all()


def test_signed_channel_uses_signs():
    lam = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
    params = DetParams(K=3, n=2, m=2, p=5, signs=lam)
    x = np.array([[1, 0], [1, 0], [1, 0]])
    y = apply_channel(params, x)
    # Y_1 = X_1 - X_2 + X_3, etc.
    assert y[0].tolist() == [1, 0]
    assert y[1].tolist() == [1, 0]
    assert y[2].tolist() == [1, 0]
    # rows 0 and 2 of the channel coincide for this sign matrix
    rng = np.random.default_rng(5)
    x = rng.integers(0, 5, size=(3, 2))
    y = apply_channel(params, x)
    assert (y[0] == y[2]).all()


# ---------------------------------------------------------------------------
# session driver
# ---------------------------------------------------------------------------

def test_weak_session_decodes_worked_example():
    scheme = build_scheme(3, 3, 1, p=5)
    rng = np.random.default_rng(6)
    msgs = rng.integers(0, 5, size=(3, 5))
    tr = run_feedback_session(scheme.params, scheme, msgs)
    assert (tr.messages_out == msgs).all()
    assert len(tr.blocks) == 2


def test_strong_session_decodes_worked_example():
    scheme = build_scheme(3, 1, 3, p=5)
    rng = np.random.default_rng(7)
    msgs = rng.integers(0, 5, size=(3, 3))
    tr = run_feedback_session(scheme.params, scheme, msgs)
    assert (tr.messages_out == msgs).all()


def test_zero_messages_zero_transcript():
    scheme = build_scheme(3, 3, 1, p=5)
    msgs = np.zeros((3, 5), dtype=int)
    tr = run_feedback_session(scheme.params, scheme, msgs)
    for x, y in tr.blocks:
        assert (x == 0).all() and (y == 0).all()
    assert (tr.messages_out == 0).all()


def test_driver_rejects_short_messages():
    scheme = build_scheme(3, 3, 1, p=5)
    with pytest.raises(ValueError):
        run_feedback_session(scheme.params, scheme, np.zeros((3, 4), dtype=int))


def test_encoders_receive_only_past_outputs():
    """Block t's encoder map has exactly L + t*q columns, its own message and
    its outputs of blocks < t, so no scheme can see current or future
    outputs; a map with a column more is rejected at construction."""
    for k_users, n, m, p in ((2, 2, 1, 3), (3, 1, 3, 5), (4, 2, 2, 5), (3, 3, 1, 5)):
        scheme = build_scheme(k_users, n, m, p=p)
        q, msg = scheme.params.q, scheme.msg_symbols
        assert [enc.shape for enc in scheme.encoders] == [
            (k_users, q, msg + t * q) for t in range(scheme.blocks)
        ]
        assert scheme.decoders.shape == (k_users, msg, scheme.blocks * q)
    leaky = list(scheme.encoders)
    leaky[0] = np.concatenate([leaky[0], np.zeros((3, 3, 1), dtype=np.int64)], axis=2)
    with pytest.raises(ValueError):
        dataclasses.replace(scheme, encoders=tuple(leaky))


def test_truncated_history_replay_reproduces_inputs():
    """Re-applying every block's encoder map to the message and the recorded
    past outputs must reproduce the recorded inputs exactly (regression
    check on causality)."""
    scheme = build_scheme(3, 1, 3, p=5)
    rng = np.random.default_rng(8)
    msgs = rng.integers(0, 5, size=(3, 3))
    tr = run_feedback_session(scheme.params, scheme, msgs)
    for t, (x, _y) in enumerate(tr.blocks):
        for k in range(3):
            seen = np.concatenate([msgs[k]] + [tr.blocks[s][1][k] for s in range(t)])
            replay = scheme.encoders[t][k] @ seen % 5
            assert (replay == x[k]).all()


def test_apply_channel_batch_matches_single_uses():
    rng = np.random.default_rng(9)
    for params in (DetParams(K=3, n=2, m=4, p=7),
                   DetParams(K=3, n=3, m=1, p=5, signs=((0, -1, 1), (1, 0, -1), (1, -1, 0)))):
        x = rng.integers(0, params.p, size=(6, params.K, params.q))
        y = apply_channel(params, x)
        for b in range(6):
            assert (y[b] == apply_channel(params, x[b])).all()
    with pytest.raises(ValueError):
        apply_channel(params, x[:, :2])


def _loop_session(scheme, msgs):
    """Reference replay: one user and one block at a time, matrix-vector."""
    p = scheme.params.p
    seen = [list(row) for row in msgs]
    blocks = []
    for enc in scheme.encoders:
        x = np.array([enc[k] @ np.array(seen[k]) % p for k in range(len(msgs))])
        y = apply_channel(scheme.params, x)
        blocks.append((x, y))
        for k, row in enumerate(y):
            seen[k].extend(row)
    out = [scheme.decoders[k] @ np.array(seen[k][scheme.msg_symbols:]) % p
           for k in range(len(msgs))]
    return blocks, np.array(out)


def _assert_batch_matches_single(scheme, rng, sessions=4):
    params = scheme.params
    msgs = rng.integers(0, params.p, size=(sessions, params.K, scheme.msg_symbols))
    batch = run_feedback_session(params, scheme, msgs)
    assert batch.messages_out.shape == msgs.shape
    for b in range(sessions):
        single = run_feedback_session(params, scheme, msgs[b])
        ref_blocks, ref_out = _loop_session(scheme, msgs[b])
        for tr in (batch.trial(b), single):
            assert tr.to_json_dict() == single.to_json_dict()
            assert all((x == rx).all() and (y == ry).all()
                       for (x, y), (rx, ry) in zip(tr.blocks, ref_blocks))
            assert (tr.messages_out == ref_out).all()
            assert (tr.messages_out == msgs[b]).all()


def test_batched_replay_matches_single_sessions_on_the_sweep():
    """Every criterion-1 configuration (auto prime): a batched replay equals
    the B = 1 replay and a per-user loop, session by session."""
    rng = np.random.default_rng(10)
    for k_users in (2, 3, 4, 5):
        for n in range(7):
            for m in range(7):
                if n + m:
                    _assert_batch_matches_single(build_scheme(k_users, n, m), rng)


def test_batched_replay_matches_single_sessions_signed():
    rng = np.random.default_rng(11)
    names = []
    for lam in list(all_sign_matrices_k3())[::5]:
        for n, m in ((2, 1), (1, 2), (2, 2), (3, 1)):
            try:
                scheme = build_scheme(3, n, m, p=5, signs=lam)
            except NoSolution:  # moderate alignment infeasible over GF(5)
                continue
            _assert_batch_matches_single(scheme, rng)
            names.append(scheme.name)
    assert {"qsym", "moderate"} <= set(names) and len(names) >= 40


def test_transcript_json_shape():
    scheme = build_scheme(2, 2, 1, p=3)
    msgs = np.array([[1, 2, 0], [2, 1, 1]])
    tr = run_feedback_session(scheme.params, scheme, msgs)
    doc = json.loads(json.dumps(tr.to_json_dict()))
    assert list(doc) == ["params", "blocks", "messages_in", "messages_out"]
    assert doc["params"]["K"] == 2 and doc["params"]["signs"] is None
    assert len(doc["blocks"]) == 2
    assert list(doc["blocks"][0]) == ["inputs", "outputs"]
    assert doc["messages_in"] == msgs.tolist()
    assert doc["messages_out"] == msgs.tolist()
