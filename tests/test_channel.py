import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcic import channel
from fcic.channel import DetParams, apply_channel, run_feedback_session
from fcic.gf import is_prime
from fcic.schemes import PRIME_SCAN, NoSolution, build_scheme

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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(k_users=st.integers(2, 5), n=st.integers(0, 4), m=st.integers(0, 4),
       p=st.sampled_from(PRIME_SCAN), signed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_apply_channel_is_linear(k_users, n, m, p, signed, seed):
    """apply(a x + b y) = a apply(x) + b apply(y) mod p, for one channel use
    and for a batch of three, on the symmetric channel and on a random
    signed one; a float64 block of residues gives the int64 values."""
    assume(max(n, m) >= 1)
    rng = np.random.default_rng(seed)
    signs = None
    if signed:
        signs = rng.choice((-1, 1), size=(k_users, k_users))
        np.fill_diagonal(signs, 0)
    params = DetParams(K=k_users, n=n, m=m, p=p, signs=signs)
    a, b = rng.integers(0, p, size=2).tolist()
    for shape in ((k_users, params.q), (3, k_users, params.q)):
        x, y = rng.integers(0, p, size=(2, *shape))
        fx, fy = apply_channel(params, x), apply_channel(params, y)
        assert np.array_equal(apply_channel(params, a * x + b * y), (a * fx + b * fy) % p)
        floats = apply_channel(params, x.astype(np.float64))
        assert floats.dtype == np.float64 and np.array_equal(floats, fx)


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


def test_every_sign_matrix_is_the_symmetric_channel_over_gf2():
    """Over GF(2), -1 = 1: each of the 4096 K = 4 sign matrices gives the
    all-ones channel's outputs on a batch of 64 sessions.  Over GF(3) a
    signed channel differs from it."""
    rng = np.random.default_rng(36)
    off = [(r, c) for r in range(4) for c in range(4) if r != c]
    x = rng.integers(0, 2, size=(64, 4, 3))
    symmetric = apply_channel(DetParams(K=4, n=3, m=2, p=2), x)
    for bits in itertools.product((1, -1), repeat=len(off)):
        lam = np.zeros((4, 4), dtype=int)
        lam[tuple(zip(*off))] = bits
        signed = apply_channel(DetParams(K=4, n=3, m=2, p=2, signs=lam.tolist()), x)
        assert np.array_equal(signed, symmetric), lam
    lam = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
    x = np.array([[1, 0], [1, 0], [1, 0]])
    assert (apply_channel(DetParams(K=3, n=2, m=2, p=3, signs=lam), x).tolist()
            != apply_channel(DetParams(K=3, n=2, m=2, p=3), x).tolist())


@pytest.mark.parametrize("signs", [None, ((0, -1, 1), (1, 0, -1), (1, -1, 0))])
def test_sign_matrix_is_built_once_and_read_only(signs):
    """Every channel use reads the one Lambda its parameters built, which
    no caller can change; equal parameters stay equal and hash alike."""
    params = DetParams(K=3, n=2, m=1, p=5, signs=signs)
    lam = params.sign_matrix
    apply_channel(params, np.ones((3, 2), dtype=np.int64))
    assert params.sign_matrix is lam and not lam.flags.writeable
    assert lam.tolist() == [[0 if r == c else (1 if signs is None else signs[r][c])
                             for c in range(3)] for r in range(3)]
    twin = DetParams(K=3, n=2, m=1, p=5, signs=signs)
    assert (twin, hash(twin)) == (params, hash(params))


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


@pytest.mark.parametrize("shape", [(3, 4), (3, 6), (2, 3, 5, 1), (5,)])
def test_driver_names_the_message_shape_it_needs(shape):
    scheme = build_scheme(3, 3, 1, p=5)
    with pytest.raises(ValueError, match=r"^messages must have shape \(3, 5\) or \(B, 3, 5\)"):
        run_feedback_session(scheme.params, scheme, np.zeros(shape, dtype=int))


def test_driver_rejects_a_scheme_built_for_other_parameters():
    scheme = build_scheme(3, 3, 1, p=5)
    other = dataclasses.replace(scheme.params, p=7)
    with pytest.raises(ValueError, match="scheme was built for different channel parameters"):
        run_feedback_session(other, scheme, np.zeros((3, 5), dtype=int))


def test_maps_and_blocks_may_be_nested_lists():
    """Scheme maps and a channel use's inputs are taken as arrays of what
    they are given, so nested lists give the same scheme and outputs."""
    scheme = build_scheme(3, 3, 1, p=5)
    listed = dataclasses.replace(scheme, encoders=tuple(e.tolist() for e in scheme.encoders),
                                 decoders=scheme.decoders.tolist())
    msgs = np.arange(15).reshape(3, 5) % 5
    assert (run_feedback_session(listed.params, listed, msgs).messages_out == msgs).all()
    x = [[1, 2, 3], [4, 0, 1], [2, 2, 2]]
    assert (apply_channel(scheme.params, x) == apply_channel(scheme.params, np.array(x))).all()


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


def test_block_1_encoder_sees_exactly_the_block_0_outputs():
    """A block-1 encoder map with columns for its own block-1 outputs, or
    with none for block 0's, is rejected at construction: the one-step
    feedback contract is the encoder shapes."""
    scheme = build_scheme(3, 3, 1, p=5)
    q, msg = scheme.params.q, scheme.msg_symbols
    for width in (msg + 2 * q, msg):
        block1 = np.zeros((3, q, width), dtype=np.int64)
        with pytest.raises(ValueError, match="block-1 encoder must have shape"):
            dataclasses.replace(scheme, encoders=(scheme.encoders[0], block1))


@pytest.mark.parametrize("k_users, n, m, size, rate", [
    (3, 3, 1, 5, Fraction(5, 2)), (3, 1, 3, 3, Fraction(3, 2)), (4, 2, 2, 2, Fraction(1, 2)),
])
def test_scheme_size_and_rate_are_read_off_its_maps(k_users, n, m, size, rate):
    """L is block 0's column count and the rate is L over the block count:
    neither can be set apart from the maps, and a scheme needs a block."""
    scheme = build_scheme(k_users, n, m, p=5)
    assert (scheme.msg_symbols, scheme.declared_rate) == (size, rate)
    assert scheme.declared_rate == Fraction(scheme.encoders[0].shape[-1], len(scheme.encoders))
    for name in ("msg_symbols", "declared_rate"):
        with pytest.raises(AttributeError):
            setattr(scheme, name, 1)
    with pytest.raises(ValueError, match="a scheme needs at least one block"):
        dataclasses.replace(scheme, encoders=())
    with pytest.raises(ValueError, match=r"\(K, rows, columns\) int64 residues"):
        dataclasses.replace(scheme, encoders=(np.int64(0), *scheme.encoders[1:]))
    with pytest.raises(ValueError, match="decoder must have shape"):  # one block too few
        dataclasses.replace(scheme, encoders=scheme.encoders[:-1])


def _non_residue(maps, bad, p):
    """A copy of maps that is not int64 residues in [0, p): its last entry
    set to p or to -1, or the whole copy int32."""
    maps = np.array(maps)
    if bad == "int32":
        return maps.astype(np.int32)
    maps[(-1,) * maps.ndim] = p if bad == "p" else -1
    return maps


@pytest.mark.parametrize("bad", ["p", "-1", "int32"])
@pytest.mark.parametrize("layout", ["per-user", "broadcast", "shared-1"])
@pytest.mark.parametrize("block", [1, None])  # the block-1 encoder, or the decoder
def test_scheme_rejects_maps_that_are_not_residues(bad, layout, block):
    """A per-user map is checked at every user (the bad entry sits at the
    last one), and a broadcast map, or a (1, rows, cols) map that every
    user shares, as its base, which carries the bad entry; the same maps
    as residues are accepted in every layout, a shared one as the users'
    zero-stride view of its base."""
    scheme = build_scheme(3, 3, 1, p=5)
    good = scheme.decoders if block is None else scheme.encoders[block]
    assert good.strides[0] == 0  # the symmetric build shares one map
    if layout == "per-user":
        maps, ok = _non_residue(good, bad, 5), np.array(good)
    elif layout == "broadcast":
        maps = np.broadcast_to(_non_residue(good[0], bad, 5), good.shape)
        ok = np.broadcast_to(np.array(good[0]), good.shape)
    else:
        maps, ok = _non_residue(good[:1], bad, 5), np.array(good[:1])
    assert (maps.strides[0] == 0) == (ok.strides[0] == 0) == (layout == "broadcast")

    def rebuilt(m):
        if block is None:
            return dataclasses.replace(scheme, decoders=m)
        return dataclasses.replace(scheme, encoders=(scheme.encoders[0], m))

    with pytest.raises(ValueError, match=r"int64 residues in \[0, 5\)"):
        rebuilt(maps)
    held = rebuilt(ok)
    held = held.decoders if block is None else held.encoders[block]
    assert held.shape == good.shape and (held == good).all()
    assert (held.strides[0] == 0) == (layout != "per-user")


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


def _shift_model_use(params, x):
    """One channel use from the shift-model definition, in Python ints:
    receiver k's level l is user k's level l - (q - n) plus the sum over
    j != k of lambda_kj times user j's level l - (q - m), mod p, where a
    level above the top (a negative index) reads 0."""
    K, n, m, q, p = params.K, params.n, params.m, params.q, params.p
    lam = [[1] * K for _ in range(K)] if params.signs is None else params.signs

    def level(k, i):
        return x[k][i] if i >= 0 else 0

    return [[(level(k, l - (q - n))
              + sum(lam[k][j] * level(j, l - (q - m)) for j in range(K) if j != k)) % p
             for l in range(q)] for k in range(K)]


def _loop_session(scheme, msgs):
    """Reference replay in Python ints, one user and one block at a time,
    sharing no arithmetic with the package: each channel use comes from
    `_shift_model_use`."""
    params, L = scheme.params, scheme.msg_symbols
    K, p = params.K, params.p

    def apply(rows, vec):
        return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]

    seen = [[int(v) % p for v in row] for row in msgs]
    blocks = []
    for enc in scheme.encoders:
        enc = enc.tolist()
        x = [apply(enc[k], seen[k]) for k in range(K)]
        y = _shift_model_use(params, x)
        blocks.append((x, y))
        for k in range(K):
            seen[k].extend(y[k])
    dec = scheme.decoders.tolist()
    return blocks, [apply(dec[k], seen[k][L:]) for k in range(K)]


def _same_bits(arr, ref):
    return arr.dtype == np.int64 and np.array_equal(arr, np.array(ref, dtype=np.int64))


def _assert_replays_match_reference(scheme, msgs):
    """Every array of the batched transcript equals the Python-int reference
    session by session, bit for bit, and so does each B = 1 replay."""
    params = scheme.params
    batch = run_feedback_session(params, scheme, msgs)
    assert batch.messages_out.shape == msgs.shape
    for b in range(len(msgs)):
        single = run_feedback_session(params, scheme, msgs[b])
        ref_blocks, ref_out = _loop_session(scheme, msgs[b])
        for tr in (batch.trial(b), single):
            assert len(tr.blocks) == len(ref_blocks)
            assert all(_same_bits(x, rx) and _same_bits(y, ry)
                       for (x, y), (rx, ry) in zip(tr.blocks, ref_blocks))
            assert _same_bits(tr.messages_in, msgs[b] % params.p)
            assert _same_bits(tr.messages_out, ref_out)
            assert tr.to_json_dict() == single.to_json_dict()


def _assert_batch_matches_single(scheme, rng, sessions=4):
    params = scheme.params
    msgs = rng.integers(0, params.p, size=(sessions, params.K, scheme.msg_symbols))
    _assert_replays_match_reference(scheme, msgs)
    assert (run_feedback_session(params, scheme, msgs).messages_out == msgs).all()


def test_batched_replay_matches_single_sessions_on_the_sweep():
    """Every criterion-1 configuration (auto prime): a batched replay equals
    the B = 1 replay and the Python-int reference, session by session."""
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


def _bound_primes(scheme, bound):
    """The largest prime p whose replay of `scheme` keeps every partial sum
    below `bound`, max(dot length, K) (p - 1)^2 < bound, and the next prime
    above it."""
    reach = max(scheme.dot_length, scheme.params.K)
    top = math.isqrt((bound - 1) // reach) + 1  # the largest p with reach (p - 1)^2 < bound
    below = next(p for p in range(top, 2, -1) if is_prime(p))
    above = next(p for p in itertools.count(top + 1) if is_prime(p))
    assert reach * (below - 1) ** 2 < bound <= reach * (above - 1) ** 2
    return below, above


def _binary64_bound_primes(scheme):
    """The primes on both sides of the binary64 bound, 2^53."""
    return _bound_primes(scheme, 2**53)


def test_replay_is_exact_on_both_sides_of_the_binary64_bound():
    """K = 3, n = 3, m = 1 (longest dot product 8) at the largest prime below
    its binary64 bound, at the next prime, where the replay runs in int64,
    and at 1073741789, the largest prime its int64 bound admits.  Messages
    of all p - 1 put the encoder sums at their largest."""
    rng = np.random.default_rng(12)
    base = build_scheme(3, 3, 1, p=5)
    primes = _binary64_bound_primes(base) + (1073741789,)
    assert primes[:2] == (33554393, 33554467)
    for p in primes:
        scheme = build_scheme(3, 3, 1, p=p)
        msgs = rng.integers(0, p, size=(4, 3, scheme.msg_symbols))
        msgs[0] = p - 1
        msgs[1] = -1  # reduced to p - 1 on entry
        _assert_replays_match_reference(scheme, msgs)
        assert (run_feedback_session(scheme.params, scheme, msgs).messages_out
                == msgs % p).all()


@pytest.mark.parametrize("signs", [None, ((0, -1, 1), (1, 0, -1), (1, -1, 0))])
def test_replay_is_exact_on_both_sides_of_the_binary32_bound(monkeypatch, signs):
    """K = 3, n = 3, m = 1 (longest dot product 8), symmetric and signed, at
    the largest prime below its binary32 bound, where every channel use runs
    in float32, and at the next prime, where it runs in float64.  Then at
    p = 257 the bound itself: n = 100, m = 44 has dot length 256, so its
    reach 256 (p - 1)^2 is 2^24 exactly and it runs in float64, while
    m = 45 (dot length 255) stays in float32.  Messages of all p - 1 put
    the encoder sums at their largest."""
    uses = []

    def recording(params, x):
        uses.append(x.dtype.type)
        return apply_channel(params, x)

    monkeypatch.setattr(channel, "apply_channel", recording)
    rng = np.random.default_rng(14)
    primes = _bound_primes(build_scheme(3, 3, 1, p=5), 2**24)
    assert primes == (1447, 1451)
    for n, m, p, dots, dtype in ((3, 1, primes[0], 8, np.float32),
                                 (3, 1, primes[1], 8, np.float64),
                                 (100, 45, 257, 255, np.float32),
                                 (100, 44, 257, 256, np.float64)):
        scheme = build_scheme(3, n, m, p=p, signs=signs)
        assert scheme.dot_length == dots
        assert scheme.name == ("weak" if signs is None else "qsym")
        msgs = rng.integers(0, p, size=(4, 3, scheme.msg_symbols))
        msgs[0] = p - 1
        msgs[1] = -1  # reduced to p - 1 on entry
        uses.clear()
        _assert_replays_match_reference(scheme, msgs)
        assert uses and set(uses) == {dtype}
        assert (run_feedback_session(scheme.params, scheme, msgs).messages_out
                == msgs % p).all()


def test_apply_channel_float32_block_equals_its_int64_result():
    """A float32 block of integers comes back float32 with the values of the
    int64 channel use, inputs outside [0, p) too, up to the largest p with
    K (3p) + p within 2^24."""
    rng = np.random.default_rng(15)
    signs = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
    for params in (DetParams(K=3, n=2, m=4, p=7), DetParams(K=4, n=5, m=0, p=3),
                   DetParams(K=3, n=3, m=1, p=1677721, signs=signs)):
        p = params.p
        assert params.K * 3 * p + p <= 2**24
        for shape in ((params.K, params.q), (5, params.K, params.q)):
            x = rng.integers(-3 * p, 3 * p, size=shape)
            x[..., 0] = -3 * p  # the extremes, on every user
            x[..., -1] = 3 * p - 1
            ints = apply_channel(params, x)
            floats = apply_channel(params, x.astype(np.float32))
            assert ints.dtype == np.int64 and floats.dtype == np.float32
            assert np.array_equal(floats, ints)
            assert ((ints >= 0) & (ints < p)).all()


@pytest.mark.parametrize("p", (2, 13, 1073741789))
def test_messages_in_are_python_residues_of_any_int64(p):
    """Messages are reduced on entry to Python's a % p for every int64,
    both int64 extremes included, in a single session and in a batch, and
    the caller's array is left as it was."""
    scheme = build_scheme(3, 3, 1, p=p)
    extremes = [-2**63, -(2**63 - 1), -1, p, 2 * p - 1, 2**63 - 1]
    size = 2 * 3 * scheme.msg_symbols
    values = [extremes[i % len(extremes)] for i in range(size)]
    batch = np.array(values, dtype=np.int64).reshape(2, 3, scheme.msg_symbols)
    want = [v % p for v in values]
    for msgs, expect in ((batch, want), (batch[1], want[size // 2:])):
        before = msgs.copy()
        tr = run_feedback_session(scheme.params, scheme, msgs)
        assert tr.messages_in.dtype == np.int64
        assert tr.messages_in.ravel().tolist() == expect
        assert (tr.messages_out == tr.messages_in).all()
        assert np.array_equal(msgs, before)


@pytest.mark.parametrize("p", (2, 13, 1073741789))
def test_apply_channel_reduces_any_int64_input_to_python_residues(p):
    """Integer inputs, both int64 extremes included, give the shift model's
    outputs under Python's % on every level, in one channel use and in a
    batch, and the caller's array is left as it was."""
    extremes = [-2**63, -1, p, 2 * p - 1, 2**63 - 1]
    signs = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
    for params in (DetParams(K=3, n=2, m=4, p=p), DetParams(K=3, n=3, m=1, p=p, signs=signs)):
        size = 2 * params.K * params.q
        values = [extremes[i % len(extremes)] for i in range(size)]
        batch = np.array(values, dtype=np.int64).reshape(2, params.K, params.q)
        for x in (batch, batch[1]):
            before = x.copy()
            y = apply_channel(params, x)
            assert y.dtype == np.int64
            uses = x.tolist() if x.ndim == 3 else [x.tolist()]
            assert y.reshape(-1, params.K, params.q).tolist() == [
                _shift_model_use(params, use) for use in uses]
            assert np.array_equal(x, before)


def test_apply_channel_float_block_equals_its_int64_result():
    """A float64 block of integers, as the replay passes, comes back float64
    with the values of the int64 channel use, inputs outside [0, p) too."""
    rng = np.random.default_rng(13)
    signs = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
    for params in (DetParams(K=3, n=2, m=4, p=7), DetParams(K=4, n=5, m=0, p=3),
                   DetParams(K=3, n=3, m=1, p=33554393, signs=signs)):
        p = params.p
        for shape in ((params.K, params.q), (5, params.K, params.q)):
            x = rng.integers(-3 * p, 3 * p, size=shape)
            ints = apply_channel(params, x)
            floats = apply_channel(params, x.astype(np.float64))
            assert ints.dtype == np.int64 and floats.dtype == np.float64
            assert np.array_equal(floats, ints)
            assert ((ints >= 0) & (ints < p)).all()


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
