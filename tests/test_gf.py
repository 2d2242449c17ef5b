import numpy as np
import pytest

from fcic.gf import (
    GfMatrix,
    SingularSystem,
    is_prime,
    nullspace,
    shift_matrix,
)

from conftest import cofactor_det_mod


def random_matrix(rng, rows, cols, p):
    return GfMatrix(rng.integers(0, p, size=(rows, cols)), p)


# ---------------------------------------------------------------------------
# primality and construction
# ---------------------------------------------------------------------------

def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-1, 30):
        assert is_prime(n) == (n in known)
    assert is_prime(9973)
    assert not is_prime(9975)


def test_matrix_requires_prime_modulus():
    with pytest.raises(ValueError):
        GfMatrix([[1]], 6)


def test_entries_canonicalised():
    m = GfMatrix([[7, -1], [5, 12]], 5)
    assert m.data.tolist() == [[2, 4], [0, 2]]


# ---------------------------------------------------------------------------
# shift matrix
# ---------------------------------------------------------------------------

def test_shift_matrix_single_step():
    assert shift_matrix(3, 1, 5).data.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_shift_matrix_zero_power_is_identity():
    assert shift_matrix(4, 0, 3) == GfMatrix.identity(4, 3)


def test_shift_matrix_nilpotent():
    assert shift_matrix(3, 3, 5) == GfMatrix.zeros(3, 3, 5)
    assert shift_matrix(3, 7, 5) == GfMatrix.zeros(3, 3, 5)


def test_shift_matrix_power_law():
    for q in (1, 2, 5, 8):
        for a in range(q):
            for b in range(q - a):
                lhs = shift_matrix(q, a, 7) @ shift_matrix(q, b, 7)
                assert lhs == shift_matrix(q, a + b, 7)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert GfMatrix.identity(4, 2).rank() == 4


def test_rank_signed_example():
    # Lambda + I with two identical rows maps to rank 2 over GF(5)
    lam_plus_i = [[1, -1, 1], [1, 1, -1], [1, -1, 1]]
    assert GfMatrix(lam_plus_i, 5).rank() == 2


def test_rank_all_ones():
    assert GfMatrix(np.ones((3, 3), dtype=int), 3).rank() == 1


def test_rank_transpose_invariant():
    rng = np.random.default_rng(42)
    for p in (2, 3, 5):
        for _ in range(20):
            rows, cols = rng.integers(1, 13, size=2)
            m = random_matrix(rng, rows, cols, p)
            assert m.rank() == m.transpose().rank()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_identity():
    y = np.array([3, 1, 4])
    assert GfMatrix.identity(3, 5).solve(y).tolist() == [3, 1, 4]


def test_solve_roundtrip_random():
    rng = np.random.default_rng(7)
    for p in (2, 5, 11):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            m = random_matrix(rng, n, n, p)
            if m.rank() < n:
                continue
            y = rng.integers(0, p, size=n)
            x = m.solve(y)
            assert ((m @ x) % p == y % p).all()


def test_solve_singular_raises():
    m = GfMatrix([[1, 2], [2, 4]], 5)
    with pytest.raises(SingularSystem):
        m.solve([1, 0])


def test_solve_weak_two_block_system():
    """Feed known symbols through the channel, then recover them by solving
    the receiver's stacked two-block system (worked case K=3, n=3, m=1, p=5)."""
    from fcic.channel import DetParams, apply_channel

    p, n, m = 5, 3, 1
    params = DetParams(K=3, n=n, m=m, p=p)
    rng = np.random.default_rng(3)
    msgs = rng.integers(0, p, size=(3, 5))  # five own symbols per user

    x1 = msgs[:, :3]
    y1 = apply_channel(params, x1)
    # each transmitter relays the interference sum it heard, then fresh symbols
    x2 = np.zeros((3, 3), dtype=np.int64)
    for k in range(3):
        x2[k, 0] = (y1[k, 2] - msgs[k, 2]) % p
        x2[k, 1:] = msgs[k, 3:5]
    y2 = apply_channel(params, x2)

    # receiver 0: unknowns (a1..a5, b1+c1)
    mat = GfMatrix(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [2, 0, 0, 0, 1, 1],
        ],
        p,
    )
    sol = mat.solve(np.concatenate([y1[0], y2[0]]))
    expected_sum = int((msgs[1, 0] + msgs[2, 0]) % p)
    assert sol[:5].tolist() == msgs[0].tolist()
    assert int(sol[5]) == expected_sum


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_full_rank_empty():
    assert nullspace(GfMatrix.identity(4, 3)) == []


def test_nullspace_single_relation():
    for p in (2, 3, 7):
        basis = nullspace(GfMatrix([[1, p - 1]], p))
        assert len(basis) == 1
        assert basis[0].tolist() == [1, 1]


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(11)
    for p in (2, 5):
        for _ in range(20):
            rows, cols = rng.integers(1, 10, size=2)
            m = random_matrix(rng, rows, cols, p)
            basis = nullspace(m)
            assert len(basis) == cols - m.rank()
            for v in basis:
                assert ((m @ v) % p == 0).all()


def test_nullspace_alignment_constraints_all_ones():
    """The all-ones sign system admits the point A=0, B=1, V=1 with U=2I;
    verified by direct matrix arithmetic on Lambda A + Lambda B Lambda."""
    from fcic.schemes import qsym_constraint_matrix

    p = 5
    lam = np.ones((3, 3), dtype=np.int64)
    np.fill_diagonal(lam, 0)
    mat = qsym_constraint_matrix(lam, p)
    basis = nullspace(mat)
    target = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=np.int64)  # (A, B, V)
    # target must lie in the span: the augmented system has no inconsistent row
    span = GfMatrix(np.array(basis).T, p)
    red, rhs, piv, _ = span._echelon(target.reshape(-1, 1))
    assert all(int(rhs[i, 0]) == 0 for i in range(len(piv), rhs.shape[0]))
    # direct check of the identity with U = 2I
    a, b, v, u = 0, 1, 1, 2
    lhs = (lam * a + lam @ (b * np.eye(3, dtype=np.int64)) @ lam) % p
    rhs2 = (u * np.eye(3, dtype=np.int64) + v * lam) % p
    assert (lhs == rhs2).all()


# ---------------------------------------------------------------------------
# determinant and inverse
# ---------------------------------------------------------------------------

def test_det_matches_cofactor_expansion():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 7, 1073741789):  # the last needs every product reduced first
        for n in (1, 2, 3, 4, 6):
            for _ in range(8):
                m = random_matrix(rng, n, n, p)
                assert m.det() == cofactor_det_mod(m.data, p)


def test_inverse_roundtrip():
    rng = np.random.default_rng(9)
    for p in (3, 7):
        for _ in range(15):
            n = int(rng.integers(1, 8))
            m = random_matrix(rng, n, n, p)
            if m.rank() < n:
                continue
            assert m @ m.inverse() == GfMatrix.identity(n, p)
