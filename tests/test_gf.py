import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcic.channel import DetParams
from fcic.gf import GfMatrix, is_prime, nullspace

from conftest import cofactor_det_mod, eliminate_augmented


def random_matrix(rng, rows, cols, p):
    return GfMatrix(rng.integers(0, p, size=(rows, cols)), p)


def rank(m: GfMatrix) -> int:
    """The pivot count of the elimination kernel."""
    return len(m._echelon()[1])


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


def test_numpy_integer_moduli_are_checked_as_python_ints():
    """An int64 p is bounded in Python ints, where (p - 1)^2 cannot wrap: the
    prime 4294967291 is rejected as an int64 too, and the modulus kept is an int."""
    with pytest.raises(ValueError, match="too large for int64 arithmetic"):
        GfMatrix([[1]], np.int64(4294967291))
    assert type(GfMatrix([[1]], np.int64(5)).p) is int


@pytest.mark.parametrize("value", [5.5, "5"])
def test_non_integral_parameters_are_rejected_not_truncated(value):
    """p = 5.5 is not read as the prime 5, nor the string "5" as 5:
    `GfMatrix` and `DetParams` raise a ValueError that names p.  K, n and m
    pass through `operator.index`, which rejects them too."""
    text = re.escape(f"p must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=text):
        GfMatrix([[1]], value)
    with pytest.raises(ValueError, match=text):
        DetParams(K=3, n=2, m=1, p=value)
    for name in ("K", "n", "m"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            DetParams(**{"K": 3, "n": 2, "m": 1, "p": 5, name: value})


def test_matrix_entries_must_be_2d():
    with pytest.raises(ValueError, match="must be 2-D"):
        GfMatrix([1, 2, 3], 5)


def test_entries_canonicalised():
    m = GfMatrix([[7, -1], [5, 12]], 5)
    assert m.data.tolist() == [[2, 4], [0, 2]]


# ---------------------------------------------------------------------------
# rank: the kernel's pivot count
# ---------------------------------------------------------------------------

def test_rank_identity():
    assert rank(GfMatrix(np.eye(4), 2)) == 4


def test_rank_signed_example():
    # Lambda + I with two identical rows maps to rank 2 over GF(5)
    lam_plus_i = [[1, -1, 1], [1, 1, -1], [1, -1, 1]]
    assert rank(GfMatrix(lam_plus_i, 5)) == 2


def test_rank_all_ones():
    assert rank(GfMatrix(np.ones((3, 3), dtype=int), 3)) == 1


def test_rank_transpose_invariant():
    rng = np.random.default_rng(42)
    for p in (2, 3, 5):
        for _ in range(20):
            rows, cols = rng.integers(1, 13, size=2)
            m = random_matrix(rng, rows, cols, p)
            assert rank(m) == rank(GfMatrix(m.data.T, p))


# ---------------------------------------------------------------------------
# solve: one elimination of [M | y]
# ---------------------------------------------------------------------------

def test_solve_identity():
    y = np.array([3, 1, 4])
    assert eliminate_augmented(np.eye(3), y, 5)[:, 0].tolist() == [3, 1, 4]


def test_solve_roundtrip_random():
    rng = np.random.default_rng(7)
    for p in (2, 5, 11):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            m = random_matrix(rng, n, n, p)
            if rank(m) < n:
                assert eliminate_augmented(m.data, np.zeros(n), p) is None
                continue
            y = rng.integers(0, p, size=n)
            x = eliminate_augmented(m.data, y, p)[:, 0]
            assert ((m.data @ x) % p == y % p).all()


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
    mat = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0],
        [2, 0, 0, 0, 1, 1],
    ]
    sol = eliminate_augmented(mat, np.concatenate([y1[0], y2[0]]), p)[:, 0]
    expected_sum = int((msgs[1, 0] + msgs[2, 0]) % p)
    assert sol[:5].tolist() == msgs[0].tolist()
    assert int(sol[5]) == expected_sum


# ---------------------------------------------------------------------------
# nullspace
# ---------------------------------------------------------------------------

def test_nullspace_full_rank_empty():
    basis = nullspace(GfMatrix(np.eye(4), 3))
    assert basis.shape == (0, 4) and basis.dtype == np.int64


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
            assert basis.shape == (cols - rank(m), cols)
            assert not (m.data @ basis.T % p).any()


def test_nullspace_alignment_constraints_all_ones():
    """The all-ones sign system admits the point A=0, B=1, V=1 with U=2I;
    verified by direct matrix arithmetic on Lambda A + Lambda B Lambda."""
    from fcic.schemes import qsym_constraint_matrix

    p = 5
    lam = np.ones((3, 3), dtype=np.int64)
    np.fill_diagonal(lam, 0)
    basis = nullspace(GfMatrix(qsym_constraint_matrix(lam), p))
    target = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=np.int64)  # (A, B, V)
    # target lies in the span iff appending it as a column keeps the rank
    span_rank = rank(GfMatrix(basis.T, p))
    assert rank(GfMatrix(np.column_stack([basis.T, target]), p)) == span_rank
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


def test_det_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        GfMatrix([[1, 2, 3], [4, 5, 6]], 7).det()


def test_inverse_roundtrip():
    rng = np.random.default_rng(9)
    for p in (3, 7):
        for _ in range(15):
            n = int(rng.integers(1, 8))
            m = random_matrix(rng, n, n, p)
            if rank(m) < n:
                continue
            inv = eliminate_augmented(m.data, np.eye(n), p)
            assert (m.data @ inv % p == np.eye(n, dtype=np.int64)).all()


# ---------------------------------------------------------------------------
# the kernel against its two-array predecessor
# ---------------------------------------------------------------------------

def _two_array_echelon(data, p):
    """The elimination kernel as it was before [A | rhs] became one array,
    with its rhs array dropped now that the kernel takes none.  Returns
    (A, pivots, det)."""
    a = data.copy()
    n_rows, n_cols = a.shape
    pivots = []
    det = 1
    r = 0
    for c in range(n_cols):
        sel = -1
        for i in range(r, n_rows):
            if a[i, c]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
            det = -det % p
        piv = int(a[r, c])
        det = det * piv % p
        a[r] = (a[r] * pow(piv, p - 2, p)) % p
        for i in range(n_rows):
            f = a[i, c]
            if i != r and f:
                a[i] = (a[i] - f * a[r]) % p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, pivots, det


@st.composite
def _systems(draw):
    """(p, A): A is [B | rhs], B rows x cols of rank at most `rank`, the
    product of two random factors in exact integers, so shapes come square,
    wide and tall, and rank-deficient ones are common; the 0-3 rhs columns
    the kernel once took apart are now plain columns of A."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13, 1073741789)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(rows, cols)))
    entry = st.integers(0, p - 1)
    left = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                         min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=rank, max_size=rank))
    a = [[sum(left[i][t] * right[t][j] for t in range(rank)) % p for j in range(cols)]
         for i in range(rows)]
    rhs_cols = draw(st.integers(0, 3))
    rhs = draw(st.lists(st.lists(entry, min_size=rhs_cols, max_size=rhs_cols),
                        min_size=rows, max_size=rows))
    return p, np.array([row + extra for row, extra in zip(a, rhs)], dtype=np.int64)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(system=_systems())
@example(system=(7, np.array([[0, 3, 1], [2, 5, 4]])))  # row swap
@example(system=(2, np.concatenate([np.ones((3, 3), dtype=np.int64),
                                    np.eye(3, dtype=np.int64)], axis=1)))
@example(system=(13, np.zeros((2, 4), dtype=np.int64)))
def test_echelon_matches_two_array_kernel(system):
    """The kernel gives the same reduced rows, as Python int lists, pivots
    and det as its predecessor."""
    p, a = system
    red, pivots, det = GfMatrix(a, p)._echelon()
    old_red, old_pivots, old_det = _two_array_echelon(a, p)
    assert (pivots, det) == (old_pivots, old_det)
    assert all(type(v) is int for row in red for v in row)
    assert red == old_red.tolist()


# ---------------------------------------------------------------------------
# the kernel against a plain reduced row echelon form
# ---------------------------------------------------------------------------

def _plain_rref(rows, n_cols, p):
    """Textbook Gauss-Jordan over GF(p) in Python ints: every column is
    visited, the first row at or below the next pivot row with a nonzero
    entry is the pivot, every pivot is normalised and every other row is
    cleared across its whole width.  Returns (rows, pivots, det), det the
    product of the pivots as found with the sign of each swap, mod p."""
    a = [list(row) for row in rows]
    pivots, det = [], 1
    for c in range(n_cols):
        r = len(pivots)
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
            det = -det
        det *= a[r][c]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, det % p


def _echelon_cases(seed, count):
    """(p, entries) over the primes from 2 to the largest `check_dot_length`
    admits: square, wide and tall shapes, rank-deficient products of two
    random factors, entries -1, 0, 1 only (so most pivots are already 1),
    all-zero rows mixed in, and matrices with no rows at all."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        p = (2, 3, 5, 13, 1009, 3037000493)[n % 6]
        rows, cols = int(rng.integers(0 if n % 7 == 0 else 1, 9)), int(rng.integers(1, 9))
        if n % 3 == 0:  # rank at most `inner`
            inner = int(rng.integers(0, min(rows, cols) + 1))
            left = rng.integers(0, min(p, 2**31), size=(rows, inner)).tolist()
            right = rng.integers(0, min(p, 2**31), size=(inner, cols)).tolist()
            entries = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                       if inner else [0] * cols for row in left]
        elif n % 3 == 1:
            entries = rng.integers(-1, 2, size=(rows, cols)).tolist()
        else:
            entries = rng.integers(0, min(p, 2**31), size=(rows, cols)).tolist()
        for i in range(rows):
            if rng.random() < 0.2:
                entries[i] = [0] * cols
        yield p, np.array(entries, dtype=np.int64).reshape(rows, cols)


def test_echelon_matches_a_plain_rref_and_det_the_cofactor_expansion():
    """The kernel's early stop once every row holds a pivot, its skipped
    normalisation of a pivot already 1 and its row updates over the pivot
    row's nonzero columns change nothing: the same reduced rows, pivots and
    det as a plain Gauss-Jordan elimination, and on a square matrix `det`
    is the cofactor expansion."""
    shapes = set()
    for p, entries in _echelon_cases(seed=37, count=600):
        m = GfMatrix(entries, p)
        red, pivots, det = m._echelon()
        want = _plain_rref(m.data.tolist(), entries.shape[1], p)
        assert all(type(v) is int for row in red for v in row)
        assert (red, pivots, det) == want
        rows, cols = entries.shape
        shapes.add("none" if rows == 0 else "square" if rows == cols else
                   "wide" if rows < cols else "tall")
        if rows == cols:
            assert m.det() == cofactor_det_mod(entries, p)
    assert shapes == {"none", "square", "wide", "tall"}
