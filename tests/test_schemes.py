import dataclasses
import functools
import hashlib
import inspect
import itertools
import operator
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcic import schemes
from fcic.channel import DetParams, run_feedback_session
from fcic.cli import main
from fcic.gf import GfMatrix, SingularSystem, is_prime, nullspace
from fcic.rates import RegimeMismatch, det_converse, int_det
from fcic.schemes import (
    PRIME_SCAN,
    AlignmentSolution,
    NoSolution,
    build_scheme,
    moderate_margin,
    moderate_scheme,
    qsym_constraint_matrix,
    qsym_solve,
    select_prime,
    two_block_delta,
    verify_scheme,
)

from conftest import (
    all_sign_matrices_k3,
    cofactor_det_mod,
    eliminate_augmented,
    qsym_decode_matrix,
)

# sign matrix whose Lambda + I has identical first and third rows
SINGULAR_LAMBDA = ((0, -1, 1), (1, 0, -1), (1, -1, 0))
# no prime in PRIME_SCAN aligns this K = 5 matrix in the strong regime
K5_UNALIGNED = ((0, 1, 1, -1, -1), (-1, 0, -1, -1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1),
                (-1, 1, 1, -1, 0))


def all_ones_lambda(k=3):
    lam = np.ones((k, k), dtype=np.int64)
    np.fill_diagonal(lam, 0)
    return tuple(tuple(int(v) for v in row) for row in lam)


def symmetric_decode_matrix(k_users, n, m, p):
    """The symmetric channel's decode matrix: the aligned one at the
    all-ones point (A, B, U, V) = (0, 1, K-1, K-2)."""
    params = DetParams(K=k_users, n=n, m=m, p=p)
    return qsym_decode_matrix(params, 0, 1, k_users - 1, k_users - 2)


# ---------------------------------------------------------------------------
# symmetric regimes
# ---------------------------------------------------------------------------

def test_all_ones_alignment_point():
    """Lambda^2 = (K-1) I + (K-2) Lambda for the all-ones Lambda, so
    (0, 1, K-1, K-2) satisfies the alignment identity for every K and p;
    AlignmentSolution reads U = K-1 off B, re-checks the identity and
    rejects V = K-1."""
    for k_users in range(2, 9):
        for p in PRIME_SCAN:
            point = dict(a=(0,) * k_users, b=(1,) * k_users,
                         p=p, signs=all_ones_lambda(k_users))
            sol = AlignmentSolution(v=(k_users - 2,) * k_users, **point)
            assert sol.u == ((k_users - 1) % p,) * k_users
            with pytest.raises(ValueError):
                AlignmentSolution(v=(k_users - 1,) * k_users, **point)


def test_weak_scheme_worked_example():
    scheme = build_scheme(3, 3, 1, p=5)
    assert scheme.name == "weak"
    assert scheme.declared_rate == Fraction(5, 2)
    report = verify_scheme(scheme.params, scheme, 100, seed=7)
    assert report.successes == 100
    assert report.matches_converse


def test_weak_scheme_k2():
    scheme = build_scheme(2, 2, 1, p=3)
    assert scheme.declared_rate == Fraction(3, 2)
    assert scheme.declared_rate == det_converse(2, 1, 2)


def test_strong_scheme_binary_field_singular():
    with pytest.raises(SingularSystem):
        build_scheme(3, 1, 3, p=2)


def test_strong_scheme_worked_example():
    scheme = build_scheme(3, 1, 3, p=5)
    assert scheme.name == "strong"
    assert scheme.declared_rate == Fraction(3, 2)
    report = verify_scheme(scheme.params, scheme, 100, seed=8)
    assert report.successes == 100
    assert report.matches_converse


def test_strong_scheme_k4_p3_singular():
    """K=4, p=3: the decode determinant is (+-(K-1))^m = 0 mod 3, checked
    against an independent cofactor-expansion determinant."""
    mat = symmetric_decode_matrix(4, 1, 3, 3)
    assert cofactor_det_mod(mat, 3) == 0
    with pytest.raises(SingularSystem):
        build_scheme(4, 1, 3, p=3)


def test_strong_singularity_matches_field_congruence():
    """Empirical singularity set over the sweep equals {K = 1 mod p}; the
    max(m, n)-modulus reading of the same condition mispredicts some
    instances (e.g. K=3, m=3, n=1, p=2), so the field size is the modulus
    that matters."""
    q_reading_wrong = 0
    for k_users in (2, 3, 4, 5):
        for n in range(0, 3):
            for m in range(n + 1, 7):
                for p in (2, 3, 5, 7, 11):
                    singular = GfMatrix(symmetric_decode_matrix(k_users, n, m, p), p).det() == 0
                    assert singular == (k_users % p == 1 % p)
                    q = max(m, n)
                    if singular != (k_users % q == 1 % q):
                        q_reading_wrong += 1
    assert q_reading_wrong > 0


def test_moderate_scheme_rates():
    assert moderate_scheme(DetParams(K=3, n=2, m=2, p=2)).declared_rate == Fraction(2, 3)
    assert moderate_scheme(DetParams(K=5, n=1, m=1, p=3)).declared_rate == Fraction(1, 5)


def test_moderate_scheme_decodes():
    scheme = moderate_scheme(DetParams(K=4, n=3, m=3, p=5))
    report = verify_scheme(scheme.params, scheme, 50, seed=9)
    assert report.successes == 50


def test_moderate_regime_mismatch():
    with pytest.raises(RegimeMismatch):
        moderate_scheme(DetParams(K=3, n=2, m=1, p=5))


def test_weak_decode_matrix_always_full_rank():
    for k_users in (2, 3, 4, 5):
        for n in range(1, 7):
            for m in range(0, n):
                for p in (2, 3, 5, 7, 11):
                    assert GfMatrix(symmetric_decode_matrix(k_users, n, m, p), p).det() != 0


def test_edge_levels_m_zero_and_n_zero():
    scheme = build_scheme(3, 2, 0, p=2)
    assert scheme.declared_rate == Fraction(2)
    assert verify_scheme(scheme.params, scheme, 30, seed=1).successes == 30
    scheme = build_scheme(3, 0, 2, p=3)
    assert scheme.declared_rate == Fraction(1)
    assert verify_scheme(scheme.params, scheme, 30, seed=2).successes == 30


# ---------------------------------------------------------------------------
# closed-form decoders
# ---------------------------------------------------------------------------

@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 13, 1073741789)), n=st.integers(0, 12),
       m=st.integers(0, 12), data=st.data())
def test_closed_form_decoders_equal_the_elimination_inverse(p, n, m, data):
    """The closed-form inverse is the right half of the eliminated
    [M | I] bit for bit, so the decoder rows a build keeps from it are too,
    and the two agree on which decode matrices M are singular (no pivot in
    some column of M): every (A, B, U, V) over GF(2) and GF(3), one drawn
    point otherwise."""
    assume(n + m >= 1)
    params = DetParams(K=2, n=n, m=m, p=p)
    eye = np.eye(2 * params.q, dtype=np.int64)
    if p <= 3:
        points = itertools.product(range(p), repeat=4)
    else:
        points = [data.draw(st.tuples(*[st.integers(0, p - 1)] * 4), label="point")]
    for point in points:
        got = schemes._decode_inverse(params, *point)
        mat = qsym_decode_matrix(params, *point)
        expect = eliminate_augmented(mat, eye, p)
        if expect is None:
            assert got is None, point
            continue
        assert got is not None, point
        assert got.dtype == np.int64
        assert (got == expect).all(), point
        assert (mat @ got % p == eye).all(), point


@pytest.mark.parametrize("p", (2, 3, 13, 1073741789))
@pytest.mark.parametrize("n, m", [(16, 15), (48, 47), (64, 63), (63, 64), (64, 32), (16, 64)])
def test_closed_form_decoders_equal_the_elimination_inverse_at_large_q(n, m, p):
    """At q up to 64, where Delta^-1's series runs q terms for |n - m| = 1:
    the symmetric K = 8 point and one seeded random point."""
    params = DetParams(K=8, n=n, m=m, p=p)
    rng = np.random.default_rng([n, m, p])
    drawn = tuple(int(c) for c in rng.integers(0, p, size=4))
    eye = np.eye(2 * params.q, dtype=np.int64)
    for point in ((0, 1, 7, 6), drawn):
        got = schemes._decode_inverse(params, *point)
        expect = eliminate_augmented(qsym_decode_matrix(params, *point), eye, p)
        if expect is None:
            assert got is None, point
            continue
        assert got is not None and got.dtype == np.int64, point
        assert (got == expect).all(), point


def test_successful_builds_run_no_elimination(monkeypatch, capsys):
    """Symmetric and signed two-block builds invert their decode matrices in
    closed form: `GfMatrix._echelon` runs only inside qsym_solve's
    nullspace.  The prime scan is unchanged, and a singular build names the
    user and the term of Delta that is 0 mod p."""
    calls = {"echelon": 0, "nullspace": 0}
    real_echelon, real_nullspace = GfMatrix._echelon, schemes.nullspace

    def echelon(self, *args):
        calls["echelon"] += 1
        return real_echelon(self, *args)

    def counted_nullspace(mat):
        calls["nullspace"] += 1
        return real_nullspace(mat)

    monkeypatch.setattr(GfMatrix, "_echelon", echelon)
    monkeypatch.setattr(schemes, "nullspace", counted_nullspace)
    for k_users, n, m, signs in ((3, 3, 1, None), (3, 1, 3, None), (8, 64, 32, None),
                                 (7, 63, 64, None), (3, 2, 1, SINGULAR_LAMBDA),
                                 (3, 1, 2, SINGULAR_LAMBDA), (3, 4, 0, SINGULAR_LAMBDA),
                                 (3, 0, 3, SINGULAR_LAMBDA)):
        calls.update(echelon=0, nullspace=0)
        build_scheme(k_users, n, m, signs=signs)
        assert calls["echelon"] == calls["nullspace"]
        assert (calls["nullspace"] > 0) == (signs is not None)

    assert build_scheme(7, 63, 64).params.p == 5
    for p in (2, 3):  # K = 7 = 1 mod p
        with pytest.raises(SingularSystem, match=f"user 0 .* constant term -U is 0 mod {p}$"):
            build_scheme(7, 63, 64, p=p)

    assert main(["det-verify", "--k", "3", "--n", "1", "--m", "2", "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "infeasible: strong decode matrix rank-deficient for user 0 at "
        "(A, B, U, V) = (0, 1, 2, 1), K=3, n=1, m=2, p=2: "
        "Delta's constant term -U is 0 mod 2\n"
    )


# ---------------------------------------------------------------------------
# alignment solver
# ---------------------------------------------------------------------------

def test_qsym_solve_all_ones_weak():
    sol = qsym_solve(all_ones_lambda(), "weak", 5)
    assert all(b != 0 for b in sol.b)


def test_alignment_identity_manual_point():
    """U is read off B; a wrong V fails an off-diagonal entry."""
    sol = AlignmentSolution(
        a=(0, 0, 0), b=(1, 1, 1), v=(1, 1, 1),
        p=5, signs=all_ones_lambda(),
    )
    assert (sol.b, sol.u) == ((1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        AlignmentSolution(
            a=(0, 0, 0), b=(1, 1, 1), v=(2, 1, 1),
            p=5, signs=all_ones_lambda(),
        )


@pytest.mark.parametrize("name", ["a", "b", "v"])
def test_alignment_solution_needs_one_entry_per_user(name):
    vectors = {"a": (0, 0, 0), "b": (1, 1, 1), "v": (1, 1, 1), name: (1, 1)}
    with pytest.raises(ValueError, match=f"^{name} must have 3 entries$"):
        AlignmentSolution(**vectors, p=5, signs=all_ones_lambda())


def test_qsym_solve_mixed_sign_matrix():
    sol = qsym_solve(SINGULAR_LAMBDA, "weak", 5)
    assert all(b != 0 for b in sol.b)
    sol = qsym_solve(SINGULAR_LAMBDA, "strong", 5)
    assert all(u != 0 for u in sol.u)


def test_qsym_solve_strong_sample_of_sign_matrices():
    for lam in list(all_sign_matrices_k3())[::7]:
        sol = qsym_solve(lam, "strong", 5)
        assert all(u != 0 for u in sol.u)


def test_qsym_moderate_infeasible_when_lambda_plus_i_singular():
    # all-ones: the margin is identically zero on the solution space
    with pytest.raises(NoSolution):
        qsym_solve(all_ones_lambda(), "moderate", 5)
    with pytest.raises(NoSolution):
        qsym_solve(SINGULAR_LAMBDA, "moderate", 5)


def test_qsym_moderate_feasible_iff_margin_found():
    """Across all 64 sign matrices, every matrix with a moderate-regime
    solution has Lambda + I invertible (the converse direction of the
    feasibility claim fails for most full-rank matrices and is surfaced
    as NoSolution rather than masked)."""
    feasible_fr = []
    for lam in all_sign_matrices_k3():
        full_rank = round(np.linalg.det(np.array(lam) + np.eye(3))) != 0
        try:
            qsym_solve(lam, "moderate", 5)
            assert full_rank
            feasible_fr.append(lam)
        except NoSolution:
            pass
    assert len(feasible_fr) > 0


def _reference_qsym_solve(signs, regime, p, cap):
    """The per-candidate search that `qsym_solve` replaced, in Python ints:
    coordinates take 1, ..., p-1, 0 in lexicographic order, U is derived
    from B per candidate, and the first user failing the regime condition
    is counted.  Each coordinate walks the first `radix` of those values,
    the largest radix with radix**dim <= cap.  Before the walk, the first
    user whose condition is 0 at every basis vector (so on the whole space)
    ends the search.  Returns the (A, B, U, V) found, or the NoSolution
    text."""
    k = len(signs)
    basis = [vec.tolist() for vec in nullspace(qsym_constraint_matrix(signs, p))]
    cols = list(zip(*basis)) or [()] * (3 * k)
    cross = [[signs[i][j] * signs[j][i] for j in range(k)] for i in range(k)]
    term = {"weak": "B", "strong": "-U", "moderate": "B + V - A - U"}[regime]

    def conditions(x):  # each user's regime condition at (A, B, V) = x
        a, b, v = x[:k], x[k:2 * k], x[2 * k:]
        u = [sum(map(operator.mul, row, b)) % p for row in cross]
        if regime == "weak":
            return (a, b, u, v), b
        if regime == "strong":
            return (a, b, u, v), [-ui % p for ui in u]
        return (a, b, u, v), [(b[i] + v[i] - a[i] - u[i]) % p for i in range(k)]

    at_basis = [conditions(vec)[1] for vec in basis]
    for user in range(k):
        if all(c[user] == 0 for c in at_basis):
            return (f"no {regime}-regime alignment point over GF({p}): user {user}'s Delta "
                    f"constant term {term} is 0 on the whole {len(basis)}-dimensional "
                    f"solution space")
    fail_counts = [0] * k
    checked = 0
    radix = p
    while radix ** len(basis) > cap:
        radix -= 1
    order = (list(range(1, p)) + [0])[:radix]
    for combo in itertools.islice(itertools.product(order, repeat=len(cols[0])), cap):
        checked += 1
        point, conds = conditions([sum(map(operator.mul, combo, col)) % p for col in cols])
        fails = [c == 0 for c in conds]
        if True not in fails:
            return tuple(map(tuple, point))
        fail_counts[fails.index(True)] += 1
    worst = fail_counts.index(max(fail_counts))
    return (f"no {regime}-regime alignment point over GF({p}) after {checked} candidates; "
            f"the {regime} condition failed most often at user {worst} "
            f"({fail_counts[worst]} times)")


def _solve_outcome(signs, regime, p):
    try:
        sol = qsym_solve(signs, regime, p)
    except NoSolution as exc:
        return str(exc)
    return sol.a, sol.b, sol.u, sol.v


def test_qsym_solve_matches_reference_enumeration(monkeypatch):
    """The sliced linear-map search finds the same first point, or fails
    with the same text, as the per-candidate loop it replaced.  The cap is
    lowered to 700 for both so the Python reference stays fast: every space
    over GF(2), GF(3) and GF(5) is searched exhaustively, larger ones up to
    the cap."""
    monkeypatch.setattr(schemes, "ENUM_CAP", 700)
    cases = [*all_sign_matrices_k3(), all_ones_lambda(2), all_ones_lambda(4)]
    outcomes = set()
    for lam in cases:
        for regime in ("weak", "strong", "moderate"):
            for p in PRIME_SCAN:
                got = _solve_outcome(lam, regime, p)
                assert got == _reference_qsym_solve(lam, regime, p, 700)
                outcomes.add(type(got))
    assert outcomes == {tuple, str}


def test_qsym_solve_capped_search_matches_reference(monkeypatch):
    """With the cap and the slice below the candidate count, the search
    walks the largest radix r with r**dim <= ENUM_CAP, a partial last slice
    included, and reports r**dim candidates: at ENUM_CAP 10 or 20 over
    GF(3), the 32 K = 3 matrices with a 3-dimensional space, where no user's
    weak or strong condition vanishes, walk 2**3 = 8 = 3 + 3 + 2 candidates.
    At 20 the rounded cube root is 3, and 3**3 = 27 > 20 takes it down to 2."""
    monkeypatch.setattr(schemes, "_SLICE", 3)
    for cap in (10, 20):
        monkeypatch.setattr(schemes, "ENUM_CAP", cap)
        for regime in ("weak", "strong"):
            walked = 0
            for lam in all_sign_matrices_k3():
                got = _solve_outcome(lam, regime, 3)
                assert got == _reference_qsym_solve(lam, regime, 3, cap)
                walked += "after 8 candidates" in got
            assert walked == 32


def test_qsym_solve_rejects_an_unknown_regime():
    """The regime names the Delta condition to search for; any other name
    is a ValueError before the search."""
    with pytest.raises(ValueError, match="unknown regime 'moderately'"):
        qsym_solve(all_ones_lambda(), "moderately", 5)


def test_qsym_walk_is_the_whole_space_for_k3():
    """p**dim <= ENUM_CAP for every K = 3 sign matrix and prime in
    PRIME_SCAN, so the radix is p there and no K = 3 search is capped."""
    dims = {len(nullspace(qsym_constraint_matrix(lam, p)))
            for lam in all_sign_matrices_k3() for p in PRIME_SCAN}
    assert max(dims) == 4 and PRIME_SCAN[-1] ** 4 <= schemes.ENUM_CAP


def test_qsym_solve_varies_every_coordinate_at_a_large_prime():
    """At p = 1073741789 the walk varies all three coordinates over 1..100
    within ENUM_CAP; varying only the last coordinate found nothing, yet
    the same channel builds at p = 5."""
    for p in (5, 1073741789):
        scheme = build_scheme(3, 2, 1, p=p, signs=SINGULAR_LAMBDA)
        assert scheme.params.p == p
        assert verify_scheme(scheme.params, scheme, 20, seed=1).all_passed


# sha256 of `fcic qsym`'s exit code, stdout and stderr over the 64 K = 3 sign
# matrices x 3 regimes x PRIME_SCAN at the real ENUM_CAP, recorded from the
# search that mapped every candidate to (A, B, U, V)
QSYM_CLI_SHA256 = "9eb1fc8e60cfff69cfa745d2be6f2bb68cd28c4aecdaecb59ee16466fa48d62f"


def test_qsym_cli_at_the_real_cap_matches_pinned_sha256(tmp_path, capsys):
    """The reference comparison lowers ENUM_CAP to 700; this pins every
    K = 3 solve, points and NoSolution texts, at the real cap, where the
    spaces over GF(7), GF(11) and GF(13) with more than 700 candidates are
    searched whole."""
    h = hashlib.sha256()
    for i, lam in enumerate(all_sign_matrices_k3()):
        path = tmp_path / f"signs{i}.txt"
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in lam))
        for regime in ("weak", "strong", "moderate"):
            for p in PRIME_SCAN:
                code = main(["qsym", "--signs", str(path), "--regime", regime, "--p", str(p)])
                captured = capsys.readouterr()
                h.update(f"{code}\n{captured.out}{captured.err}".encode())
    assert h.hexdigest() == QSYM_CLI_SHA256


# qsym_solve at p = 3037000493, the largest prime `check_dot_length` admits,
# recorded from the search that mapped every candidate to (A, B, U, V): the
# K = 4 winners lie past the first candidate, with entries near p/2 and p
P_MAX = 3037000493
_K4_HALF = ((2, 2, 1, 2), (1518500246,) * 4, (1518500245, 1518500245, 1518500246, 1518500246),
            (1, 1, 1, 2))
_K4_WIDE = ((1518500248, 1518500248, 1518500248, 1518500247),
            (2277750370, 2277750370, 2277750369, 2277750370),
            (759250124, 759250124, 759250123, 759250122), (1, 1, 1, 2))
LARGEST_PRIME_OUTCOMES = [
    (((0, 1, 1), (1, 0, -1), (1, -1, 0)), {
        regime: ((2, 2, 2), (1, 1, 1), (2, 2, 2), (1, 1, 1))
        for regime in ("weak", "strong", "moderate")}),
    (((0, 1, 1), (1, 0, -1), (-1, 1, 0)), {
        "weak": ((0, 0, 0), (P_MAX - 1, P_MAX - 1, 1), (P_MAX - 2, P_MAX - 2, 2), (1, 1, 1)),
        "strong": ((0, 0, 0), (P_MAX - 1, P_MAX - 1, 1), (P_MAX - 2, P_MAX - 2, 2), (1, 1, 1)),
        "moderate": f"no moderate-regime alignment point over GF({P_MAX}): user 2's Delta "
                    "constant term B + V - A - U is 0 on the whole 4-dimensional solution "
                    "space"}),
    (((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, -1, 0)), {
        "weak": _K4_HALF, "strong": _K4_HALF,
        "moderate": f"no moderate-regime alignment point over GF({P_MAX}): user 0's Delta "
                    "constant term B + V - A - U is 0 on the whole 4-dimensional solution "
                    "space"}),
    (((0, 1, 1, 1), (1, 0, -1, -1), (-1, 1, 0, -1), (-1, 1, -1, 0)), {
        regime: _K4_WIDE for regime in ("weak", "strong", "moderate")}),
]


@pytest.mark.parametrize("signs,outcomes", LARGEST_PRIME_OUTCOMES)
def test_qsym_solve_at_the_largest_prime_matches_pinned_outcomes(signs, outcomes):
    """A winner's coordinates go through the (A, B, U, V) map in Python
    ints, so nothing wraps where dim (p - 1)^2 is beyond 2^63."""
    for regime, expected in outcomes.items():
        assert _solve_outcome(signs, regime, P_MAX) == expected


def _constraint_rows_by_definition(lam, p=None):
    """Row (k, i), k != i in row-major order, of lambda_ki A_i
    + sum_{j not in {k,i}} lambda_kj lambda_ji B_j - lambda_ki V_k, over the
    unknowns (A, B, V), in Python ints, reduced mod p when p is given."""
    k_users = len(lam)
    rows = []
    for k in range(k_users):
        for i in range(k_users):
            if i == k:
                continue
            row = [0] * (3 * k_users)
            row[i] += lam[k][i]
            for j in range(k_users):
                if j != k and j != i:
                    row[k_users + j] += lam[k][j] * lam[j][i]
            row[2 * k_users + k] -= lam[k][i]
            rows.append([v % p for v in row] if p else row)
    return rows


def _random_sign_matrices(k_users, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = rng.choice((-1, 1), size=(k_users, k_users))
        np.fill_diagonal(lam, 0)
        yield tuple(map(tuple, lam.tolist()))


def test_constraint_rows_follow_the_alignment_identity():
    """The constraint matrix is the identity's off-diagonal rows as defined,
    and every nullspace vector, with U = (Lambda o Lambda^T) B, satisfies
    Lambda A + Lambda B Lambda = U + V Lambda mod p entrywise: over the 64
    K = 3 matrices and a seeded sample at K = 4, 5 and 6."""
    cases = list(all_sign_matrices_k3())
    for k_users in (4, 5, 6):
        cases += _random_sign_matrices(k_users, 20, seed=k_users)
    checked = 0
    for lam in cases:
        k_users = len(lam)
        for p in PRIME_SCAN:
            mat = qsym_constraint_matrix(lam, p)
            assert mat.data.tolist() == _constraint_rows_by_definition(lam, p)
            for vec in nullspace(mat).tolist():
                a, b, v = vec[:k_users], vec[k_users:2 * k_users], vec[2 * k_users:]
                u = [sum(lam[k][j] * b[j] * lam[j][k] for j in range(k_users))
                     for k in range(k_users)]
                for k, i in itertools.product(range(k_users), repeat=2):
                    lhs = lam[k][i] * a[i] + sum(lam[k][j] * b[j] * lam[j][i]
                                                 for j in range(k_users))
                    rhs = (u[k] if k == i else 0) + v[k] * lam[k][i]
                    assert (lhs - rhs) % p == 0, (lam, p, vec)
                checked += 1
    assert checked > len(cases) * len(PRIME_SCAN)


def test_moderate_margin_is_two_block_determinant():
    # det [[1, 1], [a+u, b+v]] = (b + v) - (a + u); the +u variant would
    # accept sign matrices whose m = n channel has duplicated outputs
    for p in (3, 5):
        for a, b, u, v in ((1, 2, 0, 1), (0, 1, 2, 1), (2, 2, 2, 2)):
            expect = (b + v - a - u) % p
            assert moderate_margin(a, b, u, v, p) == expect


@st.composite
def _regime_sizes(draw, regime):
    """(n, m) with the sign of n - m that `regime` is for, q <= 4."""
    if regime == "moderate":
        n = draw(st.integers(1, 4))
        return n, n
    big = draw(st.integers(1, 4))
    small = draw(st.integers(0, big - 1))
    return (big, small) if regime == "weak" else (small, big)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(signs=st.sampled_from(list(all_sign_matrices_k3())),
       regime=st.sampled_from(("weak", "strong", "moderate")),
       p=st.sampled_from(PRIME_SCAN), data=st.data())
def test_solver_points_build_invertible_decode_matrices(signs, regime, p, data):
    """Every point qsym_solve returns gives each user a decode matrix with a
    nonzero cofactor determinant at an (n, m) of the point's regime."""
    try:
        sol = qsym_solve(signs, regime, p)
    except NoSolution:
        return
    n, m = data.draw(_regime_sizes(regime), label="n, m")
    params = DetParams(K=3, n=n, m=m, p=p, signs=signs)
    for point in zip(sol.a, sol.b, sol.u, sol.v):
        assert cofactor_det_mod(qsym_decode_matrix(params, *point), p) != 0, point


@settings(max_examples=300, derandomize=True, deadline=None)
@given(p=st.sampled_from(PRIME_SCAN), n=st.integers(0, 4), m=st.integers(0, 4),
       data=st.data())
def test_delta_constant_term_decides_decodability(p, n, m, data):
    """Delta's constant term is zero exactly when the decode matrix is
    singular: the blocks commute, so the determinant is det(Delta(D)), and
    Delta(D) is triangular with its constant term q times on the diagonal."""
    assume(n + m >= 1)
    point = data.draw(st.tuples(*[st.integers(0, p - 1)] * 4), label="point")
    params = DetParams(K=2, n=n, m=m, p=p)
    det = cofactor_det_mod(qsym_decode_matrix(params, *point), p)
    delta0 = two_block_delta(n - m, *point, p)[0]
    assert (delta0 == 0) == (det == 0)
    assert det == pow(delta0, params.q, p)


def test_delta_coefficients_by_regime():
    """(b, v-a, -u) for n > m, reversed for m > n, b+v-a-u at m = n; the
    solver's regime conditions B, U and the margin are its constant term."""
    a, b, u, v, p = 1, 2, 3, 4, 7
    assert two_block_delta(2, a, b, u, v, p) == (2, 3, 4)
    assert two_block_delta(-1, a, b, u, v, p) == (4, 3, 2)
    assert two_block_delta(0, a, b, u, v, p) == (moderate_margin(a, b, u, v, p),) == (2,)


# ---------------------------------------------------------------------------
# quasi-symmetric schemes
# ---------------------------------------------------------------------------

def test_qsym_all_ones_matches_weak_scheme_transcripts():
    """With A=0, B=1 the signed scheme on the all-ones matrix sends exactly
    what the symmetric weak scheme sends."""
    p = 5
    sym = build_scheme(3, 3, 1, p=p)
    sol = AlignmentSolution(
        a=(0, 0, 0), b=(1, 1, 1), v=(1, 1, 1),
        p=p, signs=all_ones_lambda(),
    )
    signed_params = DetParams(K=3, n=3, m=1, p=p, signs=all_ones_lambda())
    signed = schemes._two_block_scheme(signed_params, list(zip(sol.a, sol.b, sol.u, sol.v)),
                                       "qsym")
    assert signed.declared_rate == Fraction(5, 2)
    rng = np.random.default_rng(12)
    for _ in range(5):
        msgs = rng.integers(0, p, size=(3, 5))
        tr_sym = run_feedback_session(sym.params, sym, msgs)
        tr_signed = run_feedback_session(signed_params, signed, msgs)
        for (x1, y1), (x2, y2) in zip(tr_sym.blocks, tr_signed.blocks):
            assert (x1 == x2).all() and (y1 == y2).all()
        assert (tr_signed.messages_out == msgs).all()


def test_qsym_mixed_sign_strong_rate_two():
    scheme = build_scheme(3, 2, 4, p=5, signs=SINGULAR_LAMBDA)
    assert scheme.declared_rate == Fraction(2)
    report = verify_scheme(scheme.params, scheme, 100, seed=13)
    assert report.successes == 100
    assert report.matches_converse


def test_qsym_singular_lambda_plus_i_falls_back_to_time_sharing():
    scheme = build_scheme(3, 2, 2, p=5, signs=SINGULAR_LAMBDA)
    assert scheme.name == "moderate"
    assert scheme.declared_rate == Fraction(2, 3)
    report = verify_scheme(scheme.params, scheme, 50, seed=14)
    assert report.successes == 50
    assert report.matches_converse


def test_qsym_moderate_full_rank_case_runs():
    """A sign matrix with Lambda + I invertible and a feasible margin decodes
    at rate n/2."""
    found = None
    for lam in all_sign_matrices_k3():
        if round(np.linalg.det(np.array(lam) + np.eye(3))) == 0:
            continue
        try:
            qsym_solve(lam, "moderate", 5)
            found = lam
            break
        except NoSolution:
            continue
    assert found is not None
    scheme = build_scheme(3, 2, 2, p=5, signs=found)
    assert scheme.declared_rate == Fraction(1)
    assert verify_scheme(scheme.params, scheme, 50, seed=15).successes == 50


def test_qsym_edge_levels_decode_at_the_converse():
    """Signed channels with n = 0 or m = 0 go through the same aligned
    builder as the symmetric ones and meet the K = 3 converse."""
    for lam in all_sign_matrices_k3():
        for n, m in ((2, 0), (1, 0), (0, 1), (0, 2)):
            scheme = build_scheme(3, n, m, signs=lam)
            assert scheme.declared_rate == det_converse(n, m, 3, lam)
            assert _unit_message_replay_is_identity(scheme)


def test_qsym_decode_determinants():
    """The per-user decode determinant is B_k^n in the weak regime and
    (-1)^m U_k^m in the strong regime, verified by independent cofactor
    expansion on instances where n (or m) differs from K."""
    p = 5
    for lam in (SINGULAR_LAMBDA, all_ones_lambda()):
        sol = qsym_solve(lam, "weak", p)
        for n, m in ((2, 1), (4, 2)):
            params = DetParams(K=3, n=n, m=m, p=p, signs=lam)
            for k in range(3):
                dec = qsym_decode_matrix(params, sol.a[k], sol.b[k], sol.u[k], sol.v[k])
                assert cofactor_det_mod(dec, p) == pow(sol.b[k], n, p)
        sol = qsym_solve(lam, "strong", p)
        for n, m in ((1, 2), (2, 4)):
            params = DetParams(K=3, n=n, m=m, p=p, signs=lam)
            for k in range(3):
                dec = qsym_decode_matrix(params, sol.a[k], sol.b[k], sol.u[k], sol.v[k])
                assert cofactor_det_mod(dec, p) == (pow(-1, m, p) * pow(sol.u[k], m, p)) % p


def test_qsym_sweep_weak_and_strong_decode():
    """Sampled sign matrices decode perfectly in both coded regimes."""
    for lam in list(all_sign_matrices_k3())[::9]:
        for n, m in ((2, 1), (1, 2)):
            scheme = build_scheme(3, n, m, p=5, signs=lam)
            report = verify_scheme(scheme.params, scheme, 40, seed=16)
            assert report.successes == 40
            assert report.matches_converse


# index in `all_sign_matrices_k3` -> (k, y): y . M is user k's m = n Delta
# form b_k + v_k - a_k - u_k, u_k = sum_j lambda_kj lambda_jk b_j, where M
# holds the integer alignment rows; one entry per det(Lambda + I) = 4 matrix
DEAD_USER_CERTIFICATES = {
    6: (2, (0, 0, 1, 1, 1, 0)), 9: (1, (-1, 1, 0, -1, 0, 0)), 11: (0, (-1, 0, 0, 0, 1, -1)),
    14: (0, (0, -1, 1, -1, 0, 0)), 15: (0, (0, -1, 1, -1, 0, 0)),
    17: (2, (0, 0, 1, -1, -1, 0)), 24: (0, (0, 1, 1, 1, 0, 0)), 25: (0, (0, 1, 1, 1, 0, 0)),
    28: (0, (-1, 0, 0, 0, -1, 1)), 30: (1, (-1, -1, 0, 1, 0, 0)),
    34: (0, (0, -1, -1, 1, 0, 0)), 35: (0, (0, -1, -1, 1, 0, 0)), 36: (1, (1, 1, 0, 1, 0, 0)),
    38: (0, (1, 0, 0, 0, 1, 1)), 43: (2, (0, 0, -1, -1, 1, 0)),
    49: (0, (1, 0, 0, 0, -1, -1)), 51: (1, (1, -1, 0, -1, 0, 0)), 52: (0, (0, 1, -1, -1, 0, 0)),
    53: (0, (0, 1, -1, -1, 0, 0)), 60: (2, (0, 0, -1, 1, -1, 0)),
}


def test_dead_moderate_users_have_integer_certificates():
    """On each K = 3 sign matrix with det(Lambda + I) = 4, one user's m = n
    Delta form is an integer combination y . M of the alignment rows, with
    no denominator.  Every solution satisfies M x = 0 over every GF(p), so
    that user's condition is 0 on the whole solution space at every prime:
    no prime aligns these 20 channels at m = n, and the scan's direct
    solves agree."""
    mats = list(all_sign_matrices_k3())
    assert sorted(DEAD_USER_CERTIFICATES) == [
        i for i, lam in enumerate(mats) if int_det(np.add(lam, np.eye(3, dtype=np.int64))) == 4]
    for i, (k, y) in DEAD_USER_CERTIFICATES.items():
        lam = mats[i]
        rows = _constraint_rows_by_definition(lam)
        form = [0] * 9  # b_k + v_k - a_k - u_k over (A, B, V)
        form[k], form[3 + k], form[6 + k] = -1, 1, 1
        for j in range(3):
            form[3 + j] -= lam[k][j] * lam[j][k]
        assert [sum(map(operator.mul, y, col)) for col in zip(*rows)] == form, i
        for p in PRIME_SCAN:
            with pytest.raises(NoSolution, match="is 0 on the whole"):
                qsym_solve(lam, "moderate", p)


def _k3_orbits():
    """The 64 K = 3 sign matrices split by relabelling the users and by
    Lambda -> D Lambda D, D a +-1 diagonal: {smallest index: indices}."""
    mats = list(all_sign_matrices_k3())
    index = {lam: i for i, lam in enumerate(mats)}
    orbits = {}
    for i, lam in enumerate(mats):
        if any(i in orbit for orbit in orbits.values()):
            continue
        orbits[i] = sorted({
            index[tuple(tuple(d[r] * d[c] * lam[perm[r]][perm[c]] if r != c else 0
                              for c in range(3)) for r in range(3))]
            for perm in itertools.permutations(range(3))
            for d in itertools.product((1, -1), repeat=3)})
    return orbits


def test_k3_orbits_are_told_apart_by_two_invariants():
    """det(Lambda + I) and the sorted pair products lambda_ij lambda_ji are
    invariant under relabelling and D Lambda D, and they tell the six
    orbits apart."""
    expected = {0: (4, 0, (1, 1, 1)), 1: (24, 0, (-1, 1, 1)), 3: (12, 0, (-1, -1, 1)),
                5: (4, -4, (1, 1, 1)), 6: (12, 4, (-1, -1, 1)), 11: (8, 4, (-1, -1, -1))}
    mats = list(all_sign_matrices_k3())

    def invariants(lam):
        pairs = tuple(sorted(lam[i][j] * lam[j][i] for i, j in ((0, 1), (0, 2), (1, 2))))
        return int_det(np.add(lam, np.eye(3, dtype=np.int64))), pairs

    orbits = _k3_orbits()
    assert {rep: len(orbit) for rep, orbit in orbits.items()} == {
        rep: size for rep, (size, *_) in expected.items()}
    for rep, orbit in orbits.items():
        assert {invariants(mats[i]) for i in orbit} == {expected[rep][1:]}
    assert len({facts[1:] for facts in expected.values()}) == len(expected)


def test_build_outcome_is_constant_on_each_k3_orbit():
    """Relabelling the users or conjugating by D changes no build outcome:
    name, prime and rate, or exit 3."""
    mats = list(all_sign_matrices_k3())

    def outcome(lam, n, m, p):
        try:
            scheme = build_scheme(3, n, m, p=p, signs=lam)
        except SingularSystem:
            return "exit 3"
        return scheme.name, scheme.params.p, scheme.declared_rate

    orbits = _k3_orbits().values()
    for n, m, p in ((2, 1, None), (1, 2, None), (2, 2, 5), (2, 2, 7), (3, 3, None)):
        for orbit in orbits:
            assert len({outcome(mats[i], n, m, p) for i in orbit}) == 1, (n, m, p, orbit)


def test_build_outcome_and_converse_are_constant_on_k4_orbits():
    """The K = 3 orbit check on a seeded sample of K = 4 sign matrices, the
    sign-switched all-ones one included: relabelling the users and
    Lambda -> D Lambda D change neither the auto-p build outcome (prime,
    rate and name, or exception type) nor `det_converse`."""
    rng = np.random.default_rng(404)
    flips = (1, -1, -1, 1)
    switched = tuple(tuple(0 if r == c else flips[r] * flips[c] for c in range(4))
                     for r in range(4))

    def outcome(lam, n, m):
        try:
            scheme = build_scheme(4, n, m, signs=lam)
            built = scheme.name, scheme.params.p, scheme.declared_rate
        except SingularSystem as exc:  # NoSolution included
            built = type(exc)
        return built, det_converse(n, m, 4, lam)

    seen = set()
    for lam in [*_random_sign_matrices(4, 8, seed=404), switched]:
        for n, m in ((2, 1), (1, 2), (2, 2)):
            want = outcome(lam, n, m)
            seen.add(want)
            for _ in range(12):
                perm, d = rng.permutation(4).tolist(), rng.choice((-1, 1), size=4).tolist()
                image = tuple(tuple(d[r] * d[c] * lam[perm[r]][perm[c]] if r != c else 0
                                    for c in range(4)) for r in range(4))
                assert outcome(image, n, m) == want, (lam, n, m, perm, d)
    assert {built[0] for built, _ in seen if isinstance(built, tuple)} == {"qsym", "moderate"}
    assert {converse for _, converse in seen} == {
        None, Fraction(3, 2), Fraction(1), Fraction(1, 2)}


# ---------------------------------------------------------------------------
# construction dispatch, prime selection, verification
# ---------------------------------------------------------------------------

def test_select_prime_skips_singular_fields():
    assert select_prime(3, 1, 3) == 3  # p=2 makes K-1 vanish
    assert select_prime(2, 1, 3) == 2
    assert select_prime(4, 1, 2) == 2
    assert select_prime(5, 0, 3) == 3


def test_gf2_has_a_strong_point_exactly_at_even_k():
    """Why an odd-K strong scan tries GF(2) last.  Mod 2, -1 = 1, so every
    lambda_kj lambda_jk = 1 and U_k = S - B_k, with S = sum_j B_j.  The
    strong condition U_k != 0 for every k forces B_k = S + 1 for every k.
    Summing, S = K (S + 1), which is S + 1 when K is odd: a contradiction,
    whatever the signs and whatever (n, m)."""
    odd = [*all_sign_matrices_k3(), *(all_ones_lambda(k) for k in (3, 5, 7)),
           *_random_sign_matrices(5, 12, seed=21), *_random_sign_matrices(7, 6, seed=21)]
    for lam in odd:
        with pytest.raises(NoSolution, match=r"strong-regime alignment point over GF\(2\)"):
            qsym_solve(lam, "strong", 2)
    even = [*_random_sign_matrices(4, 12, seed=21), *_random_sign_matrices(6, 6, seed=21)]
    for lam in even:
        assert all(qsym_solve(lam, "strong", 2).u)  # every U_k = 1
    for k_users in (3, 5, 7):  # the all-ones point's -U = -(K-1) = 0 mod 2
        for n, m in ((0, 1), (1, 2), (1, 3), (2, 5)):
            with pytest.raises(SingularSystem, match="Delta's constant term -U is 0 mod 2"):
                build_scheme(k_users, n, m, p=2)


def _auto_build_outcome(k_users, n, m, signs):
    """The auto-p build's prime, or its failure's per-prime reasons (the
    headline names n and m)."""
    try:
        return build_scheme(k_users, n, m, signs=signs).params.p
    except SingularSystem as exc:
        return str(exc).split("\n")[1:]


def test_auto_build_outcome_depends_only_on_lambda_and_regime():
    """A signed build fails or succeeds with `qsym_solve`, which reads only
    (Lambda, regime, p), so the auto-p scan picks one prime, or fails for
    the same reasons, at every (n, m) of a regime.  The GF(2) rule relies
    on this: it looks at K and the regime alone."""
    sizes = {"strong": ((1, 2), (1, 3), (2, 3), (0, 3)),
             "weak": ((2, 1), (3, 1), (3, 2), (2, 0))}
    outcomes = set()
    for k_users in (3, 5):
        for lam in _random_sign_matrices(k_users, 10, seed=2121):
            for regime, pairs in sizes.items():
                seen = [_auto_build_outcome(k_users, n, m, lam) for n, m in pairs]
                assert all(outcome == seen[0] for outcome in seen), (lam, regime, seen)
                outcomes.add(seen[0] if isinstance(seen[0], int) else "failed")
    assert {2, 3, "failed"} <= outcomes  # the sample reaches both primes and failures


def test_auto_prime_build_tries_each_prime_once(monkeypatch):
    """An auto-p build returns the scan's own build: _aligned_scheme runs
    once per prime up to and including the chosen one, and once per scanned
    prime when none works.  An odd-K strong scan tries GF(2) last, as no
    sign matrix has a strong point there.  Time sharing at m = n is decided
    before the scan, so it aligns nothing and builds over GF(2)."""
    calls = []
    real = schemes._aligned_scheme

    def counted(params):
        calls.append(params.p)
        return real(params)

    monkeypatch.setattr(schemes, "_aligned_scheme", counted)
    for k_users, n, m, signs, tried in ((3, 3, 1, None, [2]), (3, 1, 3, None, [3]),
                                        (5, 0, 3, None, [3]), (4, 1, 2, None, [2]),
                                        (4, 2, 2, None, []), (3, 2, 2, SINGULAR_LAMBDA, []),
                                        (3, 1, 2, SINGULAR_LAMBDA, [3])):
        calls.clear()
        assert build_scheme(k_users, n, m, signs=signs).params.p == (tried or [2])[-1]
        assert calls == tried
    for k_users, n, m, signs, tried in (  # no moderate point anywhere; no strong point anywhere
            (3, 2, 2, ((0, 1, -1), (-1, 0, 1), (1, 1, 0)), list(PRIME_SCAN)),
            (5, 1, 2, K5_UNALIGNED, [*PRIME_SCAN[1:], 2])):
        calls.clear()
        with pytest.raises(SingularSystem, match="no prime in"):
            build_scheme(k_users, n, m, signs=signs)
        assert calls == tried
        assert sorted(calls) == list(PRIME_SCAN)  # every prime once, none twice


def test_auto_prime_build_decides_time_sharing_once(monkeypatch):
    """det(Lambda + I) is taken once per build, before the prime scan, even
    when every prime fails."""
    calls = []
    real = schemes.lambda_plus_i_singular

    def counted(signs):
        calls.append(signs)
        return real(signs)

    monkeypatch.setattr(schemes, "lambda_plus_i_singular", counted)
    unaligned = ((0, 1, -1), (-1, 0, 1), (1, 1, 0))
    for k_users, n, m, signs, name in ((3, 2, 2, SINGULAR_LAMBDA, "moderate"),
                                       (3, 2, 2, ((0, 1, 1), (1, 0, -1), (1, -1, 0)), "qsym"),
                                       (4, 2, 2, ((0, 1, 1, 1), (1, 0, 1, -1), (1, -1, 0, 1),
                                                  (1, -1, -1, 0)), "moderate")):
        calls.clear()
        assert build_scheme(k_users, n, m, signs=signs).name == name
        assert len(calls) == 1
    calls.clear()
    with pytest.raises(SingularSystem, match="no prime in"):
        build_scheme(3, 2, 2, signs=unaligned)
    assert calls == [unaligned]
    calls.clear()
    assert build_scheme(3, 3, 1, signs=unaligned).name == "qsym"
    assert calls == []  # only m = n asks


def test_select_prime_agrees_with_build_scheme():
    for k_users in (2, 3, 4, 5):
        for n in range(7):
            for m in range(7):
                if n + m:
                    assert select_prime(k_users, n, m) == build_scheme(k_users, n, m).params.p


def test_failed_scan_lists_every_primes_reason():
    """A scan that no prime passes reports each prime's own reason, in scan
    order: here the moderate condition of user 0 vanishes over every field."""
    with pytest.raises(SingularSystem) as info:
        build_scheme(3, 2, 2, signs=((0, 1, -1), (-1, 0, 1), (1, 1, 0)))
    head, *reasons = str(info.value).split("\n")
    assert head == f"no prime in {PRIME_SCAN} yields a decodable scheme for K=3, n=2, m=2:"
    assert reasons == [
        f"  no moderate-regime alignment point over GF({p}): user 0's Delta constant "
        f"term B + V - A - U is 0 on the whole 4-dimensional solution space"
        for p in PRIME_SCAN
    ]


def test_build_scheme_dispatch():
    assert build_scheme(3, 3, 1, p=5).name == "weak"
    assert build_scheme(3, 1, 3, p=5).name == "strong"
    assert build_scheme(3, 2, 2, p=5).name == "moderate"
    assert build_scheme(3, 2, 1, p=5, signs=SINGULAR_LAMBDA).name == "qsym"


def _corrupt_decoder(scheme):
    """User 1 adds its block-1 top output, which is its own first message
    symbol when m < n, to its first decoded symbol."""
    bad = scheme.decoders.copy()
    bad[1, 0, 0] = (bad[1, 0, 0] + 1) % scheme.params.p
    return dataclasses.replace(scheme, decoders=bad)


def test_verify_scheme_reports_fault_injection():
    """A corrupted decoder map must be caught and the first failing trial's
    transcript kept; a scheme that decodes keeps trial 0's."""
    base = build_scheme(3, 3, 1, p=5)
    broken = _corrupt_decoder(base)
    report = verify_scheme(base.params, broken, 20, seed=22)
    msgs = np.random.default_rng(22).integers(0, 5, size=(20, 3, 5))
    failing = np.flatnonzero(msgs[:, 1, 0] != 0)
    assert failing[0] > 0  # trial 0 decodes, so the failure is not trial 0
    assert report.successes == 20 - failing.size
    tr = report.transcript
    assert tr.messages_in.tolist() == msgs[failing[0]].tolist()
    assert (tr.messages_out != tr.messages_in).any()
    passing = verify_scheme(base.params, base, 20, seed=22)
    assert passing.all_passed
    assert passing.transcript.messages_in.tolist() == msgs[0].tolist()


def _one_batch_report(scheme, trials, seed):
    """(successes, kept transcript as JSON) of one replay of every trial's
    messages, drawn at once: what `verify_scheme` reports, chunk by chunk."""
    params = scheme.params
    msgs = np.random.default_rng(seed).integers(
        0, params.p, size=(trials, params.K, scheme.msg_symbols))
    batch = run_feedback_session(params, scheme, msgs)
    failed = np.flatnonzero((batch.messages_out != batch.messages_in).any(axis=(1, 2)))
    kept = batch.trial(failed[0] if failed.size else 0)
    return trials - failed.size, kept.to_json_dict()


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_verify_scheme_replays_in_chunks_like_one_batch(monkeypatch, offset):
    """trials = _CHUNK - 1, _CHUNK and _CHUNK + 1 replay in one, one and two
    batches of at most _CHUNK sessions, and the report equals one replay of
    every trial drawn at once: counts and kept transcript, for a scheme that
    decodes and for a corrupted decoder."""
    chunk = schemes._CHUNK
    trials = chunk + offset
    batches = {-1: [chunk - 1], 0: [chunk], 1: [chunk, 1]}[offset]
    calls = []

    def counted(params, scheme, messages):
        calls.append(len(messages))
        return run_feedback_session(params, scheme, messages)

    monkeypatch.setattr(schemes, "run_feedback_session", counted)
    base = build_scheme(3, 3, 1, p=2)
    for scheme in (base, _corrupt_decoder(base)):
        expect = _one_batch_report(scheme, trials, seed=31)
        calls.clear()
        report = verify_scheme(base.params, scheme, trials, seed=31)
        assert calls == batches
        assert report.trials == trials
        assert (report.successes, report.transcript.to_json_dict()) == expect
    assert report.successes < trials  # the corrupted decoder fails sessions


def test_verify_scheme_keeps_a_first_failure_from_a_later_chunk(monkeypatch):
    """With 4 sessions a chunk, a corrupted decoder over GF(2) (a session
    fails iff user 1's first message symbol is 1) whose first failure lies
    in the third chunk: the report keeps that session, not session 0 nor a
    later failure, and counts every chunk's failures."""
    monkeypatch.setattr(schemes, "_CHUNK", 4)
    broken = _corrupt_decoder(build_scheme(3, 3, 1, p=2))
    trials = 19
    seed = next(seed for seed in itertools.count() if np.flatnonzero(
        np.random.default_rng(seed).integers(0, 2, size=(trials, 3, 5))[:, 1, 0])[0] >= 8)
    msgs = np.random.default_rng(seed).integers(0, 2, size=(trials, 3, 5))
    failing = np.flatnonzero(msgs[:, 1, 0])
    assert failing[0] >= 8 and failing.size >= 2
    report = verify_scheme(broken.params, broken, trials, seed)
    assert report.successes == trials - failing.size
    assert report.transcript.messages_in.tolist() == msgs[failing[0]].tolist()
    assert (report.successes, report.transcript.to_json_dict()) == \
        _one_batch_report(broken, trials, seed)


def test_verify_scheme_memory_does_not_grow_with_trials():
    """64 chunks of sessions peak below half the bytes of one draw of all
    their messages; a replay of all of them as one batch holds that draw
    several times over."""
    scheme = build_scheme(3, 2, 1)
    trials = 64 * schemes._CHUNK
    all_messages = trials * 3 * scheme.msg_symbols * 8  # int64
    tracemalloc.start()
    try:
        report = verify_scheme(scheme.params, scheme, trials, seed=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed and report.trials == trials
    assert peak < all_messages / 2


def _unit_message_replay_is_identity(scheme) -> bool:
    """Replay the K*L unit message vectors as one batch.  Encoders, channel
    and decoders are all linear over GF(p), so an identity map here proves
    bit-exact decoding for all p^(K*L) messages."""
    size = scheme.params.K * scheme.msg_symbols
    units = np.eye(size, dtype=np.int64).reshape(size, scheme.params.K, scheme.msg_symbols)
    out = run_feedback_session(scheme.params, scheme, units).messages_out
    return bool((out.reshape(size, size) == np.eye(size, dtype=np.int64)).all())


def test_every_message_decodes_exhaustive_proof():
    for k_users in (2, 3, 4, 5):
        for n in range(7):
            for m in range(7):
                if n + m:
                    assert _unit_message_replay_is_identity(build_scheme(k_users, n, m))
    for lam in list(all_sign_matrices_k3())[::3]:
        for n, m in ((2, 1), (1, 2), (4, 2), (2, 4)):
            assert _unit_message_replay_is_identity(build_scheme(3, n, m, signs=lam))
    assert not _unit_message_replay_is_identity(_corrupt_decoder(build_scheme(3, 3, 1, p=5)))


# sha256 of every symmetric scheme's encoder and decoder maps over the
# criterion-1 grid, recorded from the separate weak/strong builders that the
# aligned builder at the all-ones point replaced.
SYMMETRIC_MAPS_SHA256 = {
    None: "5342793d2651a6503133dc6e3d85b6ba613f098b510816d3a99faa44c027299d",
    2: "cd9c89dcd82404efdc98d7b51d28d85cd41cfb60595911c3cd8bb9d96e16f3e0",
    3: "8a5f9e876379b05f3e19bdec888f562f69541b70b6e341c3d479b3da36325264",
    5: "3212f2ad876ca21753fdcde7b1d3e78d1ec847fa31df13fbab081d9a0cbf42b3",
    7: "5de56f8131ca7fefa14a05e9b84773817b39fdff6133e05755e58b0a22188605",
}


@pytest.mark.parametrize("p", list(SYMMETRIC_MAPS_SHA256))
def test_symmetric_maps_match_pinned_sha256(p):
    h = hashlib.sha256()
    for k_users in (2, 3, 4, 5):
        for n in range(7):
            for m in range(7):
                if n == m:
                    continue
                try:
                    scheme = build_scheme(k_users, n, m, p=p)
                except SingularSystem:
                    h.update(f"{k_users},{n},{m}:singular;".encode())
                    continue
                h.update(f"{k_users},{n},{m},{scheme.params.p}:".encode())
                for arr in (*scheme.encoders, scheme.decoders):
                    h.update(f"{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == SYMMETRIC_MAPS_SHA256[p]


def _build_digest(builds) -> str:
    """sha256 over each build's name, p, message size and maps (shape and
    bytes), or its failure type; `builds` yields (label, build thunk)."""
    h = hashlib.sha256()
    for label, build in builds:
        try:
            scheme = build()
        except SingularSystem as exc:  # NoSolution included
            h.update(f"{label}:{type(exc).__name__};".encode())
            continue
        h.update(f"{label}:{scheme.name},{scheme.params.p},{scheme.msg_symbols}:".encode())
        for arr in (*scheme.encoders, scheme.decoders):
            h.update(f"{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _criterion_grid_builds():
    for k_users in (2, 3, 4, 5):
        for n in range(7):
            for m in range(7):
                if n + m:
                    yield (k_users, n, m), functools.partial(build_scheme, k_users, n, m)


def _large_grid_builds():
    """The 48 large-q configurations: K 3, 7, 8; n 16..64; m in {16, 32,
    48, 64, n - 1}, m != n."""
    for k_users in (3, 7, 8):
        for n in (16, 32, 48, 64):
            for m in sorted({16, 32, 48, 64, n - 1} - {n}):
                yield (k_users, n, m), functools.partial(build_scheme, k_users, n, m)


def _signed_builds():
    for i, lam in enumerate(all_sign_matrices_k3()):
        for n, m, p in ((2, 1, None), (1, 2, None), (2, 2, 5), (2, 2, 7)):
            yield (i, n, m, p), functools.partial(build_scheme, 3, n, m, p=p, signs=lam)


# sha256 of `_build_digest` over three sets of builds, recorded before the
# two-block builder wrote its maps by index and inverted Delta by its
# recurrence: the maps those rewrites produce are the same bytes.
BUILD_MAPS_SHA256 = {
    "criterion": (_criterion_grid_builds,
        "977cdba17518935b4dd310606704c7a73b2fe286a9e0dd84b0f4e0c38990fbce"),
    "large": (_large_grid_builds,
        "3971959e25b8b25e4b884e4d6b0de25f52a310b318ef5dccdd5bc78bb7722af9"),
    "signed": (_signed_builds,
        "2fe653a8db916c2306fad9f2e3e86c9746c2154cbaa08004c8c4d97042a1d459"),
}


@pytest.mark.parametrize("grid", list(BUILD_MAPS_SHA256))
def test_build_maps_match_pinned_sha256(grid):
    builds, digest = BUILD_MAPS_SHA256[grid]
    assert _build_digest(builds()) == digest


@pytest.mark.parametrize("k_users, n, m", [(3, 3, 1), (8, 64, 32), (7, 16, 64), (3, 48, 47)])
def test_symmetric_maps_are_user_broadcasts(k_users, n, m):
    """A symmetric scheme's three maps are one base each, broadcast over
    the users with a zero stride, not K copies."""
    scheme = build_scheme(k_users, n, m)
    for arr in (*scheme.encoders, scheme.decoders):
        assert arr.strides[0] == 0


def _second_by_definition(params, a: int, b: int):
    """(A own + B relay) mod p over [own message; block-1 outputs], in
    Python ints: own picks the first q own symbols; relay is R, the
    interference I_k its receiver heard in block 1 (output minus own
    contribution) on the aligned levels and, for n > m, the fresh symbols
    q..L-1 below it."""
    n, m, q, p = params.n, params.m, params.q, params.p
    L = 2 * n - m if n > m else q
    own = [[int(j == i) for j in range(L + q)] for i in range(q)]
    relay = [[0] * (L + q) for _ in range(q)]
    if n >= m:  # cross signal on output levels n-m..n-1, over own symbols there
        for i in range(m):
            relay[i][L + n - m + i] += 1
            relay[i][n - m + i] -= 1
        for i in range(n - m):
            relay[m + i][n + i] += 1
    else:  # own signal shifted down by m - n under the cross signal
        for i in range(q):
            relay[i][L + i] += 1
            if i >= m - n:
                relay[i][i - (m - n)] -= 1
    return [[(a * o + b * r) % p for o, r in zip(orow, rrow)] for orow, rrow in zip(own, relay)]


def test_second_encoder_follows_its_definition():
    """Every user's block-2 encoder is (A_k own + B_k relay) mod p, for
    symmetric and signed builds on both sides of m = n."""
    for k_users, n, m, p in itertools.product((2, 3, 4), range(5), range(5), (2, 3, 5, 13)):
        if n == m:
            continue
        try:
            scheme = build_scheme(k_users, n, m, p=p)
        except SingularSystem:
            continue
        want = _second_by_definition(scheme.params, 0, 1)  # the all-ones point's (A, B)
        for k in range(k_users):
            assert scheme.encoders[1][k].tolist() == want, (k_users, n, m, p, k)
    for lam in list(all_sign_matrices_k3())[::5]:
        for n, m in ((2, 1), (1, 2), (3, 1), (1, 3), (4, 3)):
            try:
                sol = qsym_solve(lam, "weak" if m < n else "strong", 5)
                scheme = build_scheme(3, n, m, p=5, signs=lam)
            except SingularSystem:
                continue
            for k in range(3):
                want = _second_by_definition(scheme.params, sol.a[k], sol.b[k])
                assert scheme.encoders[1][k].tolist() == want, (lam, n, m, k)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(k_users=st.integers(2, 6), n=st.integers(0, 8), m=st.integers(0, 8),
       p=st.sampled_from(PRIME_SCAN),
       signs=st.none() | st.sampled_from(list(all_sign_matrices_k3())))
def test_build_fails_typed_or_decodes_every_message(k_users, n, m, p, signs):
    """A sign matrix fixes K = 3."""
    assume(n + m >= 1)
    if signs is not None:
        k_users = 3
    try:
        scheme = build_scheme(k_users, n, m, p=p, signs=signs)
    except (SingularSystem, NoSolution):
        return
    assert _unit_message_replay_is_identity(scheme)


@st.composite
def _k4_k5_sign_matrices(draw):
    """A K x K sign matrix, K = 4 or 5: zero diagonal, each off-diagonal
    entry -1 or +1."""
    k_users = draw(st.sampled_from((4, 5)))
    flips = iter(draw(st.lists(st.booleans(), min_size=k_users * (k_users - 1),
                               max_size=k_users * (k_users - 1))))
    return tuple(tuple(0 if r == c else (-1 if next(flips) else 1) for c in range(k_users))
                 for r in range(k_users))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(signs=_k4_k5_sign_matrices(),
       regime=st.sampled_from(("weak", "strong", "moderate")), data=st.data())
def test_signed_k4_k5_builds_decode_every_message(signs, regime, data):
    """Every auto-p build of a signed K = 4 or 5 channel gives back the
    identity on the unit-vector batch; draws with no build are skipped."""
    n, m = data.draw(_regime_sizes(regime), label="n, m")
    try:
        scheme = build_scheme(len(signs), n, m, signs=signs)
    except SingularSystem:  # NoSolution included
        return
    assert _unit_message_replay_is_identity(scheme)


def test_signed_k4_corrupted_decoder_fails_the_unit_batch():
    lam = ((0, -1, 1, 1), (1, 0, -1, 1), (-1, 1, 0, 1), (1, 1, 1, 0))
    scheme = build_scheme(4, 3, 1, signs=lam)
    assert scheme.name == "qsym" and _unit_message_replay_is_identity(scheme)
    assert not _unit_message_replay_is_identity(_corrupt_decoder(scheme))


def test_primes_beyond_int64_are_rejected():
    """K=3, n=3, m=1: the longest map row is the block-2 encoder's L + q = 8
    columns, so int64 dot products are exact iff 8 (p - 1)^2 < 2^63, i.e.
    p <= 2^30; 1073741789 and 1073741827 are the primes either side."""
    scheme = build_scheme(3, 3, 1, p=1073741789)
    report = verify_scheme(scheme.params, scheme, 50, seed=3)
    assert report.successes == 50
    assert _unit_message_replay_is_identity(scheme)
    for p in (1073741827, 3037000493, 4294967291):
        with pytest.raises(ValueError):
            build_scheme(3, 3, 1, p=p)
    with pytest.raises(ValueError):
        build_scheme(3, 1, 1, p=3037000493)  # time sharing: rows of K q = 3
    with pytest.raises(ValueError):
        DetParams(K=3, n=1, m=1, p=4294967291)  # (p - 1)^2 alone reaches 2^63


def test_build_runs_the_primality_trial_division_once():
    """Every GF(p) object a build makes checks p: a symmetric build makes
    only DetParams (the relay's shift matrix is a plain array, and the
    decode matrix is inverted in closed form).  The trial division, ~16 000
    steps near 2^30, runs for the first check only."""
    is_prime.cache_clear()
    code = inspect.unwrap(is_prime).__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["n"])

    sys.setprofile(profile)
    try:
        build_scheme(3, 3, 1, p=1073741789)
        build_scheme(3, 1, 2, p=1073741789)
    finally:
        sys.setprofile(None)
    assert calls == [1073741789]


def test_verify_report_json_keys():
    scheme = build_scheme(3, 1, 3, p=5)
    report = verify_scheme(scheme.params, scheme, 10, seed=18)
    doc = report.to_json_dict()
    assert list(doc) == [
        "params", "declared_rate", "trials", "successes",
        "converse_rate", "matches_converse",
    ]
    assert doc["declared_rate"] == {"num": 3, "den": 2}
    assert doc["converse_rate"] == {"num": 3, "den": 2}
    assert doc["matches_converse"] is True


def test_verify_scheme_is_seeded_and_reproducible():
    scheme = build_scheme(4, 2, 3, p=5)
    r1 = verify_scheme(scheme.params, scheme, 25, seed=123)
    r2 = verify_scheme(scheme.params, scheme, 25, seed=123)
    assert r1.successes == r2.successes == 25


def test_every_constructible_scheme_decodes_across_primes():
    """Wherever construction succeeds with a regime-appropriate prime, random
    replay is perfect; singular fields only ever fail at construction."""
    cases = [(2, 3, 1), (3, 4, 2), (5, 2, 1), (3, 1, 4), (4, 2, 5), (5, 3, 3), (2, 2, 2)]
    for k_users, n, m in cases:
        for p in (2, 3, 5, 7, 11):
            try:
                scheme = build_scheme(k_users, n, m, p=p)
            except SingularSystem:
                assert m > n and k_users % p == 1 % p
                continue
            report = verify_scheme(scheme.params, scheme, 30, seed=k_users * 100 + p)
            assert report.successes == 30, (k_users, n, m, p)
            assert report.matches_converse
