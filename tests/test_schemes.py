import collections
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import operator
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from fcic import schemes
from fcic.channel import DetParams, run_feedback_session
from fcic.cli import main
from fcic.gauss_sim import make_lattice
from fcic.gf import GfMatrix, SingularSystem, is_prime, nullspace
from fcic.rates import RegimeMismatch, det_converse, lambda_plus_i_singular
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
    leibniz_det,
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


@pytest.mark.parametrize("row, col, value, text", [
    (0, 0, 1, "sign matrix diagonal must be 0"),
    (0, 1, 2, "off-diagonal signs must be -1 or \\+1"),
], ids=["diagonal", "off-diagonal"])
def test_alignment_solution_checks_lambda_by_the_detparams_rule(row, col, value, text):
    """Lambda is checked by `DetParams`' rule before the identity, so a
    nonzero diagonal entry or an off-diagonal 2 raises that rule's text;
    a valid Lambda given as an array is stored as a tuple of tuples."""
    point = dict(a=(0, 0, 0), b=(1, 1, 1), v=(1, 1, 1), p=5)
    lam = np.array(all_ones_lambda())
    assert AlignmentSolution(**point, signs=lam).signs == all_ones_lambda()
    lam[row, col] = value
    with pytest.raises(ValueError, match=f"^{text}$"):
        AlignmentSolution(**point, signs=lam)


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
    basis = [vec.tolist() for vec in nullspace(GfMatrix(qsym_constraint_matrix(signs), p))]
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
    """The prefix walk finds the same first point, or fails with the same
    text, as the per-candidate loop it replaced: on the 64 K = 3 sign
    matrices, the 38 K = 4 orbit representatives, 20 seeded K = 5
    matrices and 10 seeded K = 7 ones, whose strong GF(2) walks run out.
    The cap is lowered to 700 for both so the Python reference stays fast:
    every K = 3 space over GF(2), GF(3) and GF(5) is searched
    exhaustively, larger ones up to the cap."""
    monkeypatch.setattr(schemes, "ENUM_CAP", 700)
    cases = [*all_sign_matrices_k3(), all_ones_lambda(2), all_ones_lambda(4), *_k4_orbits(),
             *_random_sign_matrices(5, 20, seed=20261020),
             *_random_sign_matrices(7, 10, seed=20261027)]
    outcomes = set()
    for lam in cases:
        for regime in ("weak", "strong", "moderate"):
            for p in PRIME_SCAN:
                got = _solve_outcome(lam, regime, p)
                assert got == _reference_qsym_solve(lam, regime, p, 700)
                outcomes.add(type(got))
    assert outcomes == {tuple, str}


def test_qsym_solve_capped_search_matches_reference(monkeypatch):
    """With the cap below the candidate count, the search walks the largest
    radix r with r**dim <= ENUM_CAP and reports r**dim candidates: at
    ENUM_CAP 10 or 20 over GF(3), the 32 K = 3 matrices with a
    3-dimensional space, where no user's weak or strong condition vanishes,
    walk 2**3 = 8 candidates.  At 20 the rounded cube root is 3, and
    3**3 = 27 > 20 takes it down to 2."""
    for cap in (10, 20):
        monkeypatch.setattr(schemes, "ENUM_CAP", cap)
        for regime in ("weak", "strong"):
            walked = 0
            for lam in all_sign_matrices_k3():
                got = _solve_outcome(lam, regime, 3)
                assert got == _reference_qsym_solve(lam, regime, 3, cap)
                walked += "after 8 candidates" in got
            assert walked == 32


def _basis_forms(signs, regime, p):
    """Each user's Delta constant term (`_delta_form`) at each nullspace basis
    vector, mod p: row j holds the K users' forms on coordinate j."""
    basis = nullspace(GfMatrix(qsym_constraint_matrix(signs), p)).tolist()
    forms = [_delta_form(signs, regime, k) for k in range(len(signs))]
    return [[sum(map(operator.mul, vec, form)) % p for form in forms] for vec in basis]


def _point_at(signs, p, coords):
    """(A, B, U, V) at the nullspace coordinates `coords`, in Python ints."""
    k = len(signs)
    basis = nullspace(GfMatrix(qsym_constraint_matrix(signs), p)).tolist()
    x = [sum(map(operator.mul, coords, col)) % p for col in zip(*basis)]
    a, b, v = x[:k], x[k:2 * k], x[2 * k:]
    u = [sum(signs[i][j] * b[j] * signs[j][i] for j in range(k)) % p for i in range(k)]
    return tuple(a), tuple(b), tuple(u), tuple(v)


def test_qsym_walk_treats_a_user_with_a_zero_last_form_entry():
    """User 2's weak form is 0 on the last coordinate over GF(5), so it fails
    at every last value of a prefix or at none.  It fails at all five of
    the first prefix (1, 1), where its prefix sum 4 + 1 is 0, and at none
    of the second, (1, 2), whose last value 3 is the first that users 0 and
    1 both pass: candidate 7 of the reference's walk."""
    lam = ((0, 1, 1), (1, 0, 1), (1, -1, 0))
    forms = _basis_forms(lam, "weak", 5)
    assert forms == [[0, 1, 4], [1, 0, 1], [4, 4, 0]]
    got = _solve_outcome(lam, "weak", 5)
    assert got == _point_at(lam, 5, (1, 2, 3))
    assert got == _reference_qsym_solve(lam, "weak", 5, schemes.ENUM_CAP)


def test_qsym_walk_skips_a_failing_value_beyond_the_capped_radix(monkeypatch):
    """At ENUM_CAP 20 over GF(3) the all-ones K = 3 strong walk has radix 2 on
    a 4-dimensional space: digits 0 and 1, the values 1 and 2.  At the first
    prefix user 2 fails only at the value 0, digit 2, beyond the radix, and
    users 0 and 1 fail at value 2, so value 1 wins: the first candidate.
    Counting digit 2 among the radix would fail the whole prefix."""
    monkeypatch.setattr(schemes, "ENUM_CAP", 20)
    lam = all_ones_lambda(3)
    assert _basis_forms(lam, "strong", 3)[-1] == [2, 2, 1]
    got = _solve_outcome(lam, "strong", 3)
    assert got == _point_at(lam, 3, (1, 1, 1, 1))
    assert got == _reference_qsym_solve(lam, "strong", 3, 20)


def test_qsym_walk_counts_the_prefixes_a_flat_user_fails_whole(monkeypatch):
    """At ENUM_CAP 20 the strong walks of the seeded K = 5 sample have radix
    2 or 3.  Where a user with a zero last form entry fails at every last
    value of a prefix, each value's first failing user is the earlier of
    it and the first user failing there by its one value; such a user
    takes part in 39 of the walks that run out.  Every outcome, the counts
    in each NoSolution text included, is the reference's."""
    monkeypatch.setattr(schemes, "ENUM_CAP", 20)
    flat_walks = 0
    for lam in _random_sign_matrices(5, 20, seed=20261020):
        for p in PRIME_SCAN:
            got = _solve_outcome(lam, "strong", p)
            assert got == _reference_qsym_solve(lam, "strong", p, 20)
            if "candidates" in got:  # a walk that ran out; its last coordinate's forms:
                flat_walks += 0 in [row for row in _basis_forms(lam, "strong", p) if any(row)][-1]
    assert flat_walks == 39


def test_qsym_walk_finds_a_winner_past_the_first_prefix():
    """Benchmark sign matrix 62, strong, over GF(3): user 2's last form entry
    is 0 and its prefix sum is 0 at the first prefix (1, 1), which fails
    whole; the second prefix (1, 2) wins at the last value 0, candidate 5."""
    lam = ((0, 1, -1), (-1, 0, -1), (-1, -1, 0))
    assert _basis_forms(lam, "strong", 3) == [[0, 2, 2], [1, 0, 1], [2, 1, 0]]
    got = _solve_outcome(lam, "strong", 3)
    assert got == _point_at(lam, 3, (1, 2, 0)) == ((1, 2, 0), (1, 1, 2), (1, 1, 2), (1, 2, 0))
    assert got == _reference_qsym_solve(lam, "strong", 3, schemes.ENUM_CAP)


def test_qsym_solve_rejects_an_unknown_regime():
    """The regime names the Delta condition to search for; any other name
    is a ValueError before the search."""
    with pytest.raises(ValueError, match="unknown regime 'moderately'"):
        qsym_solve(all_ones_lambda(), "moderately", 5)


def test_qsym_walk_is_the_whole_space_for_k3():
    """p**dim <= ENUM_CAP for every K = 3 sign matrix and prime in
    PRIME_SCAN, so the radix is p there and no K = 3 search is capped."""
    dims = {len(nullspace(GfMatrix(qsym_constraint_matrix(lam), p)))
            for lam in all_sign_matrices_k3() for p in PRIME_SCAN}
    assert max(dims) == 4 and PRIME_SCAN[-1] ** 4 <= schemes.ENUM_CAP


def test_qsym_solve_matches_reference_at_the_real_cap_with_a_capped_radix():
    """Over GF(1009) the walk is capped at the real ENUM_CAP: the radix is
    100 at dim 3 and 31 at dim 4, below p, so coordinates take 1..r only.
    Every K = 3 sign matrix and regime finds the reference's point, or
    fails with its text."""
    assert schemes.ENUM_CAP == 10**6
    p = 1009
    dims, outcomes = set(), set()
    for lam in all_sign_matrices_k3():
        dims.add(len(nullspace(GfMatrix(qsym_constraint_matrix(lam), p))))
        for regime in ("weak", "strong", "moderate"):
            got = _solve_outcome(lam, regime, p)
            assert got == _reference_qsym_solve(lam, regime, p, schemes.ENUM_CAP)
            outcomes.add(type(got))
    assert dims == {3, 4} and outcomes == {tuple, str}


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


def _constraint_rows_by_definition(lam):
    """Row (k, i), k != i in row-major order, of lambda_ki A_i
    + sum_{j not in {k,i}} lambda_kj lambda_ji B_j - lambda_ki V_k, over the
    unknowns (A, B, V), in Python ints."""
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
            rows.append(row)
    return rows


def _random_sign_matrices(k_users, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lam = rng.choice((-1, 1), size=(k_users, k_users))
        np.fill_diagonal(lam, 0)
        yield tuple(map(tuple, lam.tolist()))


def test_constraint_rows_follow_the_alignment_identity():
    """The constraint matrix is the identity's off-diagonal rows as defined,
    in int64 with every entry -1, 0 or 1, and every nullspace vector of its
    rows mod p, with U = (Lambda o Lambda^T) B, satisfies
    Lambda A + Lambda B Lambda = U + V Lambda mod p entrywise: over the 64
    K = 3 matrices and a seeded sample at K = 4, 5 and 6."""
    cases = list(all_sign_matrices_k3())
    for k_users in (4, 5, 6):
        cases += _random_sign_matrices(k_users, 20, seed=k_users)
    checked = 0
    for lam in cases:
        k_users = len(lam)
        rows = qsym_constraint_matrix(lam)
        assert rows.dtype == np.int64 and set(rows.ravel().tolist()) <= {-1, 0, 1}
        assert rows.tolist() == _constraint_rows_by_definition(lam)
        for p in PRIME_SCAN:
            for vec in nullspace(GfMatrix(rows, p)).tolist():
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
        i for i, lam in enumerate(mats) if leibniz_det(np.add(lam, np.eye(3, dtype=np.int64))) == 4]
    for i, (k, y) in DEAD_USER_CERTIFICATES.items():
        lam = mats[i]
        rows = _constraint_rows_by_definition(lam)
        form = _delta_form(lam, "moderate", k)
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
        return leibniz_det(np.add(lam, np.eye(3, dtype=np.int64))), pairs

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


def _k4_orbits():
    """The 4096 K = 4 sign matrices split by relabelling the users and by
    Lambda -> D Lambda D: {representative: orbit size}.  A matrix is coded
    by its 12 off-diagonal signs as bits (1 for -1); each map permutes the
    bits and flips some, and an orbit's representative has its least code."""
    pos = [(r, c) for r in range(4) for c in range(4) if r != c]
    codes = np.arange(2 ** len(pos))
    bits = codes[:, None] >> np.arange(len(pos)) & 1
    least = codes.copy()
    for perm in itertools.permutations(range(4)):
        moved = bits[:, [pos.index((perm[r], perm[c])) for r, c in pos]]
        for d in itertools.product((0, 1), repeat=4):
            image = (moved ^ [d[r] ^ d[c] for r, c in pos]) @ (1 << np.arange(len(pos)))
            np.minimum(least, image, out=least)
    reps, sizes = np.unique(least, return_counts=True)
    return {tuple(tuple(0 if r == c else 1 - 2 * (code >> pos.index((r, c)) & 1)
                        for c in range(4)) for r in range(4)): size
            for code, size in zip(reps.tolist(), sizes.tolist())}


def test_k4_census_of_the_primes_that_align():
    """Every K = 4 sign matrix, through its orbit's representative, solved
    at each prime of `PRIME_SCAN` in each regime: the number of matrices
    per set of aligning primes (and, at m = n, per Lambda + I singular or
    not).  The weak 1536 align over GF(2) only, the strong 128 at every
    prime but GF(3), and of the 1392 m = n matrices with Lambda + I
    nonsingular, 160 at every prime but GF(2) and 1232 at none."""
    orbits = _k4_orbits()
    assert (len(orbits), sum(orbits.values())) == (38, 4096)
    every = frozenset(PRIME_SCAN)
    census = collections.Counter()
    for lam, size in orbits.items():
        for regime in ("weak", "strong", "moderate"):
            aligned = frozenset(p for p in PRIME_SCAN
                                if not isinstance(_solve_outcome(lam, regime, p), str))
            singular = regime == "moderate" and lambda_plus_i_singular(lam)
            census[regime, singular, aligned] += size
    assert census == {
        ("weak", False, every): 2560, ("weak", False, frozenset({2})): 1536,
        ("strong", False, every): 3968, ("strong", False, every - {3}): 128,
        ("moderate", True, frozenset()): 2704,
        ("moderate", False, every - {2}): 160, ("moderate", False, frozenset()): 1232,
    }


def _delta_form(lam, regime, k):
    """User k's Delta form over the unknowns (A, B, V), in Python ints: B_k
    (weak), -U_k (strong) or B_k + V_k - A_k - U_k (m = n), where
    U_k = sum_j lambda_kj lambda_jk B_j."""
    n = len(lam)
    form = [0] * (3 * n)
    if regime == "weak":
        form[n + k] = 1
        return form
    for j in range(n):
        form[n + j] -= lam[k][j] * lam[j][k]
    if regime == "moderate":
        form[k] -= 1
        form[n + k] += 1
        form[2 * n + k] += 1
    return form


def _certificates(rows, forms):
    """For each form, an exact verdict on y . rows == form over the
    rationals, in Python ints: (z, d) with z . rows == d * form, d the least
    common denominator of the solution y whose free coordinates are 0, or
    (x, None) with rows . x == 0 and form . x != 0, which proves there is no
    solution.  One reduced echelon form of [rows^T | I] serves every form:
    its right half E has E rows^T in reduced echelon form, so the rows of E
    below the rank span the null space of rows, and above it E form gives
    y's pivot coordinates."""
    cols = len(rows[0])
    red, pivots = sympy.Matrix(rows).T.row_join(sympy.eye(cols)).rref()
    rank = sum(c < len(rows) for c in pivots)
    ech = [[Fraction(int(v.p), int(v.q)) for v in red.row(r)[len(rows):]] for r in range(cols)]
    out = []
    for form in forms:
        ef = [sum(map(operator.mul, e, form)) for e in ech]
        seen = next((r for r in range(rank, cols) if ef[r]), None)
        if seen is None:
            vec = [0] * len(rows)
            for r in range(rank):
                vec[pivots[r]] = ef[r]
        else:
            vec = ech[seen]
        scale = math.lcm(*(Fraction(v).denominator for v in vec))
        out.append(([int(v * scale) for v in vec], scale if seen is None else None))
    return out


def test_k4_certificates_predict_the_primes_that_align():
    """For each K = 4 orbit representative, regime and user, an exact
    verdict on the user's Delta form f: a certificate z . M = d f, checked
    in Python ints (M the integer alignment rows of `qsym_constraint_matrix`,
    d >= 1), or a null vector x of M with f . x != 0, which shows f is not a
    rational combination of the rows.  A certificate makes f vanish on the
    solution space over GF(p) for every p not dividing d: the user is dead
    there.  The rule "dead at p exactly when p does not divide d" predicts
    `qsym_solve` at every prime of `PRIME_SCAN` but at p < K: the 160 m = n
    matrices that fail over GF(2) and the 128 strong ones that fail over
    GF(3) have no certificate, yet a user is dead there: its form is a
    combination of the rows mod p only, where p divides an invariant
    factor (`test_k4_rank_rule_decides_every_solve`).  Denominators: 1 at
    m = n (one to four users, 3936 matrices), 4 for two weak users (1536),
    and no strong certificate."""
    census, missed = collections.Counter(), collections.Counter()
    for lam, size in _k4_orbits().items():
        rows = qsym_constraint_matrix(lam).tolist()
        regimes = ("weak", "strong", "moderate")
        forms = [_delta_form(lam, regime, k) for regime in regimes for k in range(4)]
        verdicts = _certificates(rows, forms)
        for n, regime in enumerate(regimes):
            dens = []
            for form, (vec, d) in zip(forms[4 * n:], verdicts[4 * n:4 * n + 4]):
                if d is None:
                    assert [sum(map(operator.mul, row, vec)) for row in rows] == [0] * len(rows)
                    assert sum(map(operator.mul, form, vec)) != 0
                else:
                    assert [sum(map(operator.mul, vec, col)) for col in zip(*rows)] == [
                        d * v for v in form]
                dens.append(d)
            census[regime, tuple(sorted(dens, key=str))] += size
            for p in PRIME_SCAN:
                dead = any(d is not None and d % p for d in dens)
                aligned = not isinstance(_solve_outcome(lam, regime, p), str)
                if aligned == dead:
                    missed[regime, p, aligned] += size
    assert missed == {("moderate", 2, False): 160, ("strong", 3, False): 128}
    assert census == {
        ("weak", (None,) * 4): 2560, ("weak", (4, 4, None, None)): 1536,
        ("strong", (None,) * 4): 4096,
        ("moderate", (1, 1, 1, 1)): 1184, ("moderate", (1, 1, 1, None)): 1664,
        ("moderate", (1, 1, None, None)): 960, ("moderate", (1, None, None, None)): 128,
        ("moderate", (None,) * 4): 160,
    }


def _rank_rule_census(weighted):
    """Each (Lambda, orbit size) of `weighted`, each regime and each prime
    of `PRIME_SCAN`: the rank of an integer matrix mod p is the number of
    its invariant factors that p does not divide, and user k's Delta form
    f_k is 0 on the whole solution space over GF(p) exactly when
    rank_p([M; f_k]) = rank_p(M), M = `qsym_constraint_matrix(Lambda)`.
    Asserts that this rule decides the solve: `qsym_solve` ends at its
    zero-column check, naming the first such user, exactly when one
    exists, and otherwise finds a point, but for a strong walk over GF(2)
    at odd K, where no B makes every U_k nonzero and the walk runs out of
    candidates (`test_gf2_has_a_strong_point_exactly_at_even_k`).  Returns
    the solves per verdict and the matrices per (regime, primes where a
    user is dead), each weighted by orbit size."""
    def rank(factors, p):
        return sum(d % p != 0 for d in factors)

    tally, census = collections.Counter(), collections.Counter()
    for lam, size in weighted:
        k_users = len(lam)
        rows = qsym_constraint_matrix(lam).tolist()
        base = invariant_factors(sympy.Matrix(rows))
        for regime in ("weak", "strong", "moderate"):
            with_form = [invariant_factors(sympy.Matrix([*rows, _delta_form(lam, regime, k)]))
                         for k in range(k_users)]
            dead_at = set()
            for p in PRIME_SCAN:
                dead = [k for k in range(k_users) if rank(with_form[k], p) == rank(base, p)]
                got = _solve_outcome(lam, regime, p)
                if dead:
                    assert got.startswith(f"no {regime}-regime alignment point over GF({p}): "
                                          f"user {dead[0]}'s Delta"), (lam, regime, p)
                    assert got.endswith("solution space")
                    dead_at.add(p)
                    tally["dead"] += size
                elif regime == "strong" and p == 2 and k_users % 2:
                    assert "candidates" in got, lam
                    tally["strong GF(2) walk"] += size
                else:
                    assert isinstance(got, tuple), (lam, regime, p, got)
                    tally["aligned"] += size
            census[regime, frozenset(dead_at)] += size
    return tally, census


def test_k3_rank_rule_decides_every_solve():
    """The rank rule (`_rank_rule_census`) decides all 1152 solves of the 64
    K = 3 sign matrices: 364 end at the zero-column check, 724 align, and
    64 are the strong walks over GF(2).  No weak or strong user is dead at
    any prime.  At m = n a user is dead at every prime on the 40 matrices
    with Lambda + I singular and the 20 with det(Lambda + I) = 4
    (`DEAD_USER_CERTIFICATES`), and over GF(2) alone on the 4 with
    det(Lambda + I) = -4."""
    tally, census = _rank_rule_census((lam, 1) for lam in all_sign_matrices_k3())
    assert tally == {"dead": 364, "aligned": 724, "strong GF(2) walk": 64}
    assert census == {
        ("weak", frozenset()): 64, ("strong", frozenset()): 64,
        ("moderate", frozenset(PRIME_SCAN)): 60, ("moderate", frozenset({2})): 4,
    }


def test_k4_rank_rule_decides_every_solve():
    """The rank rule decides every solve of the 38 K = 4 orbit
    representatives (4096 matrices, solves weighted by orbit size) with no
    exception: K is even, so GF(2) has strong points.  It predicts the two
    rows that the certificates' rule leaves observed only
    (`test_k4_certificates_predict_the_primes_that_align`): the 160 m = n
    matrices that fail over GF(2) alone and the 128 strong ones that fail
    over GF(3) alone have a user dead there.  The census is that of
    `test_k4_census_of_the_primes_that_align`, by the primes where a user
    is dead."""
    tally, census = _rank_rule_census(_k4_orbits().items())
    assert tally == {"dead": 31_584, "aligned": 42_144}
    every = frozenset(PRIME_SCAN)
    assert census == {
        ("weak", frozenset()): 2560, ("weak", every - {2}): 1536,
        ("strong", frozenset()): 3968, ("strong", frozenset({3})): 128,
        ("moderate", every): 2704 + 1232, ("moderate", frozenset({2})): 160,
    }


def test_k5_rank_rule_decides_a_sample_of_solves():
    """The rank rule decides the 360 solves of 20 seeded K = 5 sign
    matrices, but for the 20 strong walks over GF(2), which run out of
    candidates at odd K.  Most of the sample aligns weak over GF(2) alone,
    and none aligns at m = n."""
    tally, census = _rank_rule_census(
        (lam, 1) for lam in _random_sign_matrices(5, 20, seed=20261020))
    assert tally == {"dead": 250, "aligned": 90, "strong GF(2) walk": 20}
    every = frozenset(PRIME_SCAN)
    assert census == {
        ("weak", frozenset()): 2, ("weak", every - {2}): 18,
        ("strong", frozenset()): 12, ("strong", every - {2}): 8,
        ("moderate", every): 20,
    }


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
    the users with a zero stride, not K copies, and read-only: a write
    through one user's map would change every user's."""
    scheme = build_scheme(k_users, n, m)
    for arr in (*scheme.encoders, scheme.decoders):
        assert arr.strides[0] == 0
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            arr += 0


# a strong-regime sign matrix whose users get distinct coefficients over GF(3)
PER_USER_SIGNS = ((0, -1, -1), (1, 0, 1), (1, 1, 0))


def test_every_build_holds_read_only_maps_and_the_callers_stay_writable():
    """Time sharing's per-user maps, a signed build's per-user maps and a
    per-user map the caller built are all read-only through the scheme,
    which holds the caller's map as a view, not a copy, and leaves its
    array writable."""
    moderate = build_scheme(3, 2, 2)
    signed = build_scheme(3, 1, 2, signs=PER_USER_SIGNS)
    assert (moderate.name, signed.name, signed.params.p) == ("moderate", "qsym", 3)
    assert all(arr.strides[0] != 0 for arr in (*moderate.encoders, moderate.decoders))
    assert signed.encoders[1].strides[0] != 0 and signed.decoders.strides[0] != 0
    mine = np.array(signed.decoders)
    caller = dataclasses.replace(signed, decoders=mine)
    assert np.shares_memory(caller.decoders, mine)
    for scheme in (moderate, signed, caller):
        for arr in (*scheme.encoders, scheme.decoders):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[-1, 0, 0] = arr[-1, 0, 0]
    assert mine.flags.writeable
    mine[-1, 0, 0] = mine[-1, 0, 0]


@pytest.mark.parametrize("numpy_args", [{"K": np.int64(3)}, {"p": np.int64(5)},
                                        {"K": np.int64(3), "n": np.int32(2),
                                         "m": np.int64(1), "p": np.int64(5)}],
                         ids=["K", "p", "all"])
@pytest.mark.parametrize("signs", [None, PER_USER_SIGNS], ids=["symmetric", "signed"])
def test_numpy_integer_parameters_build_the_python_int_scheme(numpy_args, signs):
    """K, n, m and p given as numpy ints are stored as Python ints, so the
    build has the same maps as with Python ints and its report writes the
    same JSON (an int64 K once failed `json.dumps`, an int64 p `pow`)."""
    args = {"K": 3, "n": 2, "m": 1, "p": 5 if "p" in numpy_args else None}
    want = build_scheme(**args, signs=signs)
    got = build_scheme(**{**args, **numpy_args}, signs=signs)
    assert got.params == want.params
    assert all(type(getattr(got.params, name)) is int for name in ("K", "n", "m", "p"))
    for ours, theirs in zip((*got.encoders, got.decoders), (*want.encoders, want.decoders)):
        assert ours.shape == theirs.shape and (ours == theirs).all()
    reports = [verify_scheme(s.params, s, trials=20, seed=1).to_json_dict() for s in (got, want)]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


@pytest.mark.parametrize("entry", [1.5, "-1"])
def test_non_integral_signs_are_rejected_not_cast(entry):
    """A sign 1.5 is not read as 1, nor "-1" as -1: `det_converse`,
    `DetParams`, `qsym_solve` and `AlignmentSolution` reject the matrix
    with the off-diagonal rule's text (an int64 cast once gave
    `det_converse(2, 2, 3, ...)` = 2/3)."""
    signs = [[0, entry, 1], [1, 0, 1], [1, 1, 0]]
    text = r"^off-diagonal signs must be -1 or \+1$"
    with pytest.raises(ValueError, match=text):
        det_converse(2, 2, 3, signs)
    with pytest.raises(ValueError, match=text):
        DetParams(K=3, n=2, m=2, p=3, signs=signs)
    with pytest.raises(ValueError, match=text):
        qsym_solve(signs, "moderate", 3)
    with pytest.raises(ValueError, match=text):
        AlignmentSolution(a=(0, 0, 0), b=(1, 1, 1), v=(1, 1, 1), p=5, signs=signs)


@pytest.mark.parametrize("entry", [1.5, "-1"])
def test_sign_matrix_helpers_reject_non_integral_signs(entry):
    """`lambda_plus_i_singular` (through `_plus_i_rank`) and
    `qsym_constraint_matrix` reject a sign 1.5 or "-1" with the
    off-diagonal rule's text too: they once read [[0, 1.5, 1], [1, 0, 1],
    [1, 1, 0]] as the all-ones Lambda (singular: True) and wrote 1.5 as 1."""
    signs = [[0, entry, 1], [1, 0, 1], [1, 1, 0]]
    text = r"^off-diagonal signs must be -1 or \+1$"
    with pytest.raises(ValueError, match=text):
        lambda_plus_i_singular(signs)
    with pytest.raises(ValueError, match=text):
        qsym_constraint_matrix(signs)


@pytest.mark.parametrize("signs, text", [
    ([[0, 2, 1], [1, 0, 1], [1, 1, 0]], r"^off-diagonal signs must be -1 or \+1$"),
    ([[7, 1, 1], [1, 0, 1], [1, 1, 0]], r"^sign matrix diagonal must be 0$"),
    ([[0]], r"^need K >= 2 users, got 1$"),
], ids=["sign-2", "diagonal-7", "single-user"])
def test_every_sign_matrix_reader_applies_the_one_check(signs, text):
    """`qsym_constraint_matrix`, `lambda_plus_i_singular`,
    `AlignmentSolution` and `qsym_solve` reject a 2 off the diagonal, a
    nonzero diagonal entry and a 1 x 1 Lambda with `_validate_signs`' text.
    Partial copies of the rules once let these through: the 2 and the 7
    were written into constraint rows, the matrix with the 2 read as
    singular, and every reader but `qsym_solve` took a 1 x 1 Lambda."""
    k = len(signs)
    with pytest.raises(ValueError, match=text):
        qsym_constraint_matrix(signs)
    with pytest.raises(ValueError, match=text):
        lambda_plus_i_singular(signs)
    with pytest.raises(ValueError, match=text):
        AlignmentSolution(a=(0,) * k, b=(1,) * k, v=(1,) * k, p=5, signs=signs)
    with pytest.raises(ValueError, match=text):
        qsym_solve(signs, "weak", 5)


def test_non_integral_coefficients_are_rejected_and_numpy_ints_stored_as_ints():
    """A coefficient 0.5 is not read as 0, nor 5.0, which would pass the
    identity mod 5, as 5: both fail the identity's text.  numpy ints are
    stored as Python ints, with the JSON of the Python-int point."""
    ones = all_ones_lambda()
    for a in ((0.5,) * 3, (5.0,) * 3, ("0",) * 3):
        with pytest.raises(ValueError, match="^alignment identity .* fails$"):
            AlignmentSolution(a=a, b=(1, 1, 1), v=(1, 1, 1), p=5, signs=ones)
    sol = AlignmentSolution(a=np.zeros(3, dtype=np.int64), b=np.ones(3, dtype=np.int32),
                            v=(np.int64(1),) * 3, p=5, signs=np.array(ones))
    assert all(type(x) is int for x in (*sol.a, *sol.b, *sol.v, *sol.u))
    want = AlignmentSolution(a=(0, 0, 0), b=(1, 1, 1), v=(1, 1, 1), p=5, signs=ones)
    assert json.dumps(sol.to_json_dict()) == json.dumps(want.to_json_dict())


# numpy functions implemented in Python: 3-25 us each on a cold call, which
# a det op pays on every build and replay
NUMPY_PY_HELPERS = frozenset({"broadcast_to", "stack", "split", "diag", "eye", "fill_diagonal",
                              "flatnonzero", "unravel_index"})


def test_det_ops_call_no_python_level_numpy_helpers():
    """A symmetric two-block build, a symmetric time-sharing build and a
    signed build, each verified, call none of `NUMPY_PY_HELPERS` from fcic
    code: maps are direct views, diagonals are set by index and the solver
    reads its slices and winners without them."""
    calls = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_name not in NUMPY_PY_HELPERS:
            return
        caller = frame.f_back
        if (frame.f_globals.get("__name__", "").startswith("numpy") and caller is not None
                and caller.f_globals.get("__name__", "").startswith("fcic")):
            calls.append(f"{caller.f_code.co_name} -> {frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        for k_users, n, m, signs in ((3, 3, 1, None), (3, 2, 2, None), (3, 2, 1, SINGULAR_LAMBDA)):
            scheme = build_scheme(k_users, n, m, signs=signs)
            assert verify_scheme(scheme.params, scheme, 5, seed=2).all_passed
    finally:
        sys.setprofile(None)
    assert calls == []


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


def test_verify_report_reads_its_converse_once(monkeypatch):
    """`matches_converse`, `converse_rate` and `to_json_dict` all read one
    `det_converse` call per report, on a signed m = n report too."""
    calls = []

    def counted(*args):
        calls.append(args)
        return det_converse(*args)

    monkeypatch.setattr(schemes, "det_converse", counted)
    for scheme, converse in ((build_scheme(3, 1, 3, p=5), Fraction(3, 2)),
                             (build_scheme(3, 2, 2, p=5, signs=((0, 1, 1), (1, 0, -1),
                                                                (1, -1, 0))), Fraction(1))):
        report = verify_scheme(scheme.params, scheme, 3, seed=19)
        calls.clear()
        assert report.matches_converse is True
        assert report.converse_rate == converse
        assert report.to_json_dict()["matches_converse"] is True
        assert len(calls) == 1


def test_verify_scheme_is_seeded_and_reproducible():
    scheme = build_scheme(4, 2, 3, p=5)
    r1 = verify_scheme(scheme.params, scheme, 25, seed=123)
    r2 = verify_scheme(scheme.params, scheme, 25, seed=123)
    assert r1.successes == r2.successes == 25


def test_results_holding_arrays_compare_as_bools():
    """A generated `==` over array fields would raise.  Two lattices from
    the same (c, M) are equal and hash equal, as (c, M) fix the codebook;
    schemes and transcripts compare by identity; reports compare their
    counts and, by identity, their transcripts."""
    lat = make_lattice(1.0, 4)
    assert (lat == make_lattice(1.0, 4)) is True
    assert hash(lat) == hash(make_lattice(1.0, 4))
    assert (lat == make_lattice(1.0, 8)) is False
    one, two = build_scheme(3, 3, 1, p=5), build_scheme(3, 3, 1, p=5)
    first = verify_scheme(one.params, one, 3, seed=1)
    second = verify_scheme(two.params, two, 3, seed=1)
    for x, y in ((one, two), (first.transcript, second.transcript), (first, second)):
        assert (x == y) is False and (x == x) is True
    assert (first == dataclasses.replace(first)) is True


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
