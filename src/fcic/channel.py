"""Shift linear deterministic channel for the K-user fully connected network.

Each user k transmits a vector of q = max(n, m) symbols from GF(p) per
channel use; receiver k sees its own signal shifted down by q - n levels plus
every cross signal shifted down by q - m levels, all mod p.  Signal levels
are indexed top-down (index 0 is the most significant level).

The quasi-symmetric variant attaches a sign lambda_ki in {-1, +1} to each
cross link; the fully symmetric channel is the all-ones special case and is
handled by the same code path.

A scheme is linear over GF(p) and is stored as explicit integer maps: one
encoder per user and block over [own message; own outputs of earlier
blocks], one decoder per user over all of its outputs.  A block-t encoder
has no columns for block-t or later outputs, so the one-step feedback
causality contract holds by construction.  `run_feedback_session` replays
one session or a batch of sessions through those maps and `apply_channel`.

The replay is one matrix product per user and block.  Every entry is a
residue in [0, p), so with d the longest dot product a scheme forms
(`Scheme.dot_length`), every partial sum is an integer of magnitude at most
max(d, K) (p - 1)^2.  Below 2^24 that is exact in binary32 whatever the
summation order, and below 2^53 in binary64, so the replay runs in float32
or float64 and BLAS, the narrowest that is exact; above 2^53, the same code
runs in int64, which `check_dot_length` keeps below 2^63.  Transcripts are
int64 in every tier.  Messages, integer channel inputs and products are
reduced by floor division (`_reduce`), as numpy's int64 `%` by a scalar
divides once per element.  A replay runs with numpy's invalid and overflow
reports off: a BLAS kernel may compute on lanes it then discards and raise
those flags there, and every value the replay keeps is an exact integer.
(With numpy 2.4.6 and OpenBLAS 0.3.31 on an AVX-512 Xeon, about one fresh
process in 300 raised invalid on its first float32 products, with exact
results.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .gf import _require_prime, check_dot_length

__all__ = [
    "DetParams",
    "Scheme",
    "Transcript",
    "apply_channel",
    "run_feedback_session",
]


def _validate_signs(signs, k: int) -> tuple[tuple[int, ...], ...]:
    arr = np.asarray(signs, dtype=np.int64)
    if arr.shape != (k, k):
        raise ValueError(f"sign matrix must be {k}x{k}, got {arr.shape}")
    rows = arr.tolist()  # checked as Python ints: numpy scalar indexing tripled the cost
    for i, row in enumerate(rows):
        if row[i] != 0:
            raise ValueError("sign matrix diagonal must be 0")
        if any(v not in (-1, 1) for j, v in enumerate(row) if j != i):
            raise ValueError("off-diagonal signs must be -1 or +1")
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class DetParams:
    """Deterministic channel configuration.

    K users, n direct-link levels, m cross-link levels, prime alphabet size p,
    and an optional per-link sign matrix (absent means fully symmetric).
    """

    K: int
    n: int
    m: int
    p: int
    signs: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"need K >= 2 users, got {self.K}")
        if self.n < 0 or self.m < 0:
            raise ValueError("level counts must be non-negative")
        if max(self.n, self.m) < 1:
            raise ValueError("need at least one signal level (max(n, m) >= 1)")
        _require_prime(self.p)
        if self.signs is not None:
            object.__setattr__(self, "signs", _validate_signs(self.signs, self.K))

    @property
    def q(self) -> int:
        return max(self.n, self.m)

    @cached_property
    def sign_matrix(self) -> np.ndarray:
        """K x K signed cross-link matrix, all-ones off the diagonal when
        symmetric: built on first use, once, and read-only."""
        if self.signs is None:
            lam = np.ones((self.K, self.K), dtype=np.int64)
            np.fill_diagonal(lam, 0)
        else:
            lam = np.array(self.signs, dtype=np.int64)
        lam.flags.writeable = False
        return lam

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "signs": None if self.signs is None else [list(r) for r in self.signs],
        }


# every integer of magnitude below the bound is exact in the float type
_EXACT_BELOW = {np.float32: 2**24, np.float64: 2**53}


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in place, as a - p floor(a / p); returns a.

    An int64 array floor-divides.  A float32 or float64 array divides and
    floors, which is exact for integers with |a| + p at most its
    `_EXACT_BELOW` bound, 2^24 or 2^53: there floor(fl(a / p)) =
    floor(a / p), as a / p lies at least 1/p from the next integer up,
    farther than half a unit in its last place, and p floor(a / p) lies
    within p of a, so the product and the difference are exact too.
    """
    p = a.dtype.type(p)  # one conversion, not one per step
    if a.dtype == np.int64:
        quot = a // p
    else:
        quot = a / p
        np.floor(quot, out=quot)
    quot *= p
    a -= quot
    return a


def apply_channel(params: DetParams, x: np.ndarray) -> np.ndarray:
    """One channel use: (K, q) inputs -> (K, q) outputs over GF(p).

    A leading batch axis, (B, K, q) -> (B, K, q), runs B independent
    sessions' channel uses at once.  Integer input is reduced mod p and
    gives int64 output.  A float32 or float64 block of integers, as the
    replay passes, gives output of its own dtype, exact while K times its
    largest magnitude, plus p, stays within 2^24 or 2^53 (an output level
    sums K inputs, see `_reduce`).
    """
    K, n, m, q, p = params.K, params.n, params.m, params.q, params.p
    x = np.asarray(x)
    if x.dtype.type not in _EXACT_BELOW:
        x = _reduce(np.array(x, dtype=np.int64), p)  # a copy: the caller's stays
    if x.ndim not in (2, 3) or x.shape[-2:] != (K, q):
        raise ValueError(
            f"block signal must have shape {(K, q)} or (B, {K}, {q}), got {x.shape}"
        )
    users = x.swapaxes(0, -2)  # (K, [B,] q): Lambda acts on the user axis
    lam = params.sign_matrix.astype(x.dtype, copy=False)
    cross = (lam @ users.reshape(K, -1)).reshape(users.shape)
    # q = max(n, m), so the stronger link is not shifted: the weaker link's
    # signal is added into it, shifted down
    if m == q:
        y = cross
        y[..., q - n:] += users[..., :n]
    else:
        y = users.copy()
        y[..., q - m:] += cross[..., :m]
    return _reduce(y, p).swapaxes(0, -2)


def _distinct(maps: np.ndarray) -> np.ndarray:
    """A map broadcast over the users (zero stride on that axis) as its base."""
    return maps[0] if maps.ndim and len(maps) and maps.strides[0] == 0 else maps


def _residues(maps, p: int) -> np.ndarray:
    maps = np.asarray(maps)
    entries = _distinct(maps)  # a broadcast map is checked as its base, not K copies
    if (maps.ndim != 3 or maps.dtype != np.int64
            or entries.min(initial=0) < 0 or entries.max(initial=0) >= p):
        raise ValueError(f"scheme maps must be (K, rows, columns) int64 residues in [0, {p})")
    return maps


@dataclass
class Scheme:
    """A linear feedback coding scheme over GF(p), as explicit integer maps.

    With K users, q = max(n, m) levels, L message symbols and T >= 1 blocks:

    * ``encoders[t]`` has shape (K, q, L + t*q); row block k maps user k's
      [own message; own outputs of blocks 0..t-1] to its block-t input;
    * ``decoders`` has shape (K, L, T*q); row block k maps user k's outputs
      of every block to its recovered message.

    L and T are read off the maps (block 0's columns, the number of
    blocks), and so is the rate L/T: a scheme cannot declare a rate its
    maps do not carry.  Maps must be int64 residues in [0, p) and are not
    copied, so a map shared by every user can be one broadcast array.
    Their shapes are checked, so an encoder cannot see an output it does
    not causally have.
    """

    params: DetParams
    encoders: tuple[np.ndarray, ...]
    decoders: np.ndarray
    name: str

    def __post_init__(self):
        K, q, p = self.params.K, self.params.q, self.params.p
        self.encoders = tuple(_residues(e, p) for e in self.encoders)
        self.decoders = _residues(self.decoders, p)
        if not self.encoders:
            raise ValueError("a scheme needs at least one block")
        L, T = self.msg_symbols, self.blocks
        for t, enc in enumerate(self.encoders):
            if enc.shape != (K, q, L + t * q):
                raise ValueError(
                    f"block-{t} encoder must have shape {(K, q, L + t * q)}, got {enc.shape}"
                )
        if self.decoders.shape != (K, L, T * q):
            raise ValueError(
                f"decoder must have shape {(K, L, T * q)}, got {self.decoders.shape}"
            )
        check_dot_length(p, self.dot_length)

    @property
    def blocks(self) -> int:
        return len(self.encoders)

    @property
    def msg_symbols(self) -> int:
        return self.encoders[0].shape[-1]

    @property
    def declared_rate(self) -> Fraction:
        """Message symbols per block."""
        return Fraction(self.msg_symbols, self.blocks)

    @property
    def dot_length(self) -> int:
        """The longest dot product a replay forms: a last-block encoder row
        or a decoder row."""
        q, L, T = self.params.q, self.msg_symbols, self.blocks
        return max(L + (T - 1) * q, T * q)


@dataclass
class Transcript:
    """Full record of one feedback session, or of a batch of B sessions when
    every array carries a leading batch axis."""

    params: DetParams
    blocks: list[tuple[np.ndarray, np.ndarray]]
    messages_in: np.ndarray
    messages_out: np.ndarray

    def trial(self, i: int) -> "Transcript":
        """Session i of a batched transcript, as copies that do not keep the
        batch alive."""
        return Transcript(
            params=self.params,
            blocks=[(x[i].copy(), y[i].copy()) for x, y in self.blocks],
            messages_in=self.messages_in[i].copy(),
            messages_out=self.messages_out[i].copy(),
        )

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "blocks": [
                {"inputs": xs.tolist(), "outputs": ys.tolist()}
                for xs, ys in self.blocks
            ],
            "messages_in": self.messages_in.tolist(),
            "messages_out": self.messages_out.tolist(),
        }


def _user_products(maps: np.ndarray, seen: np.ndarray, p: int, out=None) -> np.ndarray:
    """Per-user maps (K, r, c) applied to per-user vectors (K, B, c) in the
    vectors' dtype: one matrix product per user, reduced mod p, as (K, B, r)
    (into `out` when given).  A map broadcast over the users converts its
    (r, c) base once, not K copies."""
    maps = _distinct(maps).astype(seen.dtype, copy=False)
    return _reduce(np.matmul(seen, maps.swapaxes(-1, -2), out=out), p)


def _record(a: np.ndarray) -> np.ndarray:
    """User-major (..., K, B, r) blocks as the transcript's int64 (..., B, K, r)."""
    return np.ascontiguousarray(a.swapaxes(-3, -2), dtype=np.int64)


def run_feedback_session(params: DetParams, scheme: Scheme, messages) -> Transcript:
    """Drive sessions under the one-step output feedback contract.

    `messages` is one session's (K, L) array, or a batch (B, K, L) of
    independent sessions that is replayed at once and returned as a batched
    Transcript.  At block t each user's input is its block-t encoder applied
    to (its message, its own outputs from blocks < t); after the last block
    each decoder is applied to the user's own outputs from every block.
    Messages must match the scheme's declared size exactly; short messages
    are rejected rather than padded so rate accounting stays honest.
    The arithmetic is float32 or float64, the first that is exact (see the
    module docstring), else int64.
    """
    if scheme.params != params:
        raise ValueError("scheme was built for different channel parameters")
    K, L, q, p, T = params.K, scheme.msg_symbols, params.q, params.p, scheme.blocks
    msgs = _reduce(np.array(messages, dtype=np.int64), p)  # a copy: the caller's stays
    single = msgs.ndim == 2
    batch = msgs[None] if single else msgs
    if batch.ndim != 3 or batch.shape[1:] != (K, L):
        raise ValueError(
            f"messages must have shape {(K, L)} or (B, {K}, {L}), got {msgs.shape}"
        )

    reach = max(scheme.dot_length, K) * (p - 1) ** 2  # the largest partial sum
    dtype = next((t for t, bound in _EXACT_BELOW.items() if reach < bound), np.int64)
    # per user and session: the message, then each block's outputs
    seen = np.empty((K, batch.shape[0], L + T * q), dtype)
    seen[:, :, :L] = batch.swapaxes(0, 1)
    sent = np.empty((T, K, batch.shape[0], q), dtype)  # each block's inputs
    with np.errstate(invalid="ignore", over="ignore"):  # see the module docstring
        for t, enc in enumerate(scheme.encoders):
            x = _user_products(enc, seen[:, :, :L + t * q], p, out=sent[t])
            y = apply_channel(params, x.swapaxes(0, 1))
            seen[:, :, L + t * q:L + (t + 1) * q] = y.swapaxes(0, 1)
        out = _record(_user_products(scheme.decoders, seen[:, :, L:], p))
    inputs, outputs = _record(sent), _record(seen[:, :, L:])
    if single:  # one session's arrays, as views of its own buffers
        inputs, outputs, out = inputs[:, 0], outputs[0], out[0]
    blocks = [(inputs[t], outputs[..., t * q:(t + 1) * q]) for t in range(T)]
    return Transcript(params=params, blocks=blocks, messages_in=msgs, messages_out=out)
