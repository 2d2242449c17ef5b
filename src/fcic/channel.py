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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    for i in range(k):
        if arr[i, i] != 0:
            raise ValueError("sign matrix diagonal must be 0")
        for j in range(k):
            if i != j and arr[i, j] not in (-1, 1):
                raise ValueError("off-diagonal signs must be -1 or +1")
    return tuple(tuple(int(v) for v in row) for row in arr)


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

    def sign_matrix(self) -> np.ndarray:
        """K x K signed cross-link matrix; all-ones off-diagonal when symmetric."""
        if self.signs is None:
            lam = np.ones((self.K, self.K), dtype=np.int64)
            np.fill_diagonal(lam, 0)
            return lam
        return np.asarray(self.signs, dtype=np.int64)

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "signs": None if self.signs is None else [list(r) for r in self.signs],
        }


def _shift_levels(x: np.ndarray, s: int) -> np.ndarray:
    """Down-shift every signal (last axis) of x by s levels, zero-filling the top."""
    q = x.shape[-1]
    out = np.zeros_like(x)
    if s < q:
        out[..., s:] = x[..., : q - s]
    return out


def apply_channel(params: DetParams, x: np.ndarray) -> np.ndarray:
    """One channel use: (K, q) inputs -> (K, q) outputs over GF(p).

    A leading batch axis, (B, K, q) -> (B, K, q), runs B independent
    sessions' channel uses at once.
    """
    q, p = params.q, params.p
    x = np.asarray(x, dtype=np.int64) % p
    if x.ndim not in (2, 3) or x.shape[-2:] != (params.K, q):
        raise ValueError(
            f"block signal must have shape {(params.K, q)} or (B, {params.K}, {q}), "
            f"got {x.shape}"
        )
    y = params.sign_matrix() @ _shift_levels(x, q - params.m)
    y += _shift_levels(x, q - params.n)
    y %= p
    return y


def _residues(maps, p: int) -> np.ndarray:
    maps = np.asarray(maps)
    if maps.dtype != np.int64 or maps.min(initial=0) < 0 or maps.max(initial=0) >= p:
        raise ValueError(f"scheme maps must be int64 residues in [0, {p})")
    return maps


@dataclass
class Scheme:
    """A linear feedback coding scheme over GF(p), as explicit integer maps.

    With K users, q = max(n, m) levels, L message symbols and T blocks:

    * ``encoders[t]`` has shape (K, q, L + t*q); row block k maps user k's
      [own message; own outputs of blocks 0..t-1] to its block-t input;
    * ``decoders`` has shape (K, L, T*q); row block k maps user k's outputs
      of every block to its recovered message.

    Maps must be int64 residues in [0, p) and are not copied, so a map
    shared by every user can be one broadcast array.  Their shapes are
    checked, so an encoder cannot see an output it does not causally have.
    """

    params: DetParams
    msg_symbols: int
    declared_rate: Fraction
    encoders: tuple[np.ndarray, ...]
    decoders: np.ndarray
    name: str = ""

    def __post_init__(self):
        K, q, p, L = self.params.K, self.params.q, self.params.p, self.msg_symbols
        self.encoders = tuple(_residues(e, p) for e in self.encoders)
        self.decoders = _residues(self.decoders, p)
        T = self.blocks
        for t, enc in enumerate(self.encoders):
            if enc.shape != (K, q, L + t * q):
                raise ValueError(
                    f"block-{t} encoder must have shape {(K, q, L + t * q)}, got {enc.shape}"
                )
        if self.decoders.shape != (K, L, T * q):
            raise ValueError(
                f"decoder must have shape {(K, L, T * q)}, got {self.decoders.shape}"
            )
        check_dot_length(p, max(L + (T - 1) * q, T * q))
        if self.declared_rate * T != L:
            raise ValueError(
                f"rate {self.declared_rate} x {T} blocks != {L} message symbols"
            )

    @property
    def blocks(self) -> int:
        return len(self.encoders)


@dataclass
class Transcript:
    """Full record of one feedback session, or of a batch of B sessions when
    every array carries a leading batch axis."""

    params: DetParams
    blocks: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    messages_in: np.ndarray | None = None
    messages_out: np.ndarray | None = None

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


def _apply_maps(maps: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Per-user maps (K, r, c) applied to a batch of per-user vectors (B, K, c)."""
    return np.einsum("krc,bkc->bkr", maps, v) % p


def run_feedback_session(params: DetParams, scheme: Scheme, messages) -> Transcript:
    """Drive sessions under the one-step output feedback contract.

    `messages` is one session's (K, L) array, or a batch (B, K, L) of
    independent sessions that is replayed at once and returned as a batched
    Transcript.  At block t each user's input is its block-t encoder applied
    to (its message, its own outputs from blocks < t); after the last block
    each decoder is applied to the user's own outputs from every block.
    Messages must match the scheme's declared size exactly; short messages
    are rejected rather than padded so rate accounting stays honest.
    """
    if scheme.params != params:
        raise ValueError("scheme was built for different channel parameters")
    K, L = params.K, scheme.msg_symbols
    msgs = np.asarray(messages, dtype=np.int64) % params.p
    single = msgs.ndim == 2
    batch = msgs[None] if single else msgs
    if batch.ndim != 3 or batch.shape[1:] != (K, L):
        raise ValueError(
            f"messages must have shape {(K, L)} or (B, {K}, {L}), got {msgs.shape}"
        )

    seen = batch  # (B, K, L + t*q): each user's message, then its outputs so far
    record = []
    for enc in scheme.encoders:
        x = _apply_maps(enc, seen, params.p)
        y = apply_channel(params, x)
        record.append((x, y))
        seen = np.concatenate([seen, y], axis=2)
    out = _apply_maps(scheme.decoders, seen[:, :, L:], params.p)
    transcript = Transcript(params=params, blocks=record, messages_in=batch, messages_out=out)
    return transcript.trial(0) if single else transcript
