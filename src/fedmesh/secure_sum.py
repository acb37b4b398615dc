"""Masked secure aggregation: the server learns only the sum of updates.

Each pair of clients shares a 64-bit seed (a simulation stand-in for key
agreement; see :class:`PairwiseSeedMatrix`).  The seeds form one table,
derived in a vector pass and read by id value; its entry for ``a < b``
equals ``derive_seed(root, "pair", a, b)``.  Per round, client ``i`` adds
the pair's pseudorandom mask words for every peer ``j > i`` and subtracts
them for every ``j < i``, all modulo 2^64.  Summing the masked shares
cancels every mask exactly, so the modular sum equals the sum of the
unmasked shares - an equality, not an approximation.

Real values ride through a fixed-point codec (default 24 fractional
bits): floats do not cancel exactly under masking, integers mod 2^64 do.

Mask words come from a splitmix64 counter stream: for pair seed ``s`` and
round ``r`` the key is ``mix64(s + GOLDEN*(r+1) mod 2^64)`` and word ``k``
is ``mix64(key + (k+1)*GOLDEN mod 2^64)`` - a named, documented 64-bit
generator with random access per coordinate.  :func:`mask_words` is the
per-pair spec; :func:`mask` draws all of a client's peer streams as one
``(peers, dim)`` array and yields the same words.

Dropout handling is deliberately strict: a round with any missing share
aborts (:class:`SecureSumAbort`) and no partial sum is released.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import GOLDEN, MASK64, derive_seed, mix64, mix64_array


class SecureSumAbort(Exception):
    """The share set is incomplete or inconsistent; no sum is released."""


@dataclass(frozen=True)
class FixedPointCodec:
    """Two's-complement fixed-point encoding into unsigned 64-bit words."""

    scale_bits: int = 24

    def __post_init__(self) -> None:
        if not 1 <= self.scale_bits <= 52:
            raise ValueError("scale_bits must lie in [1, 52]")

    @property
    def scale(self) -> float:
        return float(2**self.scale_bits)

    @property
    def max_magnitude(self) -> float:
        """Largest encodable magnitude: 2^(63 - scale_bits)."""
        return float(2 ** (63 - self.scale_bits))

    def encode(self, values: np.ndarray) -> np.ndarray:
        """round(v * 2^scale_bits) as int64 bits reinterpreted as uint64.

        The power-of-two scaling is exact in float64, so the round-trip
        error is at most 2^-(scale_bits+1) per coordinate.
        """
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("cannot encode non-finite values")
        if np.any(np.abs(values) >= self.max_magnitude):
            raise OverflowError(
                f"value out of representable range (|v| < {self.max_magnitude:g})"
            )
        scaled = np.round(values * self.scale)
        return scaled.astype(np.int64).view(np.uint64)

    def decode(self, words: np.ndarray) -> np.ndarray:
        """Inverse of :func:`encode` (exact: division by a power of two)."""
        words = np.asarray(words, dtype=np.uint64)
        return words.view(np.int64).astype(np.float64) / self.scale


@dataclass(frozen=True)
class MaskedShare:
    """One client's masked, encoded update for one round."""

    client_id: int
    round_index: int
    masked_values: np.ndarray  # (dim,) uint64

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "masked_values", np.asarray(self.masked_values, dtype=np.uint64)
        )
        if self.masked_values.ndim != 1:
            raise ValueError("masked_values must be 1-D")


class PairwiseSeedMatrix:
    """Shared 64-bit seeds per unordered client pair.

    Stands in for pairwise key agreement: in this simulator the seeds are
    derived from the experiment root seed, and the aggregator simply never
    consults them.  The seeds form one dense, symmetric ``(N, N)`` uint64
    table over the sorted client ids, derived in one vector pass and read
    by id value; the entry for ``a < b`` is ``derive_seed(root, "pair", a, b)``.
    Accessors are symmetric: ``seed_for(i, j) == seed_for(j, i)``.
    """

    def __init__(self, ids: np.ndarray, table: np.ndarray):
        self._rows = {c: row for row, c in enumerate(ids.tolist())}
        self._table = table

    @classmethod
    def from_root_seed(cls, root_seed: int, client_ids: Iterable[int]) -> "PairwiseSeedMatrix":
        ids = np.array(sorted(set(int(c) for c in client_ids)), dtype=np.uint64)
        state = np.uint64(derive_seed(root_seed, "pair"))
        for label in (ids[:, None], ids):  # derive_seed's fold of one integer label
            state = mix64_array(mix64_array(state ^ label) + np.uint64(8))
        upper = np.triu(state, 1)
        return cls(ids, upper + upper.T)

    def peer_seeds(self, a: int, peers: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Seeds of the pairs ``(a, p)`` for ``p`` in ``peers``, looked up by
        value (``1.0`` finds client 1), and whether each ``p`` is above ``a``.
        An id outside the table, or ``p == a``, aborts naming that pair."""
        row = self._rows.get(a)
        cols = [self._rows.get(p) for p in peers]
        for p, col in zip(peers, cols):
            if row is None or col is None or col == row:
                raise SecureSumAbort(f"missing pair seed for clients ({a}, {p})")
        if not cols:
            return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=bool)
        cols = np.array(cols)
        return self._table[row, cols], cols > row

    def seed_for(self, a: int, b: int) -> int:
        return int(self.peer_seeds(a, [b])[0][0])


def mask_words(pair_seed: int, round_index: int, dim: int) -> np.ndarray:
    """The pair's pseudorandom mask for one round: ``dim`` uint64 words."""
    key = mix64((pair_seed + GOLDEN * (round_index + 1)) & MASK64)
    counters = np.arange(1, dim + 1, dtype=np.uint64)
    state = np.uint64(key) + counters * np.uint64(GOLDEN)
    return mix64_array(state)


def mask(
    encoded: np.ndarray,
    client_id: int,
    seeds: PairwiseSeedMatrix,
    participants: Iterable[int],
    round_index: int,
) -> MaskedShare:
    """Mask an encoded share against every other participant.

    Pair masks are added toward higher-id peers and subtracted toward
    lower-id peers, so they cancel in the participant-set sum.  Row ``p``
    of the ``(peers, dim)`` block equals ``mask_words`` for peer ``p``; the
    uint64 sums wrap mod 2^64, so their order does not matter.
    """
    encoded = np.asarray(encoded, dtype=np.uint64)
    pair_seeds, higher = seeds.peer_seeds(client_id, [p for p in participants if p != client_id])
    keys = mix64_array(pair_seeds + np.uint64(GOLDEN * (round_index + 1) & MASK64))
    counters = np.arange(1, encoded.shape[0] + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    words = mix64_array(keys[:, None] + counters)
    masked = encoded + words[higher].sum(axis=0, dtype=np.uint64)
    masked -= words[~higher].sum(axis=0, dtype=np.uint64)
    return MaskedShare(client_id=client_id, round_index=round_index, masked_values=masked)


def unmask_sum(
    shares: Iterable[MaskedShare],
    codec: FixedPointCodec,
    expected_clients: Iterable[int],
) -> np.ndarray:
    """Modular sum of a complete share set, decoded back to reals.

    Aborts (no partial result) on a missing or duplicate client, a round
    mismatch, or inconsistent dimensions.
    """
    shares = list(shares)
    expected = set(int(c) for c in expected_clients)
    if not shares:
        raise SecureSumAbort("no shares submitted")
    seen: set[int] = set()
    for share in shares:
        if share.client_id in seen:
            raise SecureSumAbort(f"duplicate share from client {share.client_id}")
        seen.add(share.client_id)
    if seen != expected:
        missing = sorted(expected - seen)
        extra = sorted(seen - expected)
        raise SecureSumAbort(f"share set mismatch: missing {missing}, unexpected {extra}")
    rounds = {share.round_index for share in shares}
    if len(rounds) != 1:
        raise SecureSumAbort(f"round mismatch across shares: {sorted(rounds)}")
    dims = {share.masked_values.shape[0] for share in shares}
    if len(dims) != 1:
        raise SecureSumAbort(f"dimension mismatch across shares: {sorted(dims)}")
    total = np.zeros(dims.pop(), dtype=np.uint64)
    for share in sorted(shares, key=lambda s: s.client_id):
        total += share.masked_values
    return codec.decode(total)
