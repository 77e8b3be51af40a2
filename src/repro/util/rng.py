"""Named, independently-seeded random streams.

A multi-protocol wireless simulation draws randomness for many unrelated
purposes: PBBF coin flips, MAC backoff slots, node placement, traffic
arrival jitter.  If all of them share one generator, changing the number of
draws in one place (say, adding a retry to the MAC) perturbs every other
source and makes seed-for-seed comparisons between protocol variants
meaningless.

:class:`RandomStreams` hands out one :class:`random.Random` per *named*
stream, each seeded deterministically from ``(root_seed, name)``.  Two
simulations built from the same root seed therefore see identical node
placements and traffic even when their protocols consume different amounts
of randomness — the standard "common random numbers" variance-reduction
technique for paired comparisons.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


def fold_seed(base_seed: int, *labels: object) -> int:
    """A stable integer seed from ``base_seed`` and a sequence of labels.

    Labels are stringified and folded with a cheap deterministic string
    hash; quality is irrelevant because the value becomes the root of a
    hashed stream family (:class:`RandomStreams`,
    :func:`hash_to_unit_interval`).  The fold depends only on the label
    *values*, never on execution order, which is what lets campaign
    results be bit-identical across serial and parallel backends.
    """
    return _fold_text(base_seed, ":".join(str(label) for label in labels))


def fold_seed_onward(folded: int, *labels: object) -> int:
    """Continue a :func:`fold_seed` with more labels.

    The fold runs left to right over the characters of the labels joined
    by ``":"``, so ``fold_seed_onward(fold_seed(s, *head), *tail)`` equals
    ``fold_seed(s, *head, *tail)`` whenever ``head`` is non-empty:

    >>> fold_seed_onward(fold_seed(7, "ideal", 0.5), 3) == fold_seed(7, "ideal", 0.5, 3)
    True

    A caller that derives many seeds from one label prefix (each seed
    index of a campaign point) folds the prefix once.
    """
    return _fold_text(folded, "".join(":" + str(label) for label in labels))


def _fold_text(acc: int, text: str) -> int:
    """The fold itself: one multiply-add per character, masked to 63 bits."""
    for ch in text:
        acc = (acc * 1000003 + ord(ch)) & 0x7FFFFFFFFFFFFFFF
    return acc


def _splitmix64(x: int) -> int:
    """One splitmix64 step: a well-mixed 64-bit permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def hash_to_unit_interval(seed: int, *keys: int) -> float:
    """Deterministic pseudo-random float in [0, 1) from integer keys.

    Used for *indexed* coin flips — e.g. "was node v awake in frame f?" —
    where the answer must not depend on the order in which the simulation
    happens to ask.  Two calls with the same ``(seed, keys)`` always agree;
    distinct keys give independent-looking values (splitmix64 mixing).
    """
    state = _splitmix64(seed & _MASK64)
    for key in keys:
        state = _splitmix64(state ^ (key & _MASK64))
    return state / float(1 << 64)


_U64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)


def _as_uint64(keys: object) -> np.ndarray:
    """View integer keys as uint64 with two's-complement wrap.

    Matches the scalar path's ``key & _MASK64`` for any key in the int64
    range (frame indices, node ids, and the negative per-broadcast salts
    all are).
    """
    arr = np.asarray(keys)
    if arr.dtype == np.uint64:
        return arr
    return arr.astype(np.int64, copy=False).view(np.uint64)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix64` (uint64 arithmetic wraps mod 2^64)."""
    if x.ndim == 0:
        # Operations on 0-d operands give numpy scalars, whose arithmetic
        # warns on the wrap this hash relies on: take the scalar chain.
        return np.uint64(_splitmix64(int(x)))
    x = x + _U64_GAMMA
    x = (x ^ (x >> np.uint64(30))) * _U64_MIX1
    x = (x ^ (x >> np.uint64(27))) * _U64_MIX2
    return x ^ (x >> np.uint64(31))


def hash_to_unit_interval_array(seed: int, *keys: object) -> np.ndarray:
    """Vectorized :func:`hash_to_unit_interval` over arrays of keys.

    Each ``keys`` argument may be an integer array or a scalar; they are
    broadcast together and the splitmix64 chain is applied elementwise, so

    >>> bool(hash_to_unit_interval_array(1, [2], [3])[0]
    ...      == hash_to_unit_interval(1, 2, 3))
    True

    holds element-for-element for any key combination (the parity suite
    asserts this exhaustively).  Used to flip whole frontiers of indexed
    coins — e.g. "which of these 400 nodes are awake in frame f?" — in one
    shot instead of one Python call per node.
    """
    return hash_finish_array(hash_prefix_array(seed, *keys))


def hash_prefix_array(seed: int, *keys: object) -> np.ndarray:
    """The splitmix64 chain state after ``seed`` and ``keys`` (uint64).

    The first half of :func:`hash_to_unit_interval_array`, whose keys
    follow it in :func:`hash_finish_array`:

    >>> stage = hash_prefix_array(1, [2])
    >>> bool(hash_finish_array(stage, 3)[0] == hash_to_unit_interval(1, 2, 3))
    True

    A stage shared by many coins — every ``(seed, node, frame)`` coin of
    one node starts from the same ``(seed, node)`` state — is folded once,
    and each coin then costs one splitmix64 round.
    """
    state = _splitmix64(seed & _MASK64)
    keys_left = list(keys)
    while keys_left and isinstance(keys_left[0], int):
        # Fold leading scalar keys without touching arrays: exact same
        # chain as the scalar function, zero per-element cost.
        state = _splitmix64(state ^ (keys_left.pop(0) & _MASK64))
    return _fold_keys(np.asarray(np.uint64(state)), keys_left)


def hash_finish_array(prefix: np.ndarray, *keys: object) -> np.ndarray:
    """Fold ``keys`` into chain states from :func:`hash_prefix_array`
    and map each final state to a float in [0, 1)."""
    state = _fold_keys(prefix, keys)
    # Exact power-of-two scaling: bit-identical to ``state / float(1 << 64)``.
    return state.astype(np.float64) * 2.0**-64


def _fold_keys(state: np.ndarray, keys: Sequence[object]) -> np.ndarray:
    """One splitmix64 round per key, elementwise over broadcast arrays."""
    for key in keys:
        mixed = np.uint64(key & _MASK64) if isinstance(key, int) else _as_uint64(key)
        state = _splitmix64_array(state ^ mixed)
    return state


class RandomStreams:
    """A family of independent named random generators.

    Parameters
    ----------
    root_seed:
        Any integer.  The same root seed always reproduces the same family
        of streams.

    Examples
    --------
    >>> streams = RandomStreams(7)
    >>> placement = streams.stream("placement")
    >>> backoff = streams.stream("mac.backoff")
    >>> placement is streams.stream("placement")
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        if isinstance(root_seed, bool) or not isinstance(root_seed, int):
            raise TypeError(f"root_seed must be an int, got {root_seed!r}")
        self._root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this family was built from."""
        return self._root_seed

    def stream(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use."""
        if not isinstance(name, str) or not name:
            raise ValueError(f"stream name must be a non-empty string, got {name!r}")
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive_seed(name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Return a child family whose root derives from ``(seed, name)``.

        Used to give each simulation *run* in a sweep its own stream family
        while keeping the whole sweep a pure function of one root seed.
        """
        return RandomStreams(self._derive_seed(name))

    def names(self) -> Iterator[str]:
        """Iterate over the names of streams created so far."""
        return iter(sorted(self._streams))

    def _derive_seed(self, name: str) -> int:
        payload = f"{self._root_seed}:{name}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(root_seed={self._root_seed}, streams={sorted(self._streams)})"
