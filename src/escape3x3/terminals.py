"""Terminal configurations on the corner grid and their exhaustive families.

A configuration is a set of unordered terminal pairs plus singleton
terminals, all on distinct vertices.  Three families are enumerated:

* ``HEAVY78`` - 4 pairs on 8 vertices, or 3 pairs plus one singleton on 7.
* ``HEAVY6``  - 2 pairs plus 2 singletons on 6 vertices.
* ``HEAVY5``  - 1 pair plus 3 singletons on 5 vertices.

Pairs are unordered, the pair list is unordered, and singletons are
unordered; configurations are canonicalized by lexicographic sorting.
"""

from __future__ import annotations

import enum
import itertools
import json
from collections.abc import Iterator

from .grid import ALL_VERTICES, Frozen, Vertex, is_vertex


class MalformedConfigError(ValueError):
    """Raised when a configuration violates the structural invariants."""


class PairIndexError(IndexError, ValueError):
    """Raised for a pair index out of range: an ``IndexError``, and a
    ``ValueError`` naming the argument like the package's other refusals."""


class LemmaId(enum.Enum):
    W2L = "w2l"
    HEAVY78 = "heavy78"
    HEAVY6 = "heavy6"
    HEAVY5 = "heavy5"


Pair = tuple[Vertex, Vertex]


def _vertex(v) -> Vertex:
    """A terminal given as a list or a tuple, as a tuple on the corner grid;
    its shape is checked before a tuple is built from it."""
    if not isinstance(v, (list, tuple)):
        raise MalformedConfigError(f"terminal {v!r} is not a vertex")
    t = tuple(v)
    if not is_vertex(t):
        raise MalformedConfigError(f"terminal {t} outside the corner grid")
    return t


def _canonical_pair(pair) -> Pair:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise MalformedConfigError(f"{pair!r} is not a pair of two vertices")
    a, b = (_vertex(pair[0]), _vertex(pair[1]))
    return (a, b) if a <= b else (b, a)


class TerminalConfig(Frozen):
    """Pairs and singletons, as built; ``make_config`` canonicalizes and
    checks them.  Equality, hash and repr read the two fields, and
    configurations have no order; a configuration's repr reaches error
    messages.  ``terminals`` is computed from them on every read."""

    __slots__ = _fields = ("pairs", "singletons")

    def __init__(self, pairs: tuple[Pair, ...], singletons: tuple[Vertex, ...]):
        self._set_fields(pairs, singletons)

    @property
    def terminals(self) -> tuple[Vertex, ...]:
        """The pairs' vertices, pair by pair, then the singletons."""
        return sum(self.pairs, ()) + self.singletons

    def __getstate__(self):
        # pickle's default state for a slotted class is a (None, slots)
        # tuple; the dict keeps the pinned pickle digests
        return {"pairs": self.pairs, "singletons": self.singletons}

    def __setstate__(self, state):
        # the default restore assigns, which ``Frozen`` refuses
        self._set_fields(state["pairs"], state["singletons"])

    def reflected(self) -> "TerminalConfig":
        """The configuration mirrored across the diagonal, in canonical form.

        It trusts this configuration to be valid, as ``make_config`` and the
        enumeration build them, and checks nothing again: the corner grid is
        symmetric about the diagonal, so the mirror of a valid configuration
        is valid.  Each vertex has its coordinates swapped, each pair is put
        low end first, and the pairs and the singletons are sorted, which is
        what ``make_config`` would make of the mirrored vertices."""
        pairs = []
        for (r, c), (s, d) in self.pairs:
            a, b = (c, r), (d, s)
            pairs.append((a, b) if a < b else (b, a))
        pairs.sort()
        return TerminalConfig(tuple(pairs), tuple(sorted([(c, r) for r, c in self.singletons])))


def _members(given, what: str):
    """An iterator over ``given``, the pairs or the singletons of a
    configuration; one that cannot be iterated is malformed."""
    try:
        return iter(given)
    except TypeError:
        raise MalformedConfigError(f"{what} must be iterable, got {given!r}") from None


def make_config(pairs, singletons) -> TerminalConfig:
    """Canonicalize and validate a configuration."""
    cpairs = tuple(sorted(_canonical_pair(p) for p in _members(pairs, "pairs")))
    csingles = tuple(sorted(_vertex(s) for s in _members(singletons, "singletons")))
    cfg = TerminalConfig(pairs=cpairs, singletons=csingles)
    terms = cfg.terminals
    if len(set(terms)) != len(terms):
        raise MalformedConfigError("duplicate terminal vertex")
    if len(cpairs) > 4:
        raise MalformedConfigError("more than 4 terminal pairs")
    if len(terms) > 8:
        raise MalformedConfigError("more than 8 terminals")
    return cfg


def family_of(cfg: TerminalConfig) -> LemmaId | None:
    np, ns = len(cfg.pairs), len(cfg.singletons)
    if (np, ns) in ((4, 0), (3, 1)):
        return LemmaId.HEAVY78
    if (np, ns) == (2, 2):
        return LemmaId.HEAVY6
    if (np, ns) == (1, 3):
        return LemmaId.HEAVY5
    return None


def _configs_with(n_pairs: int, n_singles: int) -> Iterator[TerminalConfig]:
    # _split_support yields canonical splits of distinct grid vertices, so
    # make_config's sorting and checks are skipped
    n = 2 * n_pairs + n_singles
    for support in itertools.combinations(ALL_VERTICES, n):
        for pairs, singles in _split_support(support, n_pairs):
            yield TerminalConfig(pairs, singles)


def _split_support(support, n_pairs):
    """All splits of a sorted support into n_pairs disjoint pairs + singletons.

    Each partition is produced exactly once: the pair containing the smallest
    unplaced vertex is chosen first, or that vertex is committed as a
    singleton.  The split comes out canonical, as tuples: each pair is
    ``(first, mate)`` with ``first < mate``, the pairs in order of their
    first vertex, and the singletons sorted.
    """
    if n_pairs == 0:
        yield ((), tuple(support))
        return
    first, rest = support[0], support[1:]
    for mate in rest:
        remaining = tuple(v for v in rest if v != mate)
        for pairs, singles in _split_support(remaining, n_pairs - 1):
            yield (((first, mate),) + pairs, singles)
    if len(rest) >= 2 * n_pairs:
        for pairs, singles in _split_support(rest, n_pairs):
            yield (pairs, (first,) + singles)


def enumerate_configs(lemma: LemmaId, extended: bool = False) -> Iterator[TerminalConfig]:
    """Every configuration of the lemma's family, in lexicographic order.

    ``extended`` additionally yields the 1-pair + 4-singleton six-terminal
    family, which is checked against the oracle only (the constructive
    router does not claim it); it extends heavy6 only.  A lemma this
    function does not enumerate, or ``extended`` on another family, raises
    ``ValueError`` at the call, before any configuration is made.
    """
    if not isinstance(lemma, LemmaId):
        raise ValueError(f"expected a LemmaId, got {lemma!r}")
    if lemma is LemmaId.HEAVY6:
        if extended:
            return itertools.chain(_configs_with(2, 2), _configs_with(1, 4))
        return _configs_with(2, 2)
    if extended:
        raise ValueError(f"extended applies to heavy6 only, not {lemma.value}")
    if lemma is LemmaId.HEAVY5:
        return _configs_with(1, 3)
    if lemma is LemmaId.HEAVY78:
        return itertools.chain(_configs_with(4, 0), _configs_with(3, 1))
    raise ValueError(f"{lemma.value} is not enumerated here; 4-tuples live in the oracle")


def demote_pair_to_singletons(cfg: TerminalConfig, pair_index: int) -> TerminalConfig:
    """Turn one pair's members into singletons; the vertex set is unchanged."""
    if not isinstance(cfg, TerminalConfig):
        raise ValueError(f"cfg must be a TerminalConfig, got {cfg!r}")
    if type(pair_index) is not int:
        raise ValueError(f"pair_index must be an int, got {pair_index!r}")
    if not 0 <= pair_index < len(cfg.pairs):
        raise PairIndexError(f"pair_index {pair_index} out of range for {len(cfg.pairs)} pairs")
    a, b = cfg.pairs[pair_index]
    pairs = cfg.pairs[:pair_index] + cfg.pairs[pair_index + 1 :]
    return make_config(pairs, cfg.singletons + (a, b))


def encode_config(cfg: TerminalConfig) -> dict:
    return {
        "pairs": [[list(a), list(b)] for a, b in cfg.pairs],
        "singletons": [list(s) for s in cfg.singletons],
    }


def decode_config(obj) -> TerminalConfig:
    """A configuration from its decoded JSON object, or from JSON text.
    Text that does not parse, or nests too deeply to parse, raises
    ``MalformedConfigError`` like any other malformed configuration; the
    pairs and singletons are checked by ``make_config``."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedConfigError(f"config is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedConfigError("config JSON must be an object")
    unknown = set(obj) - {"pairs", "singletons"}
    if unknown:
        raise MalformedConfigError(f"unknown config keys: {sorted(map(str, unknown))}")
    return make_config(obj.get("pairs", []), obj.get("singletons", []))


def config_to_ndjson_line(cfg: TerminalConfig) -> str:
    return json.dumps(encode_config(cfg), separators=(",", ":"), sort_keys=True)
