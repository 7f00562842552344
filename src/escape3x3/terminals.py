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
import functools
import itertools
import json
from collections.abc import Iterator

from .grid import ALL_VERTICES, Frozen, Vertex, is_vertex, reflect_vertex


class MalformedConfigError(ValueError):
    """Raised when a configuration violates the structural invariants."""


class LemmaId(enum.Enum):
    W2L = "w2l"
    HEAVY78 = "heavy78"
    HEAVY6 = "heavy6"
    HEAVY5 = "heavy5"


Pair = tuple[Vertex, Vertex]


def _canonical_pair(pair) -> Pair:
    a, b = (tuple(pair[0]), tuple(pair[1]))
    return (a, b) if a <= b else (b, a)


class TerminalConfig(Frozen):
    """Pairs and singletons, as built; ``make_config`` canonicalizes and
    checks them.  Equality, order, hash and repr read the two fields only,
    never the cached ``terminals``; a configuration's repr reaches error
    messages."""

    _fields = ("pairs", "singletons")

    def __init__(self, pairs: tuple[Pair, ...], singletons: tuple[Vertex, ...]):
        fields = self.__dict__
        fields["pairs"] = pairs
        fields["singletons"] = singletons

    def __lt__(self, other):
        if other.__class__ is not TerminalConfig:
            return NotImplemented
        return (self.pairs, self.singletons) < (other.pairs, other.singletons)

    def __le__(self, other):
        if other.__class__ is not TerminalConfig:
            return NotImplemented
        return (self.pairs, self.singletons) <= (other.pairs, other.singletons)

    @functools.cached_property
    def terminals(self) -> tuple[Vertex, ...]:
        return tuple(v for p in self.pairs for v in p) + self.singletons

    def __getstate__(self):
        # the cached ``terminals`` stays out of the pickle, so pool tasks
        # carry the two fields only
        return {"pairs": self.pairs, "singletons": self.singletons}

    def terminal_count(self) -> int:
        return 2 * len(self.pairs) + len(self.singletons)

    def reflected(self) -> "TerminalConfig":
        return make_config(
            [(reflect_vertex(a), reflect_vertex(b)) for a, b in self.pairs],
            [reflect_vertex(s) for s in self.singletons],
        )


def make_config(pairs, singletons) -> TerminalConfig:
    """Canonicalize and validate a configuration."""
    cpairs = tuple(sorted(_canonical_pair(p) for p in pairs))
    csingles = tuple(sorted(tuple(s) for s in singletons))
    cfg = TerminalConfig(pairs=cpairs, singletons=csingles)
    # checked from the fields, so checking fills no cached ``terminals``
    terms = [v for p in cpairs for v in p] + list(csingles)
    for v in terms:
        if not is_vertex(v):
            raise MalformedConfigError(f"terminal {v} outside the corner grid")
    if len(set(terms)) != len(terms):
        raise MalformedConfigError("duplicate terminal vertex")
    if len(cpairs) > 4:
        raise MalformedConfigError("more than 4 terminal pairs")
    if cfg.terminal_count() > 8:
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
    # make_config's sorting and checks are skipped; nothing here reads
    # ``terminals``, so a configuration nobody routes (a pool task the
    # parent only sends) carries no cached ``terminals``
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
    if not 0 <= pair_index < len(cfg.pairs):
        raise IndexError(f"pair index {pair_index} out of range")
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
    ``MalformedConfigError`` like any other malformed configuration."""
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
    try:
        pairs = [_as_pair(p) for p in obj.get("pairs", [])]
        singles = [_as_vertex(s) for s in obj.get("singletons", [])]
    except TypeError as exc:
        raise MalformedConfigError(f"bad config JSON: {exc}") from exc
    return make_config(pairs, singles)


def _as_pair(p) -> Pair:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise MalformedConfigError(f"{p!r} is not a pair of two vertices")
    return (_as_vertex(p[0]), _as_vertex(p[1]))


def _as_vertex(x) -> Vertex:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise MalformedConfigError(f"{x!r} is not a [row, col] vertex")
    v = (x[0], x[1])
    if not is_vertex(v):
        raise MalformedConfigError(f"vertex {v} out of range")
    return v


def config_to_ndjson_line(cfg: TerminalConfig) -> str:
    return json.dumps(encode_config(cfg), separators=(",", ":"), sort_keys=True)
