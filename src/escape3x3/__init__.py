"""Edge-disjoint escape routing on the 3x3 corner grid.

The package links terminal pairs and routes the remaining terminals to
distinct boundary exits, constructively (a case-by-case router) and
exhaustively (a brute-force oracle), and verifies that the two agree over
the complete enumeration of every supported terminal family.
"""

from .grid import (
    BOUNDARY,
    COL_ONLY,
    INNER_SQUARE,
    LAST_COL,
    LAST_ROW,
    GridGraph,
    Vertex,
    build_corner_grid,
    full_grid,
    grid_without_corner,
    unique_l_path,
)
from .model import (
    EscapeContract,
    EscapePlan,
    Path,
    Verdict,
    contract_for,
    validate_plan,
)
from .terminals import (
    LemmaId,
    TerminalConfig,
    decode_config,
    demote_pair_to_singletons,
    encode_config,
    enumerate_configs,
    make_config,
)


__all__ = [
    "BOUNDARY",
    "COL_ONLY",
    "INNER_SQUARE",
    "LAST_COL",
    "LAST_ROW",
    "GridGraph",
    "Vertex",
    "build_corner_grid",
    "full_grid",
    "grid_without_corner",
    "unique_l_path",
    "EscapeContract",
    "EscapePlan",
    "Path",
    "Verdict",
    "contract_for",
    "validate_plan",
    "LemmaId",
    "TerminalConfig",
    "decode_config",
    "demote_pair_to_singletons",
    "encode_config",
    "enumerate_configs",
    "make_config",
]

__version__ = "0.1.0"
