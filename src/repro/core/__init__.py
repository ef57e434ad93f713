"""QS-DNN: the Q-learning-based search engine (paper §IV-V).

The search consumes only a :class:`~repro.engine.lut.LatencyTable` — the
two-phase split that lets it run "in a standard Intel CPU ... in less
than 10 min" while the board is needed only for profiling.
"""

from repro.core.config import SearchConfig
from repro.core.epsilon import EpsilonSchedule
from repro.core.kernels import numba_available, resolve_backend
from repro.core.multi_seed import MultiSeedResult, MultiSeedSearch, seed_range
from repro.core.polish import coordinate_descent
from repro.core.qtable import QTable, QTableFlat
from repro.core.state import SearchState
from repro.core.result import SearchResult
from repro.core.search import QSDNNSearch

__all__ = [
    "SearchConfig",
    "EpsilonSchedule",
    "coordinate_descent",
    "MultiSeedResult",
    "MultiSeedSearch",
    "numba_available",
    "resolve_backend",
    "seed_range",
    "QTable",
    "QTableFlat",
    "SearchState",
    "SearchResult",
    "QSDNNSearch",
]
