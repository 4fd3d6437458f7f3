"""Graph families over Z_n and very-cost-effective bipartitions.

Builds the zero-divisor graph and its nilpotent, non-nilpotent, line, and
total variants; constructs an explicit very-cost-effective bipartition for
each supported modulus shape; and verifies or refutes very-cost-effectiveness
with a checker, an exhaustive search oracle, an exact search over twin
classes, and obstruction certificates.
"""
from types import ModuleType as _ModuleType

from .constructions import (
    Certificate,
    ConstructionId,
    Exists,
    NotVce,
    dispatch,
    vce_line_pq,
    vce_nilradical,
    vce_omega_squarefree,
    vce_p2q,
    vce_p2q2,
    vce_squarefree,
    vce_total_pq,
)
from .errors import (
    ConstructionError,
    DomainError,
    FormatError,
    PartitionError,
    ShapeError,
    ZnvceError,
)
from .graphs import (
    EdgePair,
    GraphFamily,
    LabeledGraph,
    Residue,
    VertexLabel,
    build_family,
    family_graphs,
    gamma,
    line_graph,
    nilradical_graph,
    non_nilradical_graph,
    total_graph,
)
from .rings import (
    Factorization,
    ModulusShape,
    ShapeKind,
    classify,
    factorize,
    is_prime,
    modulus_shape,
    nilpotents,
    zero_divisors,
)
from .search import (
    DEFAULT_VERTEX_CAP,
    ExhaustedSearch,
    IsolatedVertex,
    SearchOutcome,
    SearchStatus,
    brute_force,
    class_search,
    exact_search,
    isolated_obstruction,
    local_search,
    twin_classes,
)
from .serialize import (
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    parse_label,
    partition_from_json,
    partition_to_json,
)
from .vce import (
    Bipartition,
    VceReport,
    Verdict,
    check_bipartition,
    is_vce,
)

__version__ = "0.1.0"

# every public name imported above: the import list is the one place to add one
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
