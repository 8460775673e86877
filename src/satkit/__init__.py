"""Satellite operators on knot and link diagrams, with group-theoretic and
homological verification tooling."""

from types import ModuleType as _ModuleType

from .abelian import AbelianGroup, cokernel, smith_normal_form
from .diagram import (
    Diagram,
    canonical,
    component_subdiagram,
    connected_sum,
    crossing_signs,
    diagrams_equal,
    embedding_genus,
    linking_number,
    mirror,
    reverse,
    simplify,
    unknot,
    writhe,
)
from .errors import DomainError, InternalError, ParseError, SatkitError, ValidationError
from .groups import (
    EnumerationResult,
    GroupPresentation,
    abelianization,
    cut_loop_word,
    quotient,
    simplify_presentation,
    strong_winding_check,
    todd_coxeter,
    wirtinger,
)
from .invariants import (
    Laurent,
    alexander_poly,
    determinant,
    equal_up_to_units,
    satellite_formula_report,
)
from .patterns import (
    Pattern,
    compose,
    difference_pattern,
    from_link,
    misframed_satellite,
    patterns_equal,
    satellite,
    to_link,
    winding_number,
)
from .stringlinks import (
    InfectionOperator,
    StringLink,
    closure,
    fuse,
    infect,
    mirror_reverse,
    parallel,
    reduce_to_pattern,
    stack,
    trivial_string_link,
    winding_gcd,
    winding_vector,
)
from .surgery import (
    BandArc,
    FramedLink,
    build_pipeline,
    h1,
    handle_slide,
    linking_matrix,
    slam_dunk,
    zero_surgery,
)

# the imported names, not the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
