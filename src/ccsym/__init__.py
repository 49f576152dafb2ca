"""Exact engine for higher Contou-Carrere symbols over rings with nilpotents.

Computes, over coefficient rings ``Base[u..][e..]/(e_i^{d_i})``:

* sparse exact arithmetic in iterated Laurent series and their unit-group
  decomposition (``ccsym.laurent``),
* reduced differential forms, ``dlog`` and the n-dimensional residue, read
  off a wedge of ``log``/``dlog`` factors in one certified pass
  (``ccsym.forms.certified_residue``),
* the explicit higher Contou-Carrere symbol, the additive symbol, the sign
  map and the tame symbol (``ccsym.symbol``),
* Witt vectors, ghost coordinates and the generalized Witt pairing
  (``ccsym.witt``),
* the universal integral power series evaluating the symbol over any base
  ring (``ccsym.universal``).

All arithmetic is exact; windowed series computations carry certificates and
either return provably correct coefficients or fail with a stability error.
"""

from .coeff import Coef, Ring, RingSpec, ring_new
from .errors import (
    EngineError,
    InternalConsistencyError,
    NotInvertibleError,
    NotSharpError,
    ParseError,
    RingMismatchError,
    StabilityExhaustedError,
    UnsupportedRingError,
)
from .laurent import (
    LaurentElt,
    UnitDecomposition,
    Window,
    coarse_split,
    compose_series,
    decompose,
    exp_sharp,
    from_terms,
    invert,
    log_sharp,
    monomial,
    one,
    stable_coefficient,
    t_var,
    valuation,
    zero,
)
from .forms import (
    DiffForm,
    Dlog,
    Log,
    certified_residue,
    certified_residues,
    d,
    dlog,
    res,
    wedge,
)
from .symbol import (
    additive_symbol,
    cc,
    cc_eps_linearization,
    cc_eta_linearization,
    sgn_kh,
    sgn_vf,
    steinberg_det_check,
    tame_symbol,
)
from .witt import GhostVector, IndexSet, WittVector, ghost, ghost_to_coords, upsilon, \
    witt_add, witt_pair
from .universal import PhiKey, UniversalSeries, evaluate_phi, phi_coefficients

__all__ = [
    "Coef", "Ring", "RingSpec", "ring_new",
    "EngineError", "InternalConsistencyError", "NotInvertibleError", "NotSharpError",
    "ParseError", "RingMismatchError", "StabilityExhaustedError", "UnsupportedRingError",
    "LaurentElt", "UnitDecomposition", "Window",
    "coarse_split", "compose_series", "decompose", "exp_sharp", "from_terms", "invert",
    "log_sharp", "monomial", "one", "stable_coefficient", "t_var", "valuation", "zero",
    "DiffForm", "Dlog", "Log", "certified_residue", "certified_residues",
    "d", "dlog", "res", "wedge",
    "additive_symbol", "cc", "cc_eps_linearization", "cc_eta_linearization",
    "sgn_kh", "sgn_vf", "steinberg_det_check", "tame_symbol",
    "GhostVector", "IndexSet", "WittVector", "ghost", "ghost_to_coords", "upsilon",
    "witt_add", "witt_pair",
    "PhiKey", "UniversalSeries", "evaluate_phi", "phi_coefficients",
]
