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

# every public name and the module it lives in; each module loads on the first
# read of one of its names (or on its own import), so ``import ccsym.cli``
# does not load ``witt`` or ``universal``
_HOMES = {
    "coeff": ("Coef", "Ring", "RingSpec", "ring_new"),
    "errors": ("EngineError", "InternalConsistencyError", "NotInvertibleError",
               "NotSharpError", "ParseError", "RingMismatchError",
               "StabilityExhaustedError", "UnsupportedRingError"),
    "laurent": ("LaurentElt", "UnitDecomposition", "Window",
                "coarse_split", "compose_series", "decompose", "exp_sharp", "from_terms",
                "invert", "log_sharp", "monomial", "one", "stable_coefficient", "t_var",
                "valuation", "zero"),
    "forms": ("DiffForm", "Dlog", "Log", "certified_residue", "certified_residues",
              "d", "dlog", "res", "wedge"),
    "symbol": ("additive_symbol", "cc", "cc_eps_linearization", "cc_eta_linearization",
               "sgn_kh", "sgn_vf", "steinberg_det_check", "tame_symbol"),
    "witt": ("GhostVector", "IndexSet", "WittVector", "ghost", "ghost_to_coords", "upsilon",
             "witt_add", "witt_pair"),
    "universal": ("PhiKey", "UniversalSeries", "evaluate_phi", "phi_coefficients"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [*_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # a fromlist makes __import__ return the submodule itself
    home = __import__(f"{__name__}.{module}", fromlist=(name,))
    value = globals()[name] = getattr(home, name)
    return value
