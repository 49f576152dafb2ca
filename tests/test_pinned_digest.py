"""One digest of the engine's outputs, pinned: refactors must leave it alone.

The sha1 covers the ``to_json`` of both phi acceptance tables (phi_{1,1} to
degree 6 on [-6, 6] and phi_{2,1,2} to degree 3 on [-2, 2]^2) and the value,
branch trace or error kind of 360 seeded ``cc(..., want_trace=True)`` calls:
30 at each n = 1, 2, 3 over Q[e1, e2]/(e1^2, e2^3), Q[e]/(e^3),
Q[u; e, f]/(e^2, f^2) and Z/9[e]/(e^2).  A change that alters one of these
outputs on purpose updates ``PINNED`` and says why in CHANGES.md.
"""

import hashlib
import json
import random

from ccsym.checks import random_invertible_series
from ccsym.coeff import RingSpec, ring_new
from ccsym.errors import EngineError
from ccsym.laurent import Window
from ccsym.symbol import cc
from ccsym.universal import PhiKey, phi_coefficients

PINNED = "16079e49f017902c567ccea14cdbf2e4a8360dba"

RINGS = (RingSpec("Q", nil=(("e1", 2), ("e2", 3))),
         RingSpec("Q", nil=(("e", 3),)),
         RingSpec("Q", free=("u",), nil=(("e", 2), ("f", 2))),
         RingSpec(9, nil=(("e", 2),)))


def _cc_outputs():
    out = []
    for r, spec in enumerate(RINGS):
        ring = ring_new(spec)
        for n in (1, 2, 3):
            rng = random.Random(100 * r + n)
            for _ in range(30):
                entries = [random_invertible_series(rng, ring, n) for _ in range(n + 1)]
                try:
                    value, trace = cc(entries, want_trace=True)
                    out.append([str(value), trace])
                except EngineError as exc:
                    out.append(exc.kind)
    return out


def test_outputs_match_the_pinned_digest():
    tables = [phi_coefficients(PhiKey(1, (1,)), 6, Window.box((-6,), (6,))).to_json(),
              phi_coefficients(PhiKey(2, (1, 2)), 3, Window.box((-2, -2), (2, 2))).to_json()]
    outputs = _cc_outputs()
    assert sum(isinstance(x, list) for x in outputs) == 295  # the rest UnsupportedRing
    digest = hashlib.sha1(json.dumps([tables, outputs], sort_keys=True).encode()).hexdigest()
    assert digest == PINNED
