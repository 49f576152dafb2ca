"""Error hierarchy shared by the whole engine.

Every error carries a stable ``kind`` string that the CLI maps onto its
machine-readable error schema.
"""


class EngineError(Exception):
    kind = "InternalConsistency"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail


class ParseError(EngineError):
    kind = "ParseError"


class RingMismatchError(EngineError):
    kind = "RingMismatch"


class NotInvertibleError(EngineError):
    kind = "NotInvertible"


class NotSharpError(EngineError):
    kind = "NotSharp"


class StabilityExhaustedError(EngineError):
    """A windowed computation could not be certified exact.

    Raised both when the window budget of ``stable_coefficient`` runs out
    (seven windows, none past 64 times the first) and when an expansion is
    detected to be non-convergent in any box window (lex-shaped tails).
    """

    kind = "StabilityExhausted"


class WindowExceededError(EngineError):
    """A coefficient outside the certified trust region was requested.

    Internal: the stability protocol catches this and retries with a larger
    window; it surfaces as ``StabilityExhausted`` when retries run out.
    """

    kind = "StabilityExhausted"


class UnsupportedRingError(EngineError):
    kind = "UnsupportedRing"


class InexactDivisionError(EngineError):
    kind = "InexactDivision"


class InternalConsistencyError(EngineError):
    kind = "InternalConsistency"
