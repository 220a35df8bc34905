"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: precondition failures
(bad descriptors, cross-ring mixing, non-symmetric input, ...) exit 2,
budget overruns exit 3, verification failures / counterexamples exit 4.
"""


def _clip(text):
    """``text`` cut to at most 64 characters, as messages show it."""
    return text if len(text) <= 64 else text[:61] + "..."


class ApxError(Exception):
    """Base class for all package errors."""


class RingConstructionError(ApxError):
    """Invalid ring descriptor; the message names the violated axiom."""


class ParseError(ApxError):
    """Malformed ring DSL, element, set literal or payload; the message
    quotes ``text`` cut to 64 characters, as ``str(ring)`` cuts a
    descriptor."""

    def __init__(self, message, text=None, position=None):
        if text is not None and position is not None:
            message = f"{message} at position {position} in {_clip(text)!r}"
        super().__init__(message)


class CrossRingError(ApxError):
    """Operands belong to different rings."""


class InfiniteRingError(ApxError):
    """Operation requires a finite ring (enumeration, quotients, ...)."""


class NotAnIdealError(ApxError):
    """Candidate set fails an ideal axiom; carries the violating ring
    elements: a pair, or one element."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSymmetricError(ApxError):
    """Input set is not additively symmetric (X != -X)."""


class UncoverableError(ApxError):
    """No cover exists: the base is empty (``cover._incidence``, which
    every solver, bound and commensurability runs), or a target lies in
    no translate of the oracle's pool."""


class BudgetExceededError(ApxError):
    """A derived set outgrew ``sets.SET_CAP``; the message names the
    stage that overran, and ``partial`` is the over-cap set (FiniteSet)."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class VerificationFailedError(ApxError):
    """A witness or certificate failed re-verification.

    For constructive covers, their terms included, this indicates an
    implementation bug and is surfaced, never silently corrected.
    """


class ZeroDivisorError(ApxError):
    """The ring has zero divisors."""


class InvalidParamsError(ApxError):
    """Bad parameters: a gallery item's, m < 1, n < 0, a sweep's jobs < 1,
    an empty X (no approximate subring), or an ideal inside no X_m up
    to the model check's depth."""
