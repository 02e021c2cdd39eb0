"""Exception taxonomy shared by all momix modules."""


class MomixError(Exception):
    """Base class for all library errors."""


class SelfCheckFailed(MomixError):
    """An exact re-check of a certificate or geometric invariant failed (a
    bug).  Unlike an assert, the check also runs under ``python -O``."""


# -- model / file errors ----------------------------------------------------

class ParseError(MomixError):
    """The input text is not syntactically valid."""


class SchemaError(MomixError):
    """The input parses but violates the document schema (missing field,
    unknown reference, malformed rational, ...)."""


class UnknownState(MomixError):
    """A state identifier does not belong to the model."""

    def __init__(self, state):
        super().__init__(f"unknown state {state!r}")
        self.state = state


# -- histories --------------------------------------------------------------

class MalformedHistory(MomixError):
    """A history is not well formed against its model."""


# -- strategies -------------------------------------------------------------

class DisabledAction(MomixError):
    """An action is not enabled where it is used."""


class PoolTooLarge(MomixError):
    """A pure pool would exceed the configured cap.  `size` is None when
    behaviours are counted: the walk stops at the first one past the cap."""

    def __init__(self, size, cap, unit="tables"):
        count = f"more than {cap}" if size is None else size
        super().__init__(f"pure pool has {count} {unit}, cap is {cap}")
        self.size = size
        self.cap = cap


class EmptySupport(MomixError):
    """A mixture has an empty support."""


# -- evaluation -------------------------------------------------------------

class UnsupportedKind(MomixError):
    """The payoff kind is outside the implemented catalog."""


class SingularSystem(MomixError):
    """An exact linear solve hit a singular matrix.  This cannot happen for
    structurally valid inputs and indicates a bug upstream."""


class UndefinedExpectation(MomixError):
    """A mixture combines +inf and -inf with positive weight on one
    dimension, so its expectation is not unambiguously defined."""


# -- geometry ---------------------------------------------------------------

class DimensionMismatch(MomixError):
    """Points of different dimensions were mixed."""


class NotInHull(MomixError):
    """The query point lies outside the convex hull."""


class NotDominated(MomixError):
    """The query point is not dominated by the hull."""


# -- synthesis --------------------------------------------------------------

class NotAchievable(MomixError):
    """No mixture over the supplied pool realizes the target."""


class InfeasibleApproximation(MomixError):
    """No mixture over the supplied pool meets the (eps, M) requirements.
    With a finite pool this cannot distinguish an infeasible target from a
    pool that simply misses the witnesses."""


# -- belief analyses --------------------------------------------------------

class PreconditionViolated(MomixError):
    """An operation was invoked although its stated precondition fails."""
