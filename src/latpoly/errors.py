"""Exception hierarchy shared by all latpoly modules."""


class LatPolyError(Exception):
    """Base class for every error raised by this package."""


class InvalidGraph(LatPolyError):
    """A dotted graph violates a structural invariant."""


# geometry kernel -------------------------------------------------------

class DuplicateComponent(LatPolyError):
    """A point configuration repeats an x- or y-component."""


class MismatchedComponents(LatPolyError):
    """Initial and terminal vertex sets have different coordinate multisets."""


class NotInConfig(LatPolyError):
    """A rectangle corner is not a point of the configuration."""


class DegenerateRectangle(LatPolyError):
    """The two diagonal points share an x- or a y-component."""


class NotInitialVertices(LatPolyError):
    """A normal move needs both diagonal vertices among the initial vertices."""


class NotTerminalVertices(LatPolyError):
    """A reversed move needs both diagonal vertices among the terminal vertices."""


# dotted graphs ----------------------------------------------------------

class DotOnCrossing(InvalidGraph):
    """A dot coincides with a crossing point."""


class UndottedArc(LatPolyError):
    """An operation requires a dot (or two) on every arc."""


class RoutingFailure(LatPolyError):
    """Internal: a rectilinear route could not be realized.  Treated as a bug."""


# deformation engine -----------------------------------------------------

class NotApplicable(LatPolyError):
    """A deformation does not apply at the given site; callers that scan
    for applicable sites catch this and nothing broader."""


class TooFewDots(LatPolyError):
    """Deformation I needs at least two dots on the arc."""


class LabelMismatch(NotApplicable):
    """Region labels do not satisfy the deformation's precondition."""


class NotALoop(LatPolyError):
    """The certificate does not describe a loop component."""


class NoCommonFace(NotApplicable):
    """The two dots do not bound a common middle region."""


class OrientationClash(NotApplicable):
    """The arcs do not admit the induced orientations of a band surgery."""


class MissingDot(LatPolyError):
    """Deformation IV must be applied at two dots."""


class CreatesLoop(LatPolyError):
    """An arc isotopy would create a loop component."""


# reducer / planner ------------------------------------------------------

class BudgetExceeded(LatPolyError):
    """A reduction or an exploration exceeded its budget (``good_reduce``
    and ``reduce_all_dotted`` count steps, ``explore_reductions`` visited
    states); signals a bug or a pathology.  The message names the budget,
    its limit and how far the run got."""


class StuckReduction(LatPolyError):
    """Internal: the every-arc-dotted pipeline found no circle-eliminating
    step, although its second stage always has one.  Treated as a bug."""


class InvalidTrace(LatPolyError):
    """Reduction trace steps do not compose or break the good order."""


class NonEmptyTerminal(LatPolyError):
    """The reduction trace does not end at the empty graph."""


class CompileGap(LatPolyError):
    """Internal: no classifier-passing path reaches the trivial polytope
    although the reduction ends empty, or a postcondition of a compiled or
    normalized plan broke.  Treated as a bug."""


class InvalidPlan(LatPolyError):
    """A transformation plan cannot be replayed on the polytope."""


class NotATransformation(LatPolyError):
    """A plan does not carry the initial vertices to the terminal vertices."""


class NotIVa1Site(NotApplicable):
    """The site does not describe adjacent arcs of a crossing."""


# oracle / cli -----------------------------------------------------------

class TooLarge(LatPolyError):
    """The instance exceeds the oracle's desk-scale bound."""


class ParseError(LatPolyError):
    """An input file or argument could not be parsed."""
