"""Exception hierarchy shared by all modules."""


class OrientAugmentError(Exception):
    """Base class for every library-specific error."""


# -- plane graph construction / editing ------------------------------------

class DuplicateArcEnd(OrientAugmentError):
    """An arc end is missing, repeated, or listed at the wrong vertex."""


class ModeViolation(OrientAugmentError):
    """A loop, parallel arc, or digon is illegal in the requested mode."""


class NonSphericalEmbedding(OrientAugmentError):
    """The rotation system does not describe a sphere embedding."""


class CrossingArcs(OrientAugmentError):
    """Two chords of one face interleave on its cyclic boundary."""


class StaleAngle(OrientAugmentError):
    """An angle reference does not belong to the host graph."""


# -- analysis ----------------------------------------------------------------

class CensusMismatch(OrientAugmentError):
    """Internal angle census failed; indicates a bug, not bad input."""


class MultipleCommonNeighbours(OrientAugmentError):
    """Consecutive boundary vertices had two common neighbours; the input
    cannot be a face of a plane graph."""


class NotSimpleFace(OrientAugmentError):
    """Operation requires a face with exactly two local terminals."""


# -- reconfiguration ---------------------------------------------------------

class EndpointNotFound(OrientAugmentError):
    """The requested completion endpoint does not exist."""


class GatherBlocked(OrientAugmentError):
    """Neither gathering direction succeeded; indicates a bug."""


class NotASolution(OrientAugmentError):
    """Input completion fails verification."""


# -- dijoin ------------------------------------------------------------------

class UnknownArc(OrientAugmentError):
    """Arc id does not exist in the digraph."""


class NotACandidate(OrientAugmentError):
    """An allowed arc is not a legal candidate completion arc."""


class NonGadgetArcInY(OrientAugmentError):
    """A dijoin witness used a non-gadget arc; indicates a bug."""


# -- solvers -----------------------------------------------------------------

class BudgetTooLargeForOracle(OrientAugmentError):
    """Soft guard: the brute-force oracle refuses oversized searches."""


class Disconnected(OrientAugmentError):
    """The solver requires a connected underlying graph."""


# -- hardness generator -------------------------------------------------------

class InvalidArity(OrientAugmentError):
    """Variable gadgets need at least two occurrences."""


class AssignmentDoesNotSatisfy(OrientAugmentError):
    """The assignment does not satisfy the formula."""


class EmbeddingConflict(OrientAugmentError):
    """Rotation data of the formula is not a planar embedding."""


# -- io ------------------------------------------------------------------------

class ParseError(OrientAugmentError):
    """Malformed input file; carries line information in the message."""


class InfeasibleParameters(OrientAugmentError):
    """A parameter is out of range: random generator sizes outside planar
    bounds, a negative budget, an unknown solve method, or no trials."""
