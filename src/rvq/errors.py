"""Exception hierarchy shared across the package."""


class RVQError(Exception):
    """Base class for all library errors."""


class MalformedText(RVQError):
    """Input text is not a two-row permutation description."""


class LetterCountError(RVQError):
    """A letter does not occur exactly twice (or the alphabet is too small)."""


class EmptyRow(RVQError):
    """An operation would leave one of the two rows empty."""


class MoveUndefined(RVQError):
    """The requested induction move is not defined at this vertex."""


class BudgetExceeded(RVQError):
    """A configured element/vertex budget was hit.

    The partial result, when one exists, is attached as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ReverseArrowMissing(RVQError):
    """No arrow of the requested kind enters this vertex."""


class OpenWalk(RVQError):
    """A walk that must close up in a Rauzy class does not: it starts outside
    the class, leaves it or ends away from its start, or no tree path joins
    its vertex to the base (a truncated class)."""


class IllegalPosition(RVQError):
    """A letter insertion violates the simple-extension position rules."""


class AlphabetMismatch(RVQError):
    """Two permutations do not differ by exactly one letter, or a letter
    order does not list the letters it must index."""


class NotSplittable(RVQError):
    """The chosen singularity cannot be split as requested."""


class ParityError(RVQError):
    """An order that must be odd is even."""


class CaseUnmatched(RVQError):
    """A step of a walk does not lift through a simple extension: a move at
    the extension is undefined, three moves leave the inserted letter
    illegal, or the ends do not differ by that letter alone."""


class NotSuspendable(RVQError):
    """The permutation admits no suspension datum: it violates the both-rows
    convention or is reducible, so it names no (non-empty) stratum."""


class InconsistentGenus(RVQError):
    """Genus from singularity orders disagrees with homology rank (bug trap)."""


class NotOmegaPreserving(RVQError):
    """A matrix does not preserve the intersection form by conjugation."""


class NonSymplecticGenerator(RVQError):
    """A mod-p generator does not preserve the symplectic form."""


class NonDividingOrder(RVQError):
    """A subgroup order fails to divide the ambient group order (bug trap)."""


class CriterionInapplicable(RVQError):
    """A criterion's precondition does not hold (hyperellipticity, spin
    parity, minus eligibility)."""


class UnknownLabel(RVQError):
    """Unrecognized canonical representative label."""


class OutOfRange(RVQError):
    """A canonical representative parameter is outside its legal range."""
