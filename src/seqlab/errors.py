"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
a plain ValueError marks an argument outside its documented range.
"""


class SeqLabError(Exception):
    """Base class for all library-specific errors."""


# What a library error, bad input or failed file access raises; the CLI and
# the study scripts end each as ``Error: <message>`` with exit status 1.
RUN_ERRORS = (SeqLabError, ValueError, ArithmeticError, OSError)


# -- exact arithmetic ------------------------------------------------------

class ZeroConstantTerm(SeqLabError):
    """Inversion of a power series whose constant term is zero."""


# -- sequence generation ---------------------------------------------------

class BudgetExceeded(SeqLabError):
    """A brute-force enumeration hit its configured node budget."""


class LeadingCoeffVanishes(SeqLabError):
    """The leading recurrence polynomial vanishes at an index needed to step."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading coefficient vanishes at n={n}")


class NonIntegral(SeqLabError):
    """An integer sequence was requested but an exact division failed."""


class BranchAmbiguous(SeqLabError):
    """The seed does not pin a unique branch of an algebraic equation."""


class NotARoot(SeqLabError):
    """The seed fails to satisfy the algebraic equation to its own order."""


# -- guessing --------------------------------------------------------------

class InsufficientTerms(SeqLabError):
    """Too few terms for the requested fit to be overdetermined."""


class InconsistentInit(SeqLabError):
    """Initial terms do not satisfy the recurrence they are paired with."""


# -- high-precision asymptotics --------------------------------------------

class SingularSystem(SeqLabError):
    """A linear system solved exactly turned out singular."""


class IllConditioned(SeqLabError):
    """A numeric solve lost too much precision to be trusted."""

    def __init__(self, message: str, cond_estimate=None):
        self.cond_estimate = cond_estimate
        super().__init__(message)


class NonPositiveValue(SeqLabError):
    """A logarithm/ratio step met a non-positive value."""


class TableauBlowup(SeqLabError):
    """An extrapolation tableau produced a zero denominator."""


class NoPositiveRoot(SeqLabError):
    """A polynomial has no positive real root to isolate."""


class PrecisionTooLow(SeqLabError):
    """Requested digits are insufficient for the operation's guard."""


# -- lattice reduction -----------------------------------------------------

class RankDeficient(SeqLabError):
    """Lattice basis rows are linearly dependent."""


# -- OEIS / b-files --------------------------------------------------------

class MalformedLine(SeqLabError):
    """A b-file line could not be parsed."""

    def __init__(self, lineno: int, line: str):
        self.lineno = lineno
        self.line = line
        super().__init__(f"malformed b-file line {lineno}: {line!r}")


class NonContiguousIndex(SeqLabError):
    """b-file indices do not increase by exactly one."""

    def __init__(self, lineno: int, expected: int, got: int):
        self.lineno = lineno
        self.expected = expected
        self.got = got
        super().__init__(
            f"b-file line {lineno}: expected index {expected}, got {got}"
        )


class NetworkError(SeqLabError):
    """Fetching from the remote sequence database failed."""


class SequenceNotFound(SeqLabError):
    """The remote sequence database has no entry for this id."""


class CacheMiss(SeqLabError):
    """Offline mode requested a sequence that is not in the local cache."""
