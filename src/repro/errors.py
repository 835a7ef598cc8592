"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause while still
being able to distinguish the layer that failed (metamodelling, expression
evaluation, QVT-R parsing, dependency typing, checking, solving or
enforcement).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class MetamodelError(ReproError):
    """Raised for ill-formed metamodels (duplicate classes, bad bounds...)."""


class ModelError(ReproError):
    """Raised for ill-formed models (unknown objects, type mismatches...)."""


class ConformanceError(ModelError):
    """Raised when a model is required to conform to a metamodel but does not."""


class EditError(ModelError):
    """Raised when an edit operation cannot be applied to a model."""


class SerializationError(ReproError):
    """Raised when (de)serialising metamodels or models fails."""


class ExprError(ReproError):
    """Raised when an OCL-lite expression is ill-formed or cannot evaluate."""


class EvalError(ExprError):
    """Raised during expression evaluation (unbound variable, bad navigation)."""


class QvtSyntaxError(ReproError):
    """Raised by the QVT-R lexer/parser for malformed source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class QvtStaticError(ReproError):
    """Raised by static analysis of QVT-R transformations.

    Covers the paper's section 2.3: a relation invoked in a direction its
    dependency set does not entail is a *typing error at static time*.
    """


class DependencyError(ReproError):
    """Raised for ill-formed checking dependencies (target inside sources...)."""


class CheckError(ReproError):
    """Raised when the checking engine cannot evaluate a specification."""


class UnsafeRelationError(CheckError):
    """Raised when a variable cannot be bound by any source-domain pattern.

    The paper's quantifiers range over the free variables of the source
    patterns; executable checking needs every universally quantified
    variable to be determined by pattern matching, otherwise the check
    would need to range over an infinite value domain.
    """


class SolverError(ReproError):
    """Raised by the SAT/MaxSAT layer (bad literals, inconsistent bounds...)."""


class SatFragmentError(SolverError):
    """Raised when a transformation falls outside the SAT-groundable fragment.

    The bounded grounder covers the *template fragment*: flat domain
    patterns whose properties equate attributes with variables or
    literals, and no when/where clauses. Echo grounds full QVT-R through
    Alloy; our grounder covers what the paper's examples need, and the
    explicit search engine (:mod:`repro.enforce.search`) covers the rest
    of the language at smaller scale.
    """


class EnforcementError(ReproError):
    """Raised when enforcement cannot produce a repair."""


class NoRepairFound(EnforcementError):
    """Raised when no consistent tuple exists within the explored bounds.

    Mirrors the paper's observation that *"not all update directions are
    able to restore the consistency of the system"*: a single-target
    enforcement may simply have no solution, in which case the user should
    widen the target selection.
    """

    def __init__(self, message: str, explored_distance: int | None = None) -> None:
        super().__init__(message)
        self.explored_distance = explored_distance


class NonConformantTarget(EnforcementError):
    """Raised, on every engine alike, for an inconsistent tuple whose
    weighted target holds a value outside its attribute's type."""


class SearchBudgetExhausted(NoRepairFound):
    """The explicit-search engine ran out of *state budget* — distinct
    from proving no repair exists within the bounded space. Differential
    consumers must not treat this as a genuine NO_REPAIR verdict."""


class WorkspaceError(ReproError):
    """Raised by the Echo workspace for missing or inconsistent artefacts."""


class GenerationError(ReproError):
    """Raised by :mod:`repro.gen` when a generator cannot satisfy its
    validity filter (e.g. no well-typed transformation within the retry
    budget)."""


class ServeError(ReproError):
    """Raised by the batch service (:mod:`repro.serve`) for scheduler
    misuse — invalid worker counts, invalid deadlines, or a shard that
    produced no response. Per-request failures never raise; they
    come back as ``error`` responses so one bad request cannot kill its
    batch."""


class DaemonConnectionError(ServeError):
    """The connection to the enforcement daemon failed or went bad.

    Raised by :class:`~repro.serve.protocol.DaemonClient` for every
    connection-level failure — refused/absent socket, mid-pipeline
    reset, a corrupt reply envelope that desynchronised the stream —
    instead of letting raw ``ConnectionError``/``JSONDecodeError``
    escape. ``pending`` carries the ids (or idempotency keys) of the
    requests still owed an answer when the connection died, which is
    exactly what :class:`~repro.serve.protocol.RetryingClient` resubmits
    after reconnecting.
    """

    def __init__(self, message: str, pending: tuple = ()) -> None:
        super().__init__(message)
        self.pending = tuple(pending)


class SessionLostError(ServeError):
    """A daemon delta session no longer exists.

    Raised by :class:`~repro.serve.protocol.SessionClient` when the
    daemon answers a session verb with the typed ``session-lost``
    outcome: the named session was never opened, its worker process
    was restarted (a worker's version DAGs die with it), or the
    worker's bounded session cache evicted it. Session state is *not*
    replayable — the client must reopen with a full tuple and resend
    its edits.
    """
