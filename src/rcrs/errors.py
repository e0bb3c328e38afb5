"""Exception types shared across the toolkit."""


class RcrsError(Exception):
    """Base class for all toolkit errors.  A direct subclass is a misuse of
    the library or a defect in the toolkit: the CLI should never see one."""


class UsageError(RcrsError):
    """The input is at fault: it does not parse, is ill-typed or ill-formed,
    or falls outside the fragment a command accepts."""


class AnalysisFailure(RcrsError):
    """Neither the input nor the toolkit is at fault: the analysis cannot be
    carried out on this input at these bounds, or an external solver failed."""


class TypeMismatch(UsageError):
    pass


class PrimedInTemporal(UsageError):
    pass


class NonTemporalMisuse(RcrsError):
    pass


class EmptyFeedbackSignature(RcrsError):
    pass


class ComponentSyntaxError(UsageError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownType(ComponentSyntaxError):
    pass


class UnboundVariable(ComponentSyntaxError):
    pass


class NotAbove(RcrsError):
    pass


class WfError(UsageError):
    pass


class KindError(AnalysisFailure):
    pass


class NotDecomposable(AnalysisFailure):
    pass


class NotDeterministic(AnalysisFailure):
    pass


class NotLoopFree(AnalysisFailure):
    pass


class FeedbackOnNonDecomposable(AnalysisFailure):
    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = tuple(path)


class SignatureMismatch(UsageError):
    pass


class TemporalFragment(UsageError):
    pass


class DomainNotFinite(AnalysisFailure):
    pass


class ExplosionGuard(AnalysisFailure):
    pass


class SolverFailure(AnalysisFailure):
    """The configured solver exited non-zero without a verdict: a defect in
    the solver or its installation, not an undecided goal."""


class SoundnessError(RcrsError):
    """Two routes disagree on a verdict: a defect in the toolkit, not in the
    input."""


class UnknownBlock(UsageError):
    pass


class BadParams(UsageError):
    pass


class AlgebraicLoop(UsageError):
    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class PortMismatch(UsageError):
    pass
