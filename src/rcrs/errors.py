"""Exception types shared across the toolkit."""


class RcrsError(Exception):
    """Base class for all toolkit errors."""


class TypeMismatch(RcrsError):
    pass


class PrimedInTemporal(RcrsError):
    pass


class NonTemporalMisuse(RcrsError):
    pass


class EmptyFeedbackSignature(RcrsError):
    pass


class ComponentSyntaxError(RcrsError):
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


class WfError(RcrsError):
    pass


class KindError(RcrsError):
    pass


class NotDecomposable(RcrsError):
    pass


class NotDeterministic(RcrsError):
    pass


class NotLoopFree(RcrsError):
    pass


class FeedbackOnNonDecomposable(RcrsError):
    def __init__(self, message, path=()):
        super().__init__(message)
        self.path = tuple(path)


class SignatureMismatch(RcrsError):
    pass


class TemporalFragment(RcrsError):
    pass


class DomainNotFinite(RcrsError):
    pass


class ExplosionGuard(RcrsError):
    pass


class SolverFailure(RcrsError):
    """The configured solver exited non-zero without a verdict: a defect in
    the solver or its installation, not an undecided goal."""


class SoundnessError(RcrsError):
    """Two routes disagree on a verdict: a defect in the toolkit, not in the
    input."""


class UnknownBlock(RcrsError):
    pass


class BadParams(RcrsError):
    pass


class AlgebraicLoop(RcrsError):
    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class PortMismatch(RcrsError):
    pass
