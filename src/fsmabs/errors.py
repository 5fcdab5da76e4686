"""Exception types shared across the package."""


class FsmabsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FsmabsError):
    """A machine file or symbol token is malformed."""


class UnknownState(FsmabsError):
    """A state token is not declared in the machine."""


class UnknownInput(FsmabsError):
    """An input token is not declared in the machine."""


class UnknownOutput(FsmabsError):
    """An output token is not declared in the machine."""


class NotAccepted(FsmabsError):
    """The machine fails a validation flag required by the operation."""


class IncompatibleAlphabets(FsmabsError):
    """Two machines do not project onto the same external alphabet."""


class InvalidSpec(FsmabsError):
    """An argument is out of range for the operation: a window length or
    anchor (``behavior.IntervalSpec``), a relation kind, a law name."""


class InvalidPartition(FsmabsError):
    """A cell family is not a partition of the machine's state set."""


class MalformedRelation(FsmabsError):
    """A relation references undeclared states or the wrong machines."""


class EndpointMismatch(FsmabsError):
    """Relation algebra applied to relations whose shared endpoint machines
    differ, such as ``compose`` over different middle machines."""


#: The former name of :class:`EndpointMismatch`, from when relations were
#: bound to machine digests.
DigestMismatch = EndpointMismatch
