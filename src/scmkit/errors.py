"""Exception types and the value-record base shared across the package.

Everything raised on purpose derives from :class:`ScmError`, so callers
(notably the CLI) can distinguish domain failures from genuine bugs.
"""


class ScmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ScmError):
    """An argument violates a documented precondition."""


class CyclicGraphError(ScmError):
    """The edge set contains a directed cycle.

    The message names a witness cycle.
    """


class ResourceLimitError(ScmError):
    """A configurable size or enumeration cap would be exceeded."""


class ZeroProbabilityError(ScmError):
    """Conditioning on an event of probability zero."""


class PositivityError(ScmError):
    """An identification formula divides by a zero-probability stratum.

    The message names the offending stratum.
    """


class SingularConditioningError(ScmError):
    """Gaussian conditioning on a block with (near-)singular covariance."""


class DescendantConditioningError(ScmError):
    """A plain back-door check received descendants of the treatment.

    Such sets are handled by the pseudo-treatment extension instead.
    """


class WeakInstrumentError(ScmError):
    """An instrumental-variable denominator is numerically zero."""


class ExhaustionError(ScmError):
    """A simulation budget ran out before the request was satisfied."""


class ConstraintError(ScmError):
    """A named parameter constraint of an example builder is violated."""


class Record:
    """Base of the package's value records: named fields in `__slots__`.

    A subclass lists its fields in `__slots__`, in constructor order.  Its
    `__init__` keeps the record's own signature, defaults, checks and
    coercions, and ends by passing one value per field, in that order, to
    `Record.__init__`: the one place a field is stored.  Records compare
    equal when they are of the same class with equal field tuples, and read
    as ``Name(field=value, ...)``.  A record is frozen, hashing as its field
    tuple and refusing assignment, unless its class is declared with
    ``frozen=False``; such a record is unhashable.  Unpickling and copying
    store the saved field tuple without running the subclass's `__init__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each slot's own setter stores past the frozen `__setattr__`.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __init__(self, *values):
        for store, value in zip(self._setters, values):
            store(self, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._astuple()

    def __setstate__(self, state):
        Record.__init__(self, *state)
