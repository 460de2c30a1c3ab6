"""Exception types shared across the package."""


class FullGroupLabError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidPoint(FullGroupLabError):
    pass


class UnknownGenerator(FullGroupLabError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown generator {name!r}")


class UnknownAction(FullGroupLabError):
    pass


class InvalidAction(FullGroupLabError):
    pass


class InvalidElement(FullGroupLabError):
    pass


class NotAFragmentation(FullGroupLabError):
    pass


class InvalidBase(FullGroupLabError):
    pass


class BallTooLarge(FullGroupLabError):
    def __init__(self, cap, needed=None):
        self.cap = cap
        self.needed = needed
        msg = f"vertex cap {cap} exceeded"
        if needed is not None:
            msg += f" (needed {needed})"
        super().__init__(msg)


class NotConnected(FullGroupLabError):
    pass


class NotAPartition(FullGroupLabError):
    pass


class NotInvertible(FullGroupLabError):
    pass


class DepthCap(FullGroupLabError):
    pass


class NotStabilized(FullGroupLabError):
    pass


class RimContact(FullGroupLabError):
    pass


class NoRepetition(FullGroupLabError):
    pass


class PreconditionNphi(FullGroupLabError):
    pass


class PatternMismatch(FullGroupLabError):
    pass


class TransportFailure(FullGroupLabError):
    def __init__(self, message, report=None):
        self.report = report or {}
        super().__init__(message)


class WindowTooSmall(FullGroupLabError):
    pass


class FamilyFailure(FullGroupLabError):
    def __init__(self, message, report=None):
        self.report = report or {}
        super().__init__(message)


class OrderCap(FullGroupLabError):
    pass


class InvalidRadius(FullGroupLabError):
    pass
