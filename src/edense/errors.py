"""Structured exceptions raised by the workbench.

Every validation failure carries its witness (the offending indices or
elements) so callers and reports can show exactly what went wrong.
"""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WorkbenchError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnreadableFile(WorkbenchError):
    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"cannot read {path}: {reason}")


class NonAssociative(WorkbenchError):
    def __init__(self, i, j, k, where="table"):
        self.witness = (i, j, k)
        super().__init__(f"{where} not associative at triple ({i}, {j}, {k})")


class OutOfRangeEntry(WorkbenchError):
    def __init__(self, row, col, value):
        self.witness = (row, col, value)
        super().__init__(f"entry [{row}][{col}] = {value} out of range")


class BadIdentityHint(WorkbenchError):
    def __init__(self, hint):
        self.hint = hint
        super().__init__(f"{hint} is not a two-sided identity")


class NotSemilattice(WorkbenchError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"idempotents do not form a semilattice (witness {witness})")


class NotIdempotent(WorkbenchError):
    def __init__(self, e):
        self.element = e
        super().__init__(f"element {e} is not idempotent")


class NotGroup(WorkbenchError):
    def __init__(self):
        super().__init__("semigroup is not a group")


class NotPrime(WorkbenchError):
    def __init__(self, p):
        self.value = p
        super().__init__(f"{p} is not a prime in the supported range")


class OrderTooLarge(WorkbenchError):
    def __init__(self, n, bound, what="enumeration"):
        self.n = n
        self.bound = bound
        super().__init__(f"{what} limited to order {bound}, got {n}")


class UnknownFixture(WorkbenchError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown fixture {name!r}")


class CompositionViolation(WorkbenchError):
    def __init__(self, s, t, x, detail=""):
        self.witness = (s, t, x)
        super().__init__(f"composition law fails at (s={s}, t={t}, x={x}) {detail}")


class NotCancellative(WorkbenchError):
    def __init__(self, s, x, y):
        self.witness = (s, x, y)
        super().__init__(f"not cancellative: {s}*{x} == {s}*{y} with {x} != {y}")


class NotReflexive(WorkbenchError):
    def __init__(self, s, x):
        self.witness = (s, x)
        super().__init__(f"no weak inverse of {s} acts on {s}*{x}")


class WellDefinednessViolation(WorkbenchError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"action value depends on choice of weak inverse: {witness}")


class BadSubsemigroup(WorkbenchError):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        shown = "" if witness is None else f" (witness {witness})"
        super().__init__(f"subset is not a closed E-dense subsemigroup: {reason}{shown}")


class NotSelfConjugate(WorkbenchError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subsemigroup is not self-conjugate (witness {witness})")


class MissingIdentity(WorkbenchError):
    def __init__(self, obj):
        self.object = obj
        super().__init__(f"object {obj} has no identity morphism")


class BadComposability(WorkbenchError):
    def __init__(self, p, q, detail):
        self.witness = (p, q)
        super().__init__(f"composition defined on wrong pairs at ({p}, {q}): {detail}")


class ActionAxiomViolation(WorkbenchError):
    def __init__(self, detail, witness=None):
        self.witness = witness
        super().__init__(f"group action axiom fails: {detail} (witness {witness})")


class PreconditionFailed(WorkbenchError):
    def __init__(self, name, detail=""):
        self.name = name
        super().__init__(f"precondition failed: {name} {detail}".rstrip())


class UnsupportedBand(WorkbenchError):
    def __init__(self, k):
        self.k = k
        super().__init__(f"adjoined band of size {k} not supported (need k >= 2)")


class NoDecryptKey(WorkbenchError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"no uniform decrypt key exists for cipher key {key}")


class NotAssociativeAction(WorkbenchError):
    def __init__(self, s, t, x):
        self.witness = (s, t, x)
        super().__init__(f"(s*t)x != s(tx) at (s={s}, t={t}, x={x})")
