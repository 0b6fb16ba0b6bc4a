"""Exception taxonomy.

Two families: ``ValidationError`` for bad input (CLI exit code 2) and
``AdequacyError`` for numerically inadequate grids, branches or residues
(CLI exit code 3).  Computations never guess their way past either.
"""


class TopoIndexError(Exception):
    pass


class ValidationError(TopoIndexError):
    pass


class AdequacyError(TopoIndexError):
    pass


# --- linear algebra ---

class NonHermitian(ValidationError):
    def __init__(self, deviation, index=0):
        self.deviation = deviation
        self.index = index  # flat position of the first failing matrix in a stack
        super().__init__(f"matrix is not Hermitian (deviation {deviation:.3e})")


class NotSkewSymmetric(ValidationError):
    def __init__(self, deviation):
        self.deviation = deviation
        super().__init__(f"matrix is not skew-symmetric (deviation {deviation:.3e})")


class OddDimension(ValidationError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"Pfaffian needs even dimension, got {n}")


class PfaffianNearZero(AdequacyError):
    """Pfaffian magnitude below tolerance, e.g. a band gap closing at a TRIM."""

    def __init__(self, magnitude, where=None):
        self.magnitude = magnitude
        self.where = where
        at = f" at {where}" if where is not None else ""
        super().__init__(f"Pfaffian magnitude {magnitude:.3e} below tolerance{at}")


# --- models ---

class UnknownModel(ValidationError):
    def __init__(self, name, known):
        super().__init__(f"unknown model {name!r}; known: {', '.join(sorted(known))}")


class InvalidParams(ValidationError):
    """Bad input; the message is the reason alone."""


class SchemaError(ValidationError):
    def __init__(self, path, reason):
        self.path = path
        super().__init__(f"model document error at {path}: {reason}")


class NonHermitianInput(ValidationError):
    def __init__(self, reason="on-site block must be Hermitian"):
        super().__init__(reason)


class HoppingRangeTooLong(ValidationError):
    def __init__(self, axis, magnitude, bound):
        super().__init__(
            f"Fourier coefficients beyond declared hopping range on axis {axis} "
            f"reach {magnitude:.3e} (> {bound:.3e}, 1e-10 times the largest "
            f"in-range entry)"
        )


# --- band geometry ---

class GapClosed(AdequacyError):
    def __init__(self, k, value):
        self.k = k
        super().__init__(f"spectral gap closed at k={k} (min |E| = {value:.3e})")


class GridTooCoarse(AdequacyError):
    def __init__(self, detail):
        super().__init__(f"momentum grid too coarse: {detail}")


class GaugeConstructionFailed(AdequacyError):
    def __init__(self, detail):
        super().__init__(f"smooth gauge construction failed: {detail}")


class NotUnitary(AdequacyError):
    def __init__(self, where, deviation):
        self.deviation = deviation
        super().__init__(f"matrix field not unitary at {where} (deviation {deviation:.3e})")


class BranchTrackingFailed(AdequacyError):
    def __init__(self, where, jump):
        super().__init__(
            f"square-root branch tracking failed near {where}: "
            f"phase jump {jump:.3f} rad exceeds pi/2"
        )


class BranchUnsafe(AdequacyError):
    def __init__(self, where, detail=""):
        super().__init__(f"unitary field varies too fast at {where} {detail}")


class ResidueTooLarge(AdequacyError):
    def __init__(self, value, residue, threshold):
        self.value = value
        self.residue = residue
        super().__init__(
            f"value {value:.6f} has rounding residue {residue:.3f} > {threshold}"
        )


# --- spectral ---

class EndpointGapless(ValidationError):
    def __init__(self, which, value):
        super().__init__(f"path sample {which} is gapless at the level (min |E-level| = {value:.3e})")


class EdgeBandIsolationFailed(AdequacyError):
    def __init__(self, detail):
        super().__init__(f"edge bands cannot be isolated: {detail}")


# --- noncommutative torus ---

class NumericallySingular(AdequacyError):
    def __init__(self, sigma, upper):
        super().__init__(
            f"singular value {sigma:.3e} in the ambiguous band [1e-8, {upper:.1e}]; "
            "increase the cutoff"
        )
