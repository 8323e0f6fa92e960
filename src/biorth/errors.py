"""Exception hierarchy for the biorth package.

Every failure mode that callers are expected to branch on gets its own
class.  The CLI maps ConfigError to exit code 2 and the mathematical
degeneracies to exit code 3; verification mismatches use exit code 1.
"""
from __future__ import annotations


class BiorthError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BiorthError):
    """Malformed family config, bad CLI arguments, or invalid options."""


class PoleAt(BiorthError):
    """A denominator vanished at the evaluation point."""

    def __init__(self, where, detail=""):
        self.where = where
        msg = f"PoleAt({where})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class RemovableSingularity(BiorthError):
    """Numerator and denominator both vanish at the evaluation point."""

    def __init__(self, where):
        self.where = where
        super().__init__(f"RemovableSingularity({where})")


class NonConvergence(BiorthError):
    """An iterative numeric routine exhausted its budget."""


class BetaZero(BiorthError):
    """beta_j = 0, so the node lambda_j = -alpha_j/beta_j is undefined."""

    def __init__(self, j):
        self.index = j
        super().__init__(f"BetaZero({j})")


class DegenerateMu(BiorthError):
    """The mu list contains repeated entries."""


class NoExistence(BiorthError):
    """The moment determinant vanishes; no unique biorthogonal polynomial."""


class SingularBasis(BiorthError):
    """The mixed-basis polynomials are linearly dependent."""


class SingularNode(BiorthError):
    """A denominator factor alpha_l*delta_k - beta_l*gamma_k vanished."""

    def __init__(self, l, k):
        self.l = l
        self.k = k
        super().__init__(f"SingularNode(l={l}, k={k})")


class SingularPivot(BiorthError):
    """A diagonal moment value m_l(lambda_l) is zero or a pole."""

    def __init__(self, l, detail=""):
        self.l = l
        msg = f"SingularPivot(l={l})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NullSpaceDimension(BiorthError):
    """The moment matrix null space does not have dimension one."""

    def __init__(self, dim):
        self.dim = dim
        super().__init__(f"NullSpaceDimension({dim})")


class SigmaZero(BiorthError):
    """sigma0 = 0; the closed-form exponent -rho0/sigma0 is undefined."""


class KappaZero(BiorthError):
    """kappa = 0 is not an admissible power-weight scale."""


class DegenerateAB(BiorthError):
    """a_1*b_0 = a_0*b_1 forces a constant exponent nu(mu)."""


class ThetaNotIndicial(BiorthError):
    """The supplied theta is not a root of the indicial equation."""


class Resonance(BiorthError):
    """A series recurrence denominator vanished at order n."""

    def __init__(self, n):
        self.n = n
        super().__init__(f"Resonance(n={n})")


class LeadingZero(BiorthError):
    """p_s = 0: the indicial polynomial degenerates to degree below s.

    The reduced root set is still computed and attached, so callers that
    can work with fewer exponents may recover it from the exception.
    """

    def __init__(self, reduced_roots, effective_degree):
        self.reduced_roots = reduced_roots
        self.effective_degree = effective_degree
        super().__init__(
            f"LeadingZero: indicial degree drops to {effective_degree}"
        )


class NonpositiveLowerParameter(BiorthError):
    """A lower hypergeometric parameter is a nonpositive integer."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"NonpositiveLowerParameter({value})")


class InvalidLowerParameter(BiorthError):
    """eval_pFq received a nonpositive-integer lower parameter."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"InvalidLowerParameter({value})")


class Divergence(BiorthError):
    """A formally divergent pFq series started growing."""


class QuadratureFailure(BiorthError):
    """Quadrature could not certify its tolerance: the integrand
    overflowed, the evaluation budget or level cap ran out, or the tail
    beyond the outermost nodes was not negligible."""
