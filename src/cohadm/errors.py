"""Exception types shared across the package."""


class CohadmError(Exception):
    """Base class for all package-specific errors."""


class MeshError(CohadmError):
    """Invalid mesh topology or geometry (non-manifold edge, bad index, ...)."""


class MeshParseError(CohadmError):
    """Malformed mesh file. Carries the offending path and line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        self.message = message
        super().__init__(f"{self.path}:{line}: {message}")


class ConfigError(CohadmError):
    """Invalid run configuration (bad value, missing key, broken invariant)."""


class AssemblyError(CohadmError):
    """Stiffness assembly failed (degenerate element, dimension mismatch)."""


class SingularSystemError(CohadmError):
    """The reduced ADMM system matrix is singular.

    ``n_rigid_modes`` is the number of global rigid-body motions left
    unconstrained by the Dirichlet set.
    """

    def __init__(self, n_rigid_modes):
        self.n_rigid_modes = n_rigid_modes
        super().__init__(
            f"system matrix is singular: {n_rigid_modes} unconstrained "
            "global rigid mode(s); add Dirichlet constraints"
        )


class ConvergenceError(CohadmError):
    """A load step exhausted its iteration budget or its residual went non-finite."""

    def __init__(self, step, iterations, primal, dual):
        self.step = step
        self.iterations = iterations
        self.primal = primal
        self.dual = dual
        super().__init__(
            f"step {step} did not converge after {iterations} iterations "
            f"(primal={primal:.3e}, dual={dual:.3e})"
        )


class OperatorMutatedError(CohadmError):
    """K or A, which K + rho A^T A was factored from, changed during a run."""
