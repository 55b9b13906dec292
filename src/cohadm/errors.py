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


class StagnationError(ConvergenceError):
    """A load step's relative residual r = max(primal / c_primal,
    dual / c_dual) rose far above the least value it had reached within
    the step (``how`` is "diverged"), or set no new least value for too
    many iterations ("stalled"). ``best`` is that least r, reached at
    ``best_iteration``."""

    def __init__(self, step, iterations, primal, dual, best, best_iteration, how):
        self.best = best
        self.best_iteration = best_iteration
        self.how = how
        super().__init__(step, iterations, primal, dual)

    def __str__(self):
        return (
            f"step {self.step} {self.how} at iteration {self.iterations} "
            f"(primal={self.primal:.3e}, dual={self.dual:.3e}); its least "
            f"relative residual was {self.best:.3e}, at iteration "
            f"{self.best_iteration}"
        )
