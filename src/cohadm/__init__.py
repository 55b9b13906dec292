"""Quasistatic cohesive fracture by ADMM energy minimization."""

__version__ = "0.1.0"

from .admm import AdmmConfig, AdmmSolver, SolverState, factorize_system
from .cohesive import (
    CohesiveParams,
    LocalSolveContext,
    commit_history,
    phi_c,
    solve_local,
    solve_local_batch,
    traction,
)
from .driver import (
    ExtrapolationPolicy,
    LoadSchedule,
    RunRecord,
    extrapolate,
    extrapolation_quality,
    run_quasistatic,
)
from .elasticity import Material, assemble_stiffness, elastic_energy, reaction_force
from .mesh import BrokenMesh, InputMesh, JumpOperator, break_mesh, build_jump_operator

__all__ = [
    "AdmmConfig",
    "AdmmSolver",
    "BrokenMesh",
    "CohesiveParams",
    "ExtrapolationPolicy",
    "InputMesh",
    "JumpOperator",
    "LoadSchedule",
    "LocalSolveContext",
    "Material",
    "RunRecord",
    "SolverState",
    "assemble_stiffness",
    "break_mesh",
    "build_jump_operator",
    "commit_history",
    "elastic_energy",
    "extrapolate",
    "extrapolation_quality",
    "factorize_system",
    "phi_c",
    "reaction_force",
    "run_quasistatic",
    "solve_local",
    "solve_local_batch",
    "traction",
]
