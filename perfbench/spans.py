"""In-memory spans around the public functions at each module boundary.

A span is (name, start, end, parent index). The wrappers patch the name
the caller looks up: `cohadm.driver` imports `break_mesh`,
`build_jump_operator` and `assemble_stiffness` by name, and `cohadm.admm`
does the same for `factorize_system`, `element_dissection_order`,
`multiplier_update`, `solve_local_batch` and `reaction_force`, so those
module attributes are replaced rather than the defining ones.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every layer boundary of the run path."""
        from cohadm import admm, driver, fileio

        for attr in ("parse_config", "parse_mesh"):
            self.patch(fileio, attr, f"fileio.{attr}")
        for attr in ("on_iteration", "on_step", "finalize"):
            self.patch(fileio.RunWriter, attr, f"fileio.RunWriter.{attr}")
        self.patch(driver, "break_mesh", "mesh.break_mesh")
        self.patch(driver, "build_jump_operator", "mesh.build_jump_operator")
        self.patch(driver, "assemble_stiffness", "elasticity.assemble_stiffness")
        self.patch(driver, "run_quasistatic", "driver.run_quasistatic")
        self.patch(admm, "element_dissection_order", "admm.element_dissection_order")
        self.patch(admm, "factorize_system", "admm.factorize_system")
        self.patch(admm, "multiplier_update", "admm.multiplier_update")
        self.patch(admm, "solve_local_batch", "cohesive.solve_local_batch")
        self.patch(admm, "reaction_force", "elasticity.reaction_force")
        self.patch(admm.Factorization, "solve", "admm.Factorization.solve")
        for attr in ("u_update", "delta_update", "check_convergence", "run_step"):
            self.patch(admm.AdmmSolver, attr, f"admm.AdmmSolver.{attr}")

    def totals(self) -> dict:
        """Per span name: call count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
