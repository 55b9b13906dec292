"""Command-line entry points.

Subcommands:
  run           quasistatic fracture simulation from a mesh + config file
  local-oracle  closed-form vs brute-force check of the local subproblem
  info          element / interface / DOF counts of a mesh file

Exit codes: 0 success, 1 configuration or mesh error, 2 non-convergence,
64 usage error. Failures print one machine-readable line on stderr of the
form `error: <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys

from . import __version__
from .errors import (
    CohadmError,
    ConfigError,
    ConvergenceError,
    MeshError,
    MeshParseError,
    SingularSystemError,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(kind: str, message: str, code: int) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _cmd_run(args) -> int:
    import numpy
    import scipy

    from . import admm
    from .driver import ExtrapolationPolicy, run_quasistatic
    from .fileio import RunWriter, parse_config, parse_mesh

    try:
        config = parse_config(args.config)
        mesh = parse_mesh(args.mesh)
    except (ConfigError, MeshParseError, MeshError) as exc:
        return _fail("config" if isinstance(exc, ConfigError) else "mesh", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_CONFIG)

    policy = config.policy
    if args.no_extrapolation:
        policy = ExtrapolationPolicy(
            enabled=False, quality_threshold=policy.quality_threshold
        )
    out_dir = args.out if args.out is not None else config.output.directory

    try:
        writer = RunWriter(out_dir, per_step_fields=config.output.per_step_fields)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_CONFIG)

    try:
        with open(f"{out_dir}/seed.log", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"cohadm {__version__}\n")
            fh.write(f"numpy {numpy.__version__}\n")
            fh.write(f"scipy {scipy.__version__}\n")
            fh.write(f"mesh sha256 {_file_digest(args.mesh)}\n")
            fh.write(f"config sha256 {_file_digest(args.config)}\n")
            fh.write(f"admm relaxation {admm.RELAXATION}\n")
            fh.write(f"admm anderson_window {admm.ANDERSON_WINDOW}\n")
        record = run_quasistatic(
            mesh,
            config.material,
            config.cohesive,
            config.schedule,
            config.admm,
            policy,
            setup_sink=writer.bind,
            step_sink=writer.on_step,
            iteration_sink=writer.on_iteration,
        )
        writer.finalize(record)
    except ConvergenceError as exc:
        return _fail("convergence", str(exc), EXIT_NONCONVERGED)
    except (ConfigError, SingularSystemError, MeshError) as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_CONFIG)
    finally:
        writer.close()
    print(
        f"run complete: {config.schedule.n_steps} steps, "
        f"{record.total_iterations} iterations, "
        f"peak stress {record.peak_stress:.6g}, outputs in {out_dir}"
    )
    return EXIT_OK


def _cmd_local_oracle(args) -> int:
    from .oracle import run_oracle

    report = run_oracle(args.samples, args.seed)
    print(
        f"local-oracle: samples={report.samples} "
        f"max_gap={report.max_gap:.6e} mean_gap={report.mean_gap:.6e} "
        "(objective gap, nondimensional)"
    )
    return EXIT_OK


def _cmd_info(args) -> int:
    from .fileio import parse_mesh
    from .mesh import break_mesh

    try:
        mesh = parse_mesh(args.mesh)
        broken = break_mesh(mesh)
    except (MeshParseError, MeshError) as exc:
        return _fail("mesh", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_CONFIG)
    print(
        f"{args.mesh}: {broken.n_triangles} elements, "
        f"{len(broken.interfaces)} interfaces, {broken.n_dof} DOFs"
    )
    for name, ids in mesh.boundary_sets.items():
        print(f"  set {name}: {len(ids)} nodes")
    return EXIT_OK


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="cohadm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a quasistatic fracture simulation")
    run.add_argument("--mesh", required=True, help="mesh file path")
    run.add_argument("--config", required=True, help="YAML config path")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument(
        "--no-extrapolation", action="store_true",
        help="disable extrapolated warm starts",
    )
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser(
        "local-oracle",
        help="compare the closed-form local solver against brute force",
    )
    oracle.add_argument("--samples", type=positive_int, default=1000)
    oracle.add_argument("--seed", type=int, default=0)
    oracle.set_defaults(func=_cmd_local_oracle)

    info = sub.add_parser("info", help="print mesh statistics")
    info.add_argument("--mesh", required=True, help="mesh file path")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except CohadmError as exc:  # uncategorized package error
        return _fail("internal", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
