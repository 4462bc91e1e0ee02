"""Command line entry point.

Four commands, all driven by a JSON config (see :mod:`ermakov.config`):

    ermakov simulate  --config run.json [--out DIR] [--seed N]
    ermakov verify    --config run.json --which jacobi|flow|casimir|consistency|determinant
    ermakov verify    --config run.json --which jacobi --tamper-j34
    ermakov orbit     --config run.json
    ermakov linearize --config run.json

Exit codes: 0 pass, 1 numerical or tolerance failure, 2 configuration
error or an ``--out`` that cannot be written.  Outputs are files with LF
endings and no volatile fields, so identical config plus seed reproduces
byte-identical reports: CSV with a header row and floats as ``%.17g``;
JSON as
``json.dumps(doc, sort_keys=True, indent=2)`` writes it, floats as
``float.__repr__`` and non-finite ones as ``NaN``/``Infinity``.

This module holds ``simulate``, the report writers and the parser, whose
``--which`` choices are :data:`ermakov.config.SWEEPS`.  The other commands
live in :mod:`ermakov.verify` (one table of sweeps, each set up once to
give one state's residual on one matrix field, and one loop over the
seeded draw) and :mod:`ermakov.orbit` (``orbit``, with its grid, and
``linearize``), which ``main`` imports only for the command it runs,
with ``poisson`` or ``linearize``; ``simulate`` loads
:mod:`ermakov.integrate` when it runs, and ``IntegrationError`` comes
from :mod:`ermakov.systems`.  Every command runs on Python floats and
the standard library alone, ``verify``'s seeded draw included: there is
no runtime dependency.  Every command returns its exit code, its verdict
line and its reports, by file name; ``main`` writes them, so no command
module imports this one.  A report set is written whole or not at all:
each report goes to a temporary name inside ``--out`` and is renamed
into place once all are written.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import invariants as inv
from .config import SWEEPS, ConfigError, RunConfig, _seed, load_config
from .systems import IntegrationError, nan_max

__all__ = ["main"]


def _json(obj, pad="\n"):
    """obj as ``json.dumps(obj, sort_keys=True, indent=2)`` spells it, its
    inner lines indented one step past pad.  Leaves go through the stdlib's
    C encoder, and so does each table (see ``_table``) in one call.  Keys
    must be str."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError(f"report keys must be str: {list(obj)!r}")
        items = [inner + json.dumps(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _table(obj, inner) or ",".join(inner + _json(x, inner) for x in obj)
        return "[" + body + pad + "]"
    return json.dumps(obj)


def _table(rows, pad):
    """The rows of a table, flat dicts on one set of str keys that hold only
    floats (such as ``per_state``), at indent pad and joined by commas; None
    for any other list.  The floats are encoded in one call and filled into
    a row template."""
    first = rows[0]
    if type(first) is not dict or set(map(type, first)) != {str}:
        return None
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(first)}:
        return None
    keys = sorted(first)
    try:
        flat = [row[k] for row in rows for k in keys]
    except KeyError:  # unequal key sets
        return None
    if set(map(type, flat)) != {float}:
        return None
    entries = ",".join(pad + "  " + json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
    row = pad + "{" + entries + pad + "}"
    return ",".join([row] * len(rows)) % tuple(json.dumps(flat)[1:-1].split(", "))


def _write_json(path: Path, obj: dict):
    text = _json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        line = ",".join(["%.17g"] * len(header)) + "\n"
        for row in rows:
            fh.write(line % tuple(row))


def _write_reports(out_dir: Path, base: dict, reports: dict):
    """Each report into out_dir, all of them or none: each is written under
    a temporary name there, and only once all are written are they renamed
    into place.  A target that is a directory fails the set before any
    write, and a failed set leaves no temporary file behind."""
    for name in reports:
        if (out_dir / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out_dir / name))
    temps = {}
    try:
        for name, report in reports.items():
            temp = temps[name] = out_dir / f".{name}.{os.getpid()}.tmp"
            if isinstance(report, dict):
                _write_json(temp, {**base, **report})
            else:
                _write_csv(temp, *report)
        for name, temp in temps.items():
            os.replace(temp, out_dir / name)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        raise


def cmd_simulate(cfg: RunConfig) -> tuple:
    from .integrate import drift

    spec = cfg.spec
    traj = cfg.trajectory()
    conventions = {"I": inv.I_CONVENTIONS}
    quantities = {"I": lambda s, t: inv.ermakov_invariant(spec.g, s)}
    header = ["t", "r", "theta", "u", "v", "I"]
    if spec.kind == "pseudo_potential":
        potential = spec.coupling
        conventions["C2"] = inv.c2_conventions(potential)
        quantities["C1"] = lambda s, t: inv.casimir_C1(potential, s, t, cfg.floors)
        quantities["C2"] = lambda s, t: inv.casimir_C2(potential, s, t, floors=cfg.floors)
        header += ["C1", "C2"]

    report = drift(traj, quantities)
    columns = [report[name].values for name in header[5:]]
    rows = ([t, *y, *values] for t, y, *values in zip(traj.ts, traj.ys, *columns))
    doc = {
        "command": "simulate",
        "method": traj.method,
        "status": traj.status,
        "stop_reason": traj.stop_reason,
        "t_final": traj.ts[-1],
        "n_samples": len(traj),
        "drift": {
            name: {"initial": q.initial, "drift": q.drift, "t_at_max": q.t_at_max}
            for name, q in report.items()
        },
        "conventions": conventions,
    }
    max_drift = nan_max(q.drift for q in report.values())
    line = f"simulate: {traj.status} at t={traj.ts[-1]:.6g}, max drift {max_drift:.3e}"
    return 0, line, {"trajectory.csv": (header, rows), "drift.json": doc}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and kept."""
    parser = argparse.ArgumentParser(
        prog="ermakov",
        description="Simulate, verify and linearize Ermakov systems in "
        "their generalized Hamiltonian form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "integrate the flow, write trajectory.csv and drift.json",
        "verify": "run a residual sweep over sampled states",
        "orbit": "compare a simulated spiral against its closed-form orbit",
        "linearize": "map to the orbit equation and test linearity",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override verify.seed")
        if name == "verify":
            cmd.add_argument("--which", required=True, choices=SWEEPS)
            cmd.add_argument(
                "--tamper-j34",
                action="store_true",
                help="debug, jacobi only: inject a J34 perturbation; the sweep must fail",
            )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        seed = cfg.verify.seed if args.seed is None else _seed(args.seed, "--seed")
        if args.command == "simulate":
            code, line, reports = cmd_simulate(cfg)
        elif args.command == "verify":
            from .verify import cmd_verify

            code, line, reports = cmd_verify(cfg, seed, args.which, args.tamper_j34)
        else:
            from .orbit import cmd_linearize, cmd_orbit

            code, line, reports = (cmd_orbit if args.command == "orbit" else cmd_linearize)(cfg)
        base = {"config_sha256": cfg.sha256, "seed": seed, "conventions": {}}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_reports(out_dir, base, reports)
        print(line)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # load_config wraps its own; only --out is left
        print(f"error: cannot write reports to {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
