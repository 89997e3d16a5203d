"""Command-line front end.

Exit codes: 0 success, 2 precondition violation (structured JSON on
stderr), 3 resource cap, 64 usage. JSON reports by default; the two table
commands (torsion table, construct sweep) emit CSV natively and accept
--format json.

The parser is the standard library's argparse, so start-up loads no
command-line framework, and the package's records are plain classes with
no generated methods. Every program module is still imported here at load;
csv only by the commands that print a table.

main runs one command for a process (python -m torsionfree.cli and the
torsionfree script): it returns entrypoint's exit code and then freezes
the collector, which moves every tracked object (about 13,700 after
construct --p 5, most of them the standard library) into the permanent
generation, so the full collections the interpreter runs while it
finalizes have nothing to scan; that saved about 7 ms of a 53 ms call on
a 2-core machine. No object of the tool has a finalizer that needs those
collections.
entrypoint is the in-process API for tests and the traced benchmark
worker: it leaves the collector alone, since a caller that goes on
running needs its later garbage collected.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import re
import sys
from itertools import islice

from .config import load_config
from .construct import build_construction, mod2k_isotropy_probe, sweep
from .errors import PreconditionError, ResourceCapError, TorsionfreeError
from .numfield import make_field
from .report import dumps_report, number_str
from .selberg import (find_congruence_level, generator_bound_pipeline,
                      grh_threshold, unconditional_index_bound,
                      volume_index_bound_grh)
from .torsion import max_torsion_order


def read_poly_file(path: str) -> tuple[int, ...]:
    """One line of comma-separated integer coefficients, lowest degree
    first; '#' starts a comment line."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise PreconditionError(f"cannot read polynomial file: {exc}")
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(data) != 1:
        raise PreconditionError(
            "polynomial file must contain exactly one data line")
    try:
        coeffs = tuple(int(tok.strip()) for tok in data[0].split(","))
    except ValueError:
        raise PreconditionError("malformed coefficient in polynomial file")
    if not coeffs:
        raise PreconditionError("empty polynomial")
    return coeffs


def _csv_lines(header, rows) -> str:
    import csv  # only the two CSV tables load it
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _bool(b: bool) -> str:
    return "true" if b else "false"


class UsageError(Exception):
    """A command line the parser or a command refuses: exit 64."""


class _HelpFormatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups,
                          "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError instead of exiting, takes
    only whole option names and no -h, and reads every number float() reads
    as a value, "-1e3" and "-inf" too."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False,
                         formatter_class=_HelpFormatter, **kwargs)
        # argparse's own pattern leaves "-1e3" and "-inf" to be option
        # names; no option here starts with a digit, inf or nan
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)",
                                                   re.IGNORECASE)
        self.add_argument("--help", action="help",
                          help="Show this message and exit.")

    def error(self, message):
        raise UsageError(message)


def _config(args, *reads):
    """The config, after the notes about the config file and a stderr
    warning for each constant in reads that is left at its illustrative
    default. Only commands that read a config value call this."""
    cfg, notes, defaulted = args.config
    for line in notes:
        print(line, file=sys.stderr)
    for name in reads:
        if name in defaulted:
            print(defaulted[name], file=sys.stderr)
    return cfg


# ------------------------------------------------------------------ field

def field_analyze(args):
    K = make_field(read_poly_file(args.polyfile))
    sys.stdout.write(dumps_report(K.to_json()))


# ------------------------------------------------------------------ level

def level_find(args):
    cfg = _config(args)
    K = make_field(read_poly_file(args.polyfile))
    lvl = find_congruence_level(K, args.dimg, scan_cap=cfg.prime_scan_cap)
    report = lvl.to_json()
    report["paper_discrepancies"] = []
    sys.stdout.write(dumps_report(report))


# -------------------------------------------------------------------- grh

def grh_threshold_cmd(args):
    _config(args)
    rep = grh_threshold(args.d, args.logd)
    report = rep.to_json()
    report["paper_discrepancies"] = []
    sys.stdout.write(dumps_report(report))


# ------------------------------------------------------------------ bound

def bound_grh(args):
    cfg = _config(args, "epsilon", "prasad_c1", "prasad_c2", "lemma_C")
    val = volume_index_bound_grh(args.v, args.dimh, cfg.epsilon,
                                 cfg.prasad_c1, cfg.prasad_c2, cfg.lemma_C)
    report = {
        "bound": number_str(val),
        "v": number_str(args.v),
        "dim_H": args.dimh,
        "constants": {
            "epsilon": number_str(cfg.epsilon),
            "prasad_c1": number_str(cfg.prasad_c1),
            "prasad_c2": number_str(cfg.prasad_c2),
            "lemma_C": number_str(cfg.lemma_C),
        },
    }
    sys.stdout.write(dumps_report(report))


def bound_unconditional(args):
    report = {
        "bound": str(unconditional_index_bound(args.d, args.dimh)),
        "d": args.d,
        "dim_H": args.dimh,
        "level": "3",
    }
    sys.stdout.write(dumps_report(report))


# ---------------------------------------------------------------- torsion

def torsion_table(args):
    if args.nmax < 1:
        raise PreconditionError("nmax must be >= 1")
    profiles = [max_torsion_order(n, args.d) for n in range(1, args.nmax + 1)]
    if args.fmt == "json":
        rows = []
        for prof in profiles:
            row = prof.to_json()
            row["stated_holds"] = prof.exact_max_order <= prof.paper_bound_stated
            rows.append(row)
        sys.stdout.write(dumps_report({"rows": rows}))
        return
    header = ("n", "d", "exact_max_order", "witness_orders",
              "stated_bound", "proof_bound", "stated_holds")
    rows = [(prof.n, prof.d, prof.exact_max_order,
             "{" + ",".join(str(m) for m in prof.witness_orders) + "}",
             prof.paper_bound_stated, prof.paper_bound_proof,
             _bool(prof.exact_max_order <= prof.paper_bound_stated))
            for prof in profiles]
    sys.stdout.write(_csv_lines(header, rows))


# -------------------------------------------------------------- construct

def construct(args):
    if args.p is None:
        raise UsageError("construct requires --p (or a subcommand)")
    cfg = _config(args, "belolipetsky_a", "belolipetsky_b")
    con = build_construction(args.p, a_const=cfg.belolipetsky_a,
                             b_const=cfg.belolipetsky_b)
    report = con.to_json()
    if args.probe_k is not None:
        sols = mod2k_isotropy_probe(con.c, args.probe_k)
        sample = list(islice(sols, 8))
        report["isotropy_probe"] = {
            "k": args.probe_k,
            "solution_count": len(sample) + sum(1 for _ in sols),
            "solutions_sample": [[list(x), list(y), list(z)]
                                 for x, y, z in sample],
        }
    sys.stdout.write(dumps_report(report))


def construct_sweep(args):
    cfg = _config(args, "belolipetsky_a", "belolipetsky_b")
    rows = sweep(args.pmax, a_const=cfg.belolipetsky_a,
                 b_const=cfg.belolipetsky_b)
    if args.fmt == "json":
        out = [{"p": p, "disc": str(disc), "log_v_hat": number_str(lv),
                "ratio": number_str(r)} for p, disc, lv, r in rows]
        sys.stdout.write(dumps_report({"rows": out}))
        return
    header = ("p", "disc", "log_v_hat", "ratio")
    csv_rows = [(p, disc, number_str(lv), number_str(r))
                for p, disc, lv, r in rows]
    sys.stdout.write(_csv_lines(header, csv_rows))


# ------------------------------------------------------------------ apply

def apply_generators(args):
    val = generator_bound_pipeline(args.v, args.alpha, args.c,
                                   f_form=args.f_form)
    report = {
        "value": number_str(val),
        "v": number_str(args.v),
        "alpha": number_str(args.alpha),
        "c": number_str(args.c),
        "f_form": args.f_form,
    }
    sys.stdout.write(dumps_report(report))


# ----------------------------------------------------------------- parser

def _command(subparsers, name: str, run, help_: str | None = None):
    cmd = subparsers.add_parser(name, help=help_, description=help_)
    cmd.set_defaults(run=run)
    return cmd


def _format_option(cmd) -> None:
    cmd.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default="csv", help="[default: csv]")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="torsionfree")
    top.add_argument("--config", dest="config_path", default=None,
                     metavar="PATH", help="Path to a JSON config file (or "
                                          "set TORSIONFREE_CONFIG).")
    commands = top.add_subparsers(metavar="COMMAND", required=True)

    def group(name: str, help_: str):
        return commands.add_parser(name, help=help_, description=help_) \
            .add_subparsers(metavar="COMMAND", required=True)

    cmd = _command(group("field", "Number-field analysis."), "analyze",
                   field_analyze)
    cmd.add_argument("polyfile")

    cmd = _command(group("level", "Torsion-free congruence levels."), "find",
                   level_find)
    cmd.add_argument("polyfile")
    cmd.add_argument("--dimg", type=int, required=True,
                     help="dim G, the exponent of the index bound.")

    cmd = _command(group("grh", "GRH-conditional analytics."), "threshold",
                   grh_threshold_cmd)
    cmd.add_argument("--d", type=int, required=True, help="Field degree.")
    cmd.add_argument("--logd", type=float, required=True,
                     help="log of the field discriminant.")

    bound = group("bound", "Index bounds for torsion-free subgroups.")
    cmd = _command(bound, "grh", bound_grh)
    cmd.add_argument("--v", type=float, required=True, help="Covolume.")
    cmd.add_argument("--dimh", type=int, required=True, help="dim H.")
    cmd = _command(bound, "unconditional", bound_unconditional)
    cmd.add_argument("--d", type=int, required=True, help="Field degree.")
    cmd.add_argument("--dimh", type=int, required=True, help="dim H.")

    cmd = _command(group("torsion", "Maximal torsion orders, exact for "
                                    "d = 1 and an upper bound for d > 1, "
                                    "and their closed-form bounds."),
                   "table", torsion_table)
    cmd.add_argument("--nmax", type=int, required=True)
    cmd.add_argument("--d", type=int, default=1, help="[default: 1]")
    _format_option(cmd)

    # construct runs on its own (--p) or through its one subcommand
    con = _command(commands, "construct", construct,
                   "Order-p lattice construction (or 'construct sweep').")
    con.add_argument("--p", type=int, default=None, help="Odd prime >= 5.")
    con.add_argument("--probe-k", type=int, default=None,
                     help="Also run the mod-2^k isotropy probe.")
    cmd = _command(con.add_subparsers(metavar="COMMAND"), "sweep",
                   construct_sweep)
    cmd.add_argument("--pmax", type=int, required=True)
    _format_option(cmd)

    cmd = _command(group("apply", "Asymptotic pipelines applied at concrete "
                                  "scales."),
                   "generators", apply_generators)
    cmd.add_argument("--v", type=float, required=True, help="Covolume.")
    cmd.add_argument("--alpha", type=float, required=True)
    cmd.add_argument("--c", type=float, required=True)
    cmd.add_argument("--form", dest="f_form", choices=("power", "polylog"),
                     default="power", help="[default: power]")
    return top


# ------------------------------------------------------------- entrypoint

def entrypoint(argv=None) -> int:
    # reports print every integer the tool holds, whatever its length; the
    # limit is lifted here, for the tool's process, not on import
    lift = getattr(sys, "set_int_max_str_digits", None)   # 3.10.7 and later
    if lift is not None:
        lift(0)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, after printing the help
            return exc.code
        args.config = load_config(args.config_path)
        args.run(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except ResourceCapError as exc:
        print(json.dumps({"error": {"type": "ResourceCapError",
                                    "message": str(exc)}}), file=sys.stderr)
        return 3
    except TorsionfreeError as exc:
        print(json.dumps({"error": {"type": exc.__class__.__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """The process entry: entrypoint(argv), then gc.freeze(), so that the
    collections at interpreter exit skip the heap; atexit, module teardown
    and the flush of stdout and stderr still run."""
    try:
        return entrypoint(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
