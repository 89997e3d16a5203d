"""Command-line front end.

Exit codes: 0 success, 2 precondition violation (structured JSON on
stderr), 3 resource cap, 64 usage. JSON reports by default; the two table
commands (torsion table, construct sweep) emit CSV natively and accept
--format json.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from .config import load_config
from .construct import build_construction, mod2k_isotropy_probe, sweep
from .errors import PreconditionError, ResourceCapError, TorsionfreeError
from .numfield import make_field
from .report import dumps_report, mpf_str
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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _bool(b: bool) -> str:
    return "true" if b else "false"


@click.group()
@click.option("--config", "config_path", default=None,
              help="Path to a JSON config file (or set TORSIONFREE_CONFIG).")
@click.pass_context
def cli(ctx, config_path):
    cfg, notes, defaulted = load_config(config_path)
    ctx.obj = {"config": cfg, "notes": notes, "defaulted": defaulted}


def _config(ctx, *reads):
    """The config, after the notes about the config file and a stderr
    warning for each constant in reads that is left at its illustrative
    default. Only commands that read a config value call this."""
    for line in ctx.obj["notes"]:
        click.echo(line, err=True)
    for name in reads:
        if name in ctx.obj["defaulted"]:
            click.echo(ctx.obj["defaulted"][name], err=True)
    return ctx.obj["config"]


# ------------------------------------------------------------------ field

@cli.group()
def field():
    """Number-field analysis."""


@field.command("analyze")
@click.argument("polyfile")
def field_analyze(polyfile):
    K = make_field(read_poly_file(polyfile))
    click.echo(dumps_report(K.to_json()), nl=False)


# ------------------------------------------------------------------ level

@cli.group()
def level():
    """Torsion-free congruence levels."""


@level.command("find")
@click.argument("polyfile")
@click.option("--dimg", type=int, required=True,
              help="dim G, the exponent of the index bound.")
@click.pass_context
def level_find(ctx, polyfile, dimg):
    cfg = _config(ctx)
    K = make_field(read_poly_file(polyfile))
    unreliable: list[int] = []
    lvl = find_congruence_level(K, dimg, scan_cap=cfg.prime_scan_cap,
                                unreliable_out=unreliable)
    report = lvl.to_json()
    report["skipped_index_divisible"] = [str(q) for q in unreliable]
    report["paper_discrepancies"] = []
    click.echo(dumps_report(report), nl=False)


# -------------------------------------------------------------------- grh

@cli.group()
def grh():
    """GRH-conditional analytics."""


@grh.command("threshold")
@click.option("--d", type=int, required=True, help="Field degree.")
@click.option("--logd", type=float, required=True,
              help="log of the field discriminant.")
@click.pass_context
def grh_threshold_cmd(ctx, d, logd):
    cfg = _config(ctx)
    rep = grh_threshold(d, logd, scan_cap=cfg.prime_scan_cap)
    report = rep.to_json()
    report["paper_discrepancies"] = []
    click.echo(dumps_report(report), nl=False)


# ------------------------------------------------------------------ bound

@cli.group()
def bound():
    """Index bounds for torsion-free subgroups."""


@bound.command("grh")
@click.option("--v", type=float, required=True, help="Covolume.")
@click.option("--dimh", type=int, required=True, help="dim H.")
@click.pass_context
def bound_grh(ctx, v, dimh):
    cfg = _config(ctx, "epsilon", "prasad_c1", "prasad_c2", "lemma_C")
    val = volume_index_bound_grh(v, dimh, cfg.epsilon, cfg.prasad_c1,
                                 cfg.prasad_c2, cfg.lemma_C)
    report = {
        "bound": mpf_str(val),
        "v": mpf_str(v),
        "dim_H": dimh,
        "constants": {
            "epsilon": mpf_str(cfg.epsilon),
            "prasad_c1": mpf_str(cfg.prasad_c1),
            "prasad_c2": mpf_str(cfg.prasad_c2),
            "lemma_C": mpf_str(cfg.lemma_C),
        },
    }
    click.echo(dumps_report(report), nl=False)


@bound.command("unconditional")
@click.option("--d", type=int, required=True, help="Field degree.")
@click.option("--dimh", type=int, required=True, help="dim H.")
def bound_unconditional(d, dimh):
    report = {
        "bound": str(unconditional_index_bound(d, dimh)),
        "d": d,
        "dim_H": dimh,
        "level": "3",
    }
    click.echo(dumps_report(report), nl=False)


# ---------------------------------------------------------------- torsion

@cli.group()
def torsion():
    """Exact torsion orders and their closed-form bounds."""


@torsion.command("table")
@click.option("--nmax", type=int, required=True)
@click.option("--d", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def torsion_table(nmax, d, fmt):
    if nmax < 1:
        raise PreconditionError("nmax must be >= 1")
    profiles = [max_torsion_order(n, d) for n in range(1, nmax + 1)]
    if fmt == "json":
        rows = []
        for prof in profiles:
            row = prof.to_json()
            row["stated_holds"] = prof.exact_max_order <= prof.paper_bound_stated
            rows.append(row)
        click.echo(dumps_report({"rows": rows}), nl=False)
        return
    header = ("n", "d", "exact_max_order", "witness_orders",
              "stated_bound", "proof_bound", "stated_holds")
    rows = [(prof.n, prof.d, prof.exact_max_order,
             "{" + ",".join(str(m) for m in prof.witness_orders) + "}",
             prof.paper_bound_stated, prof.paper_bound_proof,
             _bool(prof.exact_max_order <= prof.paper_bound_stated))
            for prof in profiles]
    click.echo(_csv_lines(header, rows), nl=False)


# -------------------------------------------------------------- construct

@cli.group(invoke_without_command=True)
@click.option("--p", type=int, default=None, help="Odd prime >= 5.")
@click.option("--probe-k", type=int, default=None,
              help="Also run the mod-2^k isotropy probe.")
@click.pass_context
def construct(ctx, p, probe_k):
    """Order-p lattice construction (or 'construct sweep')."""
    if ctx.invoked_subcommand is not None:
        return
    if p is None:
        raise click.UsageError("construct requires --p (or a subcommand)")
    cfg = _config(ctx, "belolipetsky_a", "belolipetsky_b")
    con = build_construction(p, a_const=cfg.belolipetsky_a,
                             b_const=cfg.belolipetsky_b)
    report = con.to_json()
    if probe_k is not None:
        sols = mod2k_isotropy_probe(con.c, probe_k)
        report["isotropy_probe"] = {
            "k": probe_k,
            "solution_count": len(sols),
            "solutions_sample": [[list(x), list(y), list(z)]
                                 for x, y, z in sols[:8]],
        }
    click.echo(dumps_report(report), nl=False)


@construct.command("sweep")
@click.option("--pmax", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.pass_context
def construct_sweep(ctx, pmax, fmt):
    cfg = _config(ctx, "belolipetsky_a", "belolipetsky_b")
    rows = sweep(pmax, a_const=cfg.belolipetsky_a, b_const=cfg.belolipetsky_b)
    if fmt == "json":
        out = [{"p": p, "disc": str(disc), "log_v_hat": mpf_str(lv),
                "ratio": mpf_str(r)} for p, disc, lv, r in rows]
        click.echo(dumps_report({"rows": out}), nl=False)
        return
    header = ("p", "disc", "log_v_hat", "ratio")
    csv_rows = [(p, disc, mpf_str(lv), mpf_str(r)) for p, disc, lv, r in rows]
    click.echo(_csv_lines(header, csv_rows), nl=False)


# ------------------------------------------------------------------ apply

@cli.group()
def apply():
    """Asymptotic pipelines applied at concrete scales."""


@apply.command("generators")
@click.option("--v", type=float, required=True, help="Covolume.")
@click.option("--alpha", type=float, required=True)
@click.option("--c", type=float, required=True)
@click.option("--form", "f_form", type=click.Choice(["power", "polylog"]),
              default="power", show_default=True)
def apply_generators(v, alpha, c, f_form):
    val = generator_bound_pipeline(v, alpha, c, f_form=f_form)
    report = {
        "value": mpf_str(val),
        "v": mpf_str(v),
        "alpha": mpf_str(alpha),
        "c": mpf_str(c),
        "f_form": f_form,
    }
    click.echo(dumps_report(report), nl=False)


# ------------------------------------------------------------- entrypoint

def entrypoint(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 64
    except ResourceCapError as exc:
        click.echo(json.dumps({"error": {"type": "ResourceCapError",
                                         "message": str(exc)}}), err=True)
        return 3
    except TorsionfreeError as exc:
        click.echo(json.dumps({"error": {"type": exc.__class__.__name__,
                                         "message": str(exc)}}), err=True)
        return 2


if __name__ == "__main__":
    sys.exit(entrypoint())
