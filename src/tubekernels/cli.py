"""Command-line surface: eval, sweep, fit, predict, localize, hormander.

Each command reads the settings ``_COMMANDS`` lists for it; its flags and
its ``--dry-run`` plan come from that list.  Settings resolve as defaults <-
the command's own defaults <- config file <- command-line flags, and every
run is deterministic given the resolved settings (reruns are byte-identical).
The config file is INI-style with sections [domain], [quadrature],
[experiment], [output]; unknown sections or keys are errors, and keys the
command does not read are ignored.  Each command makes every check of its
settings before its first integral, and ``--dry-run`` stops right after
them, so it rejects exactly what a run would reject.

CSV output follows the fixed schema
``kind,m,tau,rho,x,y,log_value,value,err_estimate,evaluations,status``
with per-point failures recorded in the status column and empty value
columns.  ``localize`` writes the difference K1 - K2 of its two domains'
Bergman kernels: ``value`` is signed, ``log_value`` is log |K1 - K2|,
``err_estimate`` the larger of the two estimates, and ``evaluations`` is
empty.  ``hormander`` writes the normal step eps in the ``rho`` column;
its ``tau`` is the point's blow-up angle, whose rho is ``y``.  Exit codes:
0 success, 1 headline assertion failed, 2 domain or config error,
3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .asymptotics import predict
from .blowup import BlowupChart, _check_tau, to_polar
from .domain_model import (
    BoundaryRelativePoint,
    DefiningFunction,
    DomainError,
    blended_linear_domain,
    damp_tails,
    model_domain,
    mollify,
    rational_domain,
    table_domain,
)
from .experiments import (
    _FIT_MIN_POINTS,
    ApproachPath,
    _hormander_limit,
    _normal_steps,
    _resolve_window,
    blowup_exponent,
    default_rho_grid,
    evaluate_path,
    fit_exponent,
    localization_experiment,
)
from .quadrature import QuadratureConfig, QuadratureError, direct_pair

__all__ = ["main", "RunConfig", "parse_domain"]

CSV_HEADER = "kind,m,tau,rho,x,y,log_value,value,err_estimate,evaluations,status"

# config section -> key -> (type, default); a flag of the same name overrides
_SETTINGS = {
    "domain": {"spec": (str, "model:m=2,g0=1")},
    "quadrature": {"rel_tol": (float, 1e-8)},
    "experiment": {
        "kind": (str, "bergman"),
        "tau": (float, 1.0),
        "x": (float, 0.0),
        "y": (float, 1.0),
        "x0": (float, 1.0),
        "delta": (float, 0.5),
        "rho_start": (float, 1.0),
        "rho_ratio": (float, 0.5),
        "n_points": (int, 15),
        "window": (int, 6),
        "fit_tol": (float, 0.01),
        "ratio_tol": (float, 0.05),
        "bounded_floor": (float, -0.1),
    },
    "output": {"csv": (str, None), "plot_script": (str, None)},
}
_SECTION = {key: section for section, keys in _SETTINGS.items() for key in keys}
_KINDS = ("bergman", "szego")


@dataclass
class RunConfig:
    """Resolved values of the settings one command reads."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(rel_tol=self.values["rel_tol"])

    def path(self) -> ApproachPath:
        """The fixed-tau path of ``n_points`` geometric rho values."""
        n = self.values["n_points"]
        if n < 2:
            raise DomainError("n_points must be at least 2")
        r = self.values["rho_ratio"]
        if not (0 < r < 1):
            raise DomainError("rho_ratio must lie in (0, 1)")
        grid = default_rho_grid(n, self.values["rho_start"], r)
        return ApproachPath("fixed_tau", {"tau": self.values["tau"]}, grid)


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DomainError(f"config file not found: {path}")
    out = {}
    for section in parser.sections():
        if section not in _SETTINGS:
            raise DomainError(f"unknown config section [{section}]")
        allowed = _SETTINGS[section]
        for key, raw in parser.items(section):
            if key not in allowed:
                raise DomainError(f"unknown key {key!r} in section [{section}]")
            caster = allowed[key][0]
            try:
                out[key] = caster(raw)
            except ValueError as exc:
                raise DomainError(f"bad value for {section}.{key}: {raw!r}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The settings ``args.command`` reads, resolved in precedence order."""
    _, _, reads, own = _COMMANDS[args.command]
    values = {key: _SETTINGS[_SECTION[key]][key][1] for key in ["spec", *reads.split()]}
    values.update(own)
    if args.config:
        file_vals = _load_config_file(args.config)
        values.update((key, v) for key, v in file_vals.items() if key in values)
    for key in values:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if values.get("kind", "bergman") not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}, got {values['kind']!r}")
    if values.get("plot_script") is not None and values.get("csv") is None:
        raise DomainError("--plot-script needs --csv (the script reads the CSV)")
    cfg = RunConfig(values)
    if "rel_tol" in values:
        cfg.quadrature()  # so that --dry-run rejects what a run would reject
    if "window" in values:
        _resolve_window(values["n_points"], f"trailing:{values['window']}")
    return cfg


# ---------------------------------------------------------------------------
# domain specification strings
# ---------------------------------------------------------------------------


def _load_table(path: str, m: int) -> DefiningFunction:
    """The table domain of a CSV file with columns x, g and gprime."""
    try:
        with open(path, newline="") as fh:
            # restval: a short row reads as empty cells, which float refuses
            rows = [[float(row[key]) for key in ("x", "g", "gprime")]
                    for row in csv.DictReader(fh, restval="")]
    except KeyError as exc:
        raise DomainError(f"table file needs columns x,g,gprime: {path}") from exc
    except (OSError, ValueError, csv.Error) as exc:  # no file, a bad cell or a short row
        raise DomainError(f"cannot read table file {path}: {exc}") from exc
    xs, gs, gps = np.reshape(rows, (-1, 3)).T
    return table_domain(xs, gs, gps, m, label=f"table({path},m={m})")


# spec name -> (constructor, type of each parameter); a parameter is required
# when the constructor's signature gives it no default
_DOMAINS = {
    "model": (model_domain, {"m": int, "g0": float}),
    "rational": (rational_domain, {"m": int}),
    "blended-linear": (blended_linear_domain, {"m": int, "slope": float}),
    "table": (_load_table, {"path": str, "m": int}),
}
# a modifier's constructor takes the domain it modifies first
_MODIFIERS = {
    "mollify": (mollify, {"delta": float}),
    "damp": (damp_tails, {"radius": float}),
}


def _build(what: str, table: dict, piece: str, *parent):
    """The object one spec piece ``name:key=val,...`` names in ``table``."""
    name, _, argstr = piece.partition(":")
    if name not in table:
        raise DomainError(f"unknown {what} {name!r}")
    make, types = table[name]
    kwargs = {}
    for item in argstr.split(",") if argstr else ():
        key, sep, raw = (part.strip() for part in item.partition("="))
        if not sep:
            raise DomainError(f"{what} {name!r}: expected key=value, got {item!r}")
        if key not in types:
            raise DomainError(f"{what} {name!r}: unknown parameter {key!r}")
        try:
            kwargs[key] = types[key](raw)
        except ValueError:
            raise DomainError(f"{what} {name!r}: bad value {raw!r} for {key!r}") from None
    params = inspect.signature(make).parameters
    for key in types:
        if key not in kwargs and params[key].default is inspect.Parameter.empty:
            raise DomainError(f"{what} {name!r} needs parameter {key!r}")
    return make(*parent, **kwargs)


def parse_domain(spec: str) -> DefiningFunction:
    """Build a domain from a spec string.

    Grammar: ``name:key=val,...`` optionally followed by ``|modifier:...``
    pieces.  ``_DOMAINS`` lists the names with their parameters (model,
    rational, blended-linear, table) and ``_MODIFIERS`` the modifiers
    (mollify, damp); a parameter without a default in its constructor is
    required.  Example: ``model:m=2,g0=1|mollify:delta=0.1``.
    """
    first, *mods = spec.split("|")
    f = _build("domain", _DOMAINS, first)
    for mod in mods:
        f = _build("modifier", _MODIFIERS, mod, f)
    return f


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # normalizes numpy scalars
    return str(v)


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Log-log view of a kernel sweep CSV (generated; edit freely)."""
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = {csv_path!r}
series = {{}}
with open(path) as fh:
    for row in csv.DictReader(fh):
        if row["status"] != "ok" or not row["value"]:
            continue
        series.setdefault(row["kind"], ([], []))
        series[row["kind"]][0].append(float(row["rho"]))
        series[row["kind"]][1].append(abs(float(row["value"])))

fig, ax = plt.subplots(figsize=(5.5, 4.2))
for kind, (rho, val) in sorted(series.items()):
    ax.loglog(rho, val, "o-", label=kind)
ax.set_xlabel("rho")
ax.set_ylabel("value")
ax.invert_xaxis()
ax.legend()
fig.tight_layout()
out = path.rsplit(".", 1)[0] + ".png"
fig.savefig(out, dpi=150)
print("wrote", out)
'''


def _emit_csv(rows: list[list], cfg: RunConfig) -> None:
    """The rows to ``cfg.csv`` (stdout when unset), then the plot script if set."""
    path = cfg.csv
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    if cfg.plot_script is not None:
        with open(cfg.plot_script, "w") as fh:
            fh.write(_PLOT_TEMPLATE.format(csv_path=path))


def _kernel_row(kind, f, tau, rho, x, y, kv, status) -> list:
    if kv is None:
        return [kind, f.m, tau, rho, x, y, None, None, None, None, status]
    return [
        kind, f.m, tau, rho, x, y,
        kv.log_value, kv.value, kv.err_estimate, kv.evaluations, status,
    ]


# settings a --dry-run plan shows, in this order, when the command reads them;
# the quadrature limits, the rho spacing and the pass/fail tolerances stay out
_PLAN_KEYS = ("kind", "rel_tol", "csv", "plot_script", "x", "y", "x0", "delta", "tau",
              "n_points", "window")


def _plan(cfg: RunConfig, command: str, f: DefiningFunction) -> int:
    shown = " ".join(
        f"{'points' if key == 'n_points' else key}={_fmt(cfg.values[key]) or '-'}"
        for key in _PLAN_KEYS
        if key in cfg.values
    )
    print(f"plan: command={command} domain={f.label} m={f.m} {shown}")
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(cfg: RunConfig, f, chart, dry_run: bool) -> int:
    p = BoundaryRelativePoint(cfg.x, cfg.y)
    q = to_polar(f, chart, p)
    if dry_run:
        return _plan(cfg, "eval", f)
    K, S = direct_pair(f, p, cfg.quadrature())
    kv = K if cfg.kind == "bergman" else S
    print(
        f"kind={cfg.kind} m={f.m} x={p.x!r} y={p.y!r} tau={q.tau!r} rho={q.rho!r} "
        f"log_value={kv.log_value!r} value={kv.value!r} "
        f"err_estimate={kv.err_estimate!r} evaluations={kv.evaluations}"
    )
    if cfg.csv is not None:
        _emit_csv([_kernel_row(cfg.kind, f, q.tau, q.rho, p.x, p.y, kv, "ok")], cfg)
    return 0


def _sweep_rows(cfg: RunConfig, f, path, chart) -> tuple[list, list]:
    results = evaluate_path(f, path, cfg.quadrature(), chart)
    rows = [
        _kernel_row(cfg.kind, f, cfg.tau, r["rho"], r["x"], r["y"], r[cfg.kind], r["status"])
        for r in results
    ]
    return rows, results


def cmd_sweep(cfg: RunConfig, f, chart, dry_run: bool) -> int:
    path = cfg.path()
    if dry_run:
        return _plan(cfg, "sweep", f)
    rows, results = _sweep_rows(cfg, f, path, chart)
    _emit_csv(rows, cfg)
    n_ok = sum(1 for r in results if r["status"] == "ok")
    if cfg.csv is not None:
        print(f"sweep: {n_ok}/{len(results)} points converged -> {cfg.csv}")
    if n_ok == 0:
        raise QuadratureError("no sweep point converged")
    return 0


def cmd_fit(cfg: RunConfig, f, chart, dry_run: bool) -> int:
    path = cfg.path()
    if dry_run:
        return _plan(cfg, "fit", f)
    rows, results = _sweep_rows(cfg, f, path, chart)
    if cfg.csv is not None:
        _emit_csv(rows, cfg)
    good = [(r["rho"], r[cfg.kind]) for r in results if r["status"] == "ok"]
    if len(good) < max(cfg.window, _FIT_MIN_POINTS):
        raise QuadratureError(
            f"only {len(good)} of {len(results)} points converged; cannot fit"
        )
    rhos = np.array([g[0] for g in good])
    vals = [g[1] for g in good]
    fr = fit_exponent(vals, rhos, f"trailing:{cfg.window}")
    expected = blowup_exponent(f.m, cfg.kind)
    span = abs(math.log(rhos[fr.window[0]] / rhos[fr.window[1] - 1]))
    slope_err = 2.0 * fr.max_residual / span
    ok = abs(fr.slope + float(expected)) <= cfg.fit_tol * float(expected)
    print(
        f"slope={fr.slope:.3f}±{slope_err:.3f}, expected=-{expected}, "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def cmd_predict(cfg: RunConfig, f, chart, dry_run: bool) -> int:
    _check_tau(cfg.tau)
    if dry_run:
        return _plan(cfg, "predict", f)
    pred = predict(f, cfg.kind, cfg.tau, chart)
    print(f"exponent={pred.exponent}, c0={pred.c0_tau:.6e}")
    print(
        f"kind={pred.kind} tau={pred.tau!r} log_term_expected={pred.log_term_expected} "
        f"chart={pred.chart_id}"
    )
    return 0


def cmd_localize(cfg: RunConfig, f1, chart, dry_run: bool) -> int:
    if cfg.kind != "bergman":
        raise DomainError("localize compares Bergman kernels; --kind szego is not supported")
    f2 = damp_tails(f1, cfg.delta)
    path = cfg.path()
    if dry_run:
        return _plan(cfg, "localize", f1)
    report = localization_experiment(
        f1, f2, path, cfg.quadrature(), chart=chart, agreement_radius=cfg.delta,
        slope_rel_tol=cfg.fit_tol, bounded_slope_floor=cfg.bounded_floor,
        window_policy=f"trailing:{cfg.window}",
    )
    if cfg.csv is not None:
        rows = []
        for p in report["points"]:
            if p["status"] == "ok":
                rows.append([
                    "bergman", f1.m, cfg.tau, p["rho"], p["x"], p["y"],
                    p["log_abs_diff"], p["diff"], p["err_estimate"], None, "ok",
                ])
            else:
                rows.append(["bergman", f1.m, cfg.tau, p["rho"], p["x"], p["y"],
                             None, None, None, None, p["status"]])
        _emit_csv(rows, cfg)
    bounded = report.get("bounded", False)
    print(f"difference bounded: {'PASS' if bounded else 'FAIL'}")
    if report.get("fit_diff"):
        print(f"difference slope={report['fit_diff']['slope']:.4f} "
              f"(floor {cfg.bounded_floor!r})")
    elif report.get("diff_below_noise"):
        print("difference below quadrature noise on the fit window")
    if "fit_k1" in report:
        print(f"kernel slopes: f1={report['fit_k1']['slope']:.4f} "
              f"f2={report['fit_k2']['slope']:.4f} "
              f"(expected -{blowup_exponent(f1.m, 'bergman')})")
    return 0 if report.get("passed") else 1


def cmd_hormander(cfg: RunConfig, f, chart, dry_run: bool) -> int:
    _normal_steps(f, cfg.x0)
    if dry_run:
        return _plan(cfg, "hormander", f)
    series, measured, predicted = _hormander_limit(f, cfg.x0, cfg.quadrature())
    ratio = measured / predicted
    if cfg.csv is not None:
        rows = []
        for rec in series:
            q = to_polar(f, chart, BoundaryRelativePoint(rec["x"], rec["y"]))
            rows.append(_kernel_row("bergman", f, q.tau, rec["eps"], rec["x"], rec["y"],
                                    rec["bergman"], "ok"))
        _emit_csv(rows, cfg)
    ok = abs(ratio - 1.0) <= cfg.ratio_tol
    print(
        f"measured={measured:.6e} predicted={predicted:.6e} ratio={ratio:.6f} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_PATH = " tau rho_start rho_ratio n_points"
# settings of every command that integrates the kernels and can write a CSV
_KERNELS = " rel_tol csv plot_script"

# command -> (function, help, settings it reads besides spec, its own defaults)
_COMMANDS = {
    "eval": (cmd_eval, "kernel at one interior point", "kind x y" + _KERNELS, {}),
    "sweep": (cmd_sweep, "kernel along a fixed-tau path, CSV out",
              "kind" + _PATH + _KERNELS, {}),
    "fit": (cmd_fit, "blow-up exponent fit on a fixed-tau path",
            "kind window fit_tol" + _PATH + _KERNELS, {}),
    "predict": (cmd_predict, "expected exponent and model coefficient", "kind tau", {}),
    # resolving K1 - K2 under a rho^(-5/2) blow-up needs a tighter tolerance,
    # and a grid to 2^-10 is deep enough to flatten, still resolvable
    "localize": (cmd_localize, "kernel difference of two locally equal domains",
                 "kind delta window fit_tol bounded_floor" + _PATH + _KERNELS,
                 {"rel_tol": 1e-10, "n_points": 11}),
    "hormander": (cmd_hormander, "distance limit at a strictly pseudoconvex point",
                  "x0 ratio_tol" + _KERNELS, {}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tubekernels",
        description="Bergman and Szego kernel asymptotics on tube domains over R^2",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads, own) in _COMMANDS.items():
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--config", help="INI config file; flags override it")
        s.add_argument("--domain", dest="spec", help="domain spec, e.g. model:m=2,g0=1")
        for key in reads.split():
            caster, default = _SETTINGS[_SECTION[key]][key]
            s.add_argument(
                "--" + key.replace("_", "-"), type=caster,
                choices=_KINDS if key == "kind" else None,
                help=f"[{_SECTION[key]}] {key}, default {own.get(key, default)!r}",
            )
        s.add_argument("--dry-run", action="store_true",
                       help="validate config and print the plan; no integrals")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        f = parse_domain(cfg.spec)
        return _COMMANDS[args.command][0](cfg, f, BlowupChart(f.m), args.dry_run)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
