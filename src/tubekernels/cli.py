"""Command-line surface: eval, sweep, fit, predict, localize, hormander.

Settings resolve as defaults <- config file <- command-line flags, and every
run is deterministic given the resolved settings (reruns are byte-identical).
The config file is INI-style with sections [domain], [quadrature],
[experiment], [output]; unknown sections or keys are errors.

CSV output follows the fixed schema
``kind,m,tau,rho,x,y,log_value,value,err_estimate,evaluations,status``
with per-point failures recorded in the status column.  Exit codes:
0 success, 1 headline assertion failed, 2 domain or config error,
3 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .asymptotics import predict
from .blowup import BlowupChart, to_polar
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
    ApproachPath,
    _hormander_limit,
    blowup_exponent,
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
    "quadrature": {
        "rel_tol": (float, 1e-8),
        "max_depth": (int, 60),
        "truncation_drop": (float, 1e-16),
    },
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


@dataclass
class RunConfig:
    """Resolved settings plus the set of keys that were set explicitly."""

    values: dict
    explicit: set

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def quadrature(self, default_rel_tol: float | None = None) -> QuadratureConfig:
        rel = self.values["rel_tol"]
        if default_rel_tol is not None and "rel_tol" not in self.explicit:
            rel = default_rel_tol
        return QuadratureConfig(
            rel_tol=rel,
            max_depth=self.values["max_depth"],
            truncation_drop=self.values["truncation_drop"],
        )

    def rho_grid(self) -> np.ndarray:
        n = self.values["n_points"]
        if n < 2:
            raise DomainError("n_points must be at least 2")
        r = self.values["rho_ratio"]
        if not (0 < r < 1):
            raise DomainError("rho_ratio must lie in (0, 1)")
        return self.values["rho_start"] * r ** np.arange(n)


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
    values = {key: d for keys in _SETTINGS.values() for key, (_, d) in keys.items()}
    explicit = set()
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config)
        values.update(file_vals)
        explicit.update(file_vals)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
            explicit.add(key)
    if values.get("plot_script") is not None and values.get("csv") is None:
        raise DomainError("--plot-script needs --csv (the script reads the CSV)")
    return RunConfig(values=values, explicit=explicit)


# ---------------------------------------------------------------------------
# domain specification strings
# ---------------------------------------------------------------------------


def _parse_kv(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise DomainError(f"expected key=value, got {item!r}")
        out[key.strip()] = val.strip()
    return out


def _load_table(path: str, m: int) -> DefiningFunction:
    xs, gs, gps = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"x", "g", "gprime"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise DomainError(f"table file needs columns x,g,gprime: {path}")
        for row in reader:
            xs.append(float(row["x"]))
            gs.append(float(row["g"]))
            gps.append(float(row["gprime"]))
    return table_domain(xs, gs, gps, m, label=f"table({path},m={m})")


def parse_domain(spec: str) -> DefiningFunction:
    """Build a domain from a spec string.

    Grammar: ``name:key=val,...`` optionally followed by ``|modifier:...``
    pieces.  Names: model (m, g0), rational (m), blended-linear (m, slope),
    table (path, m).  Modifiers: mollify (delta), damp (radius).  Example:
    ``model:m=2,g0=1|mollify:delta=0.1``.
    """
    parts = spec.split("|")
    name, _, argstr = parts[0].partition(":")
    kv = _parse_kv(argstr)
    try:
        if name == "model":
            f = model_domain(int(kv.pop("m")), float(kv.pop("g0", "1")))
        elif name == "rational":
            f = rational_domain(int(kv.pop("m")))
        elif name == "blended-linear":
            f = blended_linear_domain(int(kv.pop("m")), float(kv.pop("slope", "1")))
        elif name == "table":
            f = _load_table(kv.pop("path"), int(kv.pop("m")))
        else:
            raise DomainError(f"unknown domain {name!r}")
    except KeyError as exc:
        raise DomainError(f"domain {name!r} needs parameter {exc.args[0]!r}") from exc
    if kv:
        raise DomainError(f"unknown domain parameters {sorted(kv)} for {name!r}")
    for mod in parts[1:]:
        mname, _, margs = mod.partition(":")
        mkv = _parse_kv(margs)
        try:
            if mname == "mollify":
                f = mollify(f, float(mkv.pop("delta")))
            elif mname == "damp":
                f = damp_tails(f, float(mkv.pop("radius")))
            else:
                raise DomainError(f"unknown domain modifier {mname!r}")
        except KeyError as exc:
            raise DomainError(f"modifier {mname!r} needs {exc.args[0]!r}") from exc
        if mkv:
            raise DomainError(f"unknown modifier parameters {sorted(mkv)} for {mname!r}")
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


def _emit_csv(rows: list[list], path: str | None) -> None:
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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


def _emit_plot_script(cfg: RunConfig) -> None:
    if cfg.plot_script is None:
        return
    with open(cfg.plot_script, "w") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv_path=cfg.csv))


def _kernel_row(kind, f, tau, rho, x, y, kv, status) -> list:
    if kv is None:
        return [kind, f.m, tau, rho, x, y, None, None, None, None, status]
    return [
        kind, f.m, tau, rho, x, y,
        kv.log_value, kv.value, kv.err_estimate, kv.evaluations, status,
    ]


def _plan(cfg: RunConfig, command: str, f: DefiningFunction, extra: str = "") -> None:
    print(
        f"plan: command={command} domain={f.label} m={f.m} kind={cfg.kind} "
        f"rel_tol={cfg.values['rel_tol']!r} "
        f"csv={cfg.csv or '-'} plot_script={cfg.plot_script or '-'}"
        + (f" {extra}" if extra else "")
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(cfg: RunConfig, dry_run: bool) -> int:
    f = parse_domain(cfg.spec)
    chart = BlowupChart(f.m)
    p = BoundaryRelativePoint(cfg.x, cfg.y)
    if dry_run:
        _plan(cfg, "eval", f, extra=f"x={cfg.x!r} y={cfg.y!r}")
        return 0
    q = to_polar(f, chart, p)
    K, S = direct_pair(f, p, cfg.quadrature())
    kv = K if cfg.kind == "bergman" else S
    print(
        f"kind={cfg.kind} m={f.m} x={p.x!r} y={p.y!r} tau={q.tau!r} rho={q.rho!r} "
        f"log_value={kv.log_value!r} value={kv.value!r} "
        f"err_estimate={kv.err_estimate!r} evaluations={kv.evaluations}"
    )
    if cfg.csv is not None:
        _emit_csv([_kernel_row(cfg.kind, f, q.tau, q.rho, p.x, p.y, kv, "ok")], cfg.csv)
        _emit_plot_script(cfg)
    return 0


def _sweep_rows(cfg: RunConfig, f, chart, qcfg) -> tuple[list, list]:
    path = ApproachPath("fixed_tau", {"tau": cfg.tau}, cfg.rho_grid())
    results = evaluate_path(f, path, qcfg, chart)
    rows = [
        _kernel_row(cfg.kind, f, cfg.tau, r["rho"], r["x"], r["y"], r[cfg.kind], r["status"])
        for r in results
    ]
    return rows, results


def cmd_sweep(cfg: RunConfig, dry_run: bool) -> int:
    f = parse_domain(cfg.spec)
    chart = BlowupChart(f.m)
    if dry_run:
        _plan(cfg, "sweep", f,
              extra=f"tau={cfg.tau!r} points={cfg.values['n_points']}")
        return 0
    rows, results = _sweep_rows(cfg, f, chart, cfg.quadrature())
    _emit_csv(rows, cfg.csv)
    _emit_plot_script(cfg)
    n_ok = sum(1 for r in results if r["status"] == "ok")
    if cfg.csv is not None:
        print(f"sweep: {n_ok}/{len(results)} points converged -> {cfg.csv}")
    if n_ok == 0:
        raise QuadratureError("no sweep point converged")
    return 0


def cmd_fit(cfg: RunConfig, dry_run: bool) -> int:
    f = parse_domain(cfg.spec)
    chart = BlowupChart(f.m)
    if dry_run:
        _plan(cfg, "fit", f,
              extra=f"tau={cfg.tau!r} points={cfg.values['n_points']} window={cfg.window}")
        return 0
    rows, results = _sweep_rows(cfg, f, chart, cfg.quadrature())
    if cfg.csv is not None:
        _emit_csv(rows, cfg.csv)
        _emit_plot_script(cfg)
    good = [(r["rho"], r[cfg.kind]) for r in results if r["status"] == "ok"]
    if len(good) < max(cfg.window, 6):
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


def cmd_predict(cfg: RunConfig, dry_run: bool) -> int:
    f = parse_domain(cfg.spec)
    chart = BlowupChart(f.m)
    if dry_run:
        _plan(cfg, "predict", f, extra=f"tau={cfg.tau!r}")
        return 0
    pred = predict(f, cfg.kind, cfg.tau, chart)
    print(f"exponent={pred.exponent}, c0={pred.c0_tau:.6e}")
    print(
        f"kind={pred.kind} tau={pred.tau!r} log_term_expected={pred.log_term_expected} "
        f"chart={pred.chart_id}"
    )
    return 0


def cmd_localize(cfg: RunConfig, dry_run: bool) -> int:
    if cfg.kind != "bergman":
        raise DomainError("localize compares Bergman kernels; --kind szego is not supported")
    f1 = parse_domain(cfg.spec)
    f2 = damp_tails(f1, cfg.delta)
    chart = BlowupChart(f1.m)
    if dry_run:
        _plan(cfg, "localize", f1,
              extra=f"delta={cfg.delta!r} tau={cfg.tau!r} points={cfg.values['n_points']}")
        return 0
    n = cfg.values["n_points"]
    if "n_points" not in cfg.explicit:
        n = 11  # default grid to 2^-10: deep enough to flatten, still resolvable
    grid = cfg.values["rho_start"] * cfg.values["rho_ratio"] ** np.arange(n)
    path = ApproachPath("fixed_tau", {"tau": cfg.tau}, grid)
    # resolving K1 - K2 under a rho^(-5/2) blow-up needs headroom: default to
    # a tighter tolerance than the global one unless the user chose
    qcfg = cfg.quadrature(default_rel_tol=1e-10)
    report = localization_experiment(
        f1, f2, path, qcfg, chart=chart, agreement_radius=cfg.delta,
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
        _emit_csv(rows, cfg.csv)
        _emit_plot_script(cfg)
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


def cmd_hormander(cfg: RunConfig, dry_run: bool) -> int:
    f = parse_domain(cfg.spec)
    chart = BlowupChart(f.m)
    if dry_run:
        _plan(cfg, "hormander", f, extra=f"x0={cfg.x0!r}")
        return 0
    series, measured, predicted = _hormander_limit(f, cfg.x0, cfg.quadrature())
    ratio = measured / predicted
    if cfg.csv is not None:
        rows = []
        for rec in series:
            q = to_polar(f, chart, BoundaryRelativePoint(rec["x"], rec["y"]))
            rows.append(_kernel_row("bergman", f, q.tau, rec["eps"], rec["x"], rec["y"],
                                    rec["bergman"], "ok"))
        _emit_csv(rows, cfg.csv)
        _emit_plot_script(cfg)
    ok = abs(ratio - 1.0) <= cfg.ratio_tol
    print(
        f"measured={measured:.6e} predicted={predicted:.6e} ratio={ratio:.6f} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override it")
    sub.add_argument("--domain", dest="spec", help="domain spec, e.g. model:m=2,g0=1")
    sub.add_argument("--kind", choices=["bergman", "szego"])
    sub.add_argument("--rel-tol", dest="rel_tol", type=float)
    sub.add_argument("--max-depth", dest="max_depth", type=int)
    sub.add_argument("--truncation-drop", dest="truncation_drop", type=float)
    sub.add_argument("--csv", help="write CSV here (eval/sweep/fit/localize/hormander)")
    sub.add_argument("--plot-script",
                     dest="plot_script", help="emit a plotting script for the CSV")
    sub.add_argument("--dry-run", action="store_true",
                     help="validate config and print the plan; no integrals")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rho-start", dest="rho_start", type=float)
    sub.add_argument("--rho-ratio", dest="rho_ratio", type=float)
    sub.add_argument("--n-points", dest="n_points", type=int)
    sub.add_argument("--window", type=int)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tubekernels",
        description="Bergman and Szego kernel asymptotics on tube domains over R^2",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval", help="kernel at one interior point")
    _add_common(s)
    s.add_argument("--x", type=float)
    s.add_argument("--y", type=float)
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("sweep", help="kernel along a fixed-tau path, CSV out")
    _add_common(s)
    _add_grid(s)
    s.add_argument("--tau", type=float)
    s.set_defaults(func=cmd_sweep)

    s = subs.add_parser("fit", help="blow-up exponent fit on a fixed-tau path")
    _add_common(s)
    _add_grid(s)
    s.add_argument("--tau", type=float)
    s.add_argument("--fit-tol", dest="fit_tol", type=float)
    s.set_defaults(func=cmd_fit)

    s = subs.add_parser("predict", help="expected exponent and model coefficient")
    _add_common(s)
    s.add_argument("--tau", type=float)
    s.set_defaults(func=cmd_predict)

    s = subs.add_parser("localize", help="kernel difference of two locally equal domains")
    _add_common(s)
    _add_grid(s)
    s.add_argument("--tau", type=float)
    s.add_argument("--delta", type=float,
                   help="agreement radius; tails are damped beyond it")
    s.add_argument("--fit-tol", dest="fit_tol", type=float)
    s.add_argument("--bounded-floor", dest="bounded_floor", type=float)
    s.set_defaults(func=cmd_localize)

    s = subs.add_parser("hormander", help="distance limit at a strictly pseudoconvex point")
    _add_common(s)
    s.add_argument("--x0", type=float)
    s.add_argument("--ratio-tol", dest="ratio_tol", type=float)
    s.set_defaults(func=cmd_hormander)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args.dry_run)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
