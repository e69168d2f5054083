"""Command-line interface: spec parsing, exit codes, CSV contract."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from tubekernels import BlowupChart, BoundaryRelativePoint, QuadratureConfig, cli, to_polar
from tubekernels.cli import CSV_HEADER, main, parse_domain


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_csv_header_contract():
    assert CSV_HEADER == "kind,m,tau,rho,x,y,log_value,value,err_estimate,evaluations,status"


def test_parse_domain_variants(tmp_path):
    f = parse_domain("model:m=2,g0=2")
    assert f.m == 2 and f.g0 == 2.0
    assert parse_domain("rational:m=3").m == 3
    fb = parse_domain("blended-linear:m=2,slope=0.8")
    assert math.isclose(float(fb.fprime(50.0)), 0.8, rel_tol=1e-3)

    fm = parse_domain("model:m=2|mollify:delta=0.1|damp:radius=0.5")
    assert fm.m == 2
    base = parse_domain("model:m=2")
    assert float(fm.f(0.05)) == float(base.f(0.05))

    tbl = tmp_path / "profile.csv"
    src = parse_domain("rational:m=2")
    lines = ["x,g,gprime"]
    xs = [i * 0.01 - 2.0 for i in range(401)]
    for x in xs:
        lines.append(f"{x!r},{float(src.g(x))!r},{float(src.gprime(x))!r}")
    tbl.write_text("\n".join(lines) + "\n")
    ft = parse_domain(f"table:path={tbl},m=2")
    assert ft.m == 2
    assert math.isclose(float(ft.f(0.3)), float(src.f(0.3)), rel_tol=1e-6)


@pytest.mark.parametrize(
    "spec",
    [
        "egg:m=2",
        "model:g0=1",          # m missing
        "model:m=2,zeta=1",    # unknown parameter
        "model:m",             # not key=value
        "model:m=2|polish:eps=1",
        "model:m=2|mollify:",  # delta missing
        "model:m=2|damp:radius=0.5,x=1",
    ],
)
def test_parse_domain_rejects(spec):
    from tubekernels import DomainError

    with pytest.raises(DomainError):
        parse_domain(spec)


def test_eval_prints_parabola_value(capsys):
    rc, out, _ = run(
        capsys, "eval", "--domain", "model:m=1", "--x", "0", "--y", "0.5",
        "--rel-tol", "1e-6",
    )
    assert rc == 0
    assert "kind=bergman" in out and "m=1" in out
    value = float(re.search(r" value=([^ ]+)", out).group(1))
    assert math.isclose(value, 1.0 / (4 * math.pi**2 * 0.125), rel_tol=1e-5)


def test_eval_exterior_point_exits_2(capsys):
    rc, _, err = run(capsys, "eval", "--domain", "model:m=1", "--x", "2", "--y", "1")
    assert rc == 2
    assert "domain error" in err


def test_bad_domain_exits_2(capsys):
    rc, _, err = run(capsys, "eval", "--domain", "egg:m=2", "--dry-run")
    assert rc == 2 and "domain error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--domain", "model:m=1", "--y", "0.25", "--rel-tol", "inf"],
        ["fit", "--rel-tol", "inf", "--dry-run"],
    ],
)
def test_non_finite_rel_tol_exits_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "rel_tol" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--frobnicate"])
    assert exc.value.code == 2


def test_dry_run_writes_nothing(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    rc, out, _ = run(
        capsys, "sweep", "--domain", "model:m=2", "--csv", str(csv_path), "--dry-run",
    )
    assert rc == 0
    assert out.startswith("plan: command=sweep")
    assert not csv_path.exists()


def test_config_file_precedence(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[domain]\nspec = model:m=1\n\n[experiment]\ntau = 0.7\n\n"
        "[quadrature]\nrel_tol = 1e-6\n"
    )
    rc, out, _ = run(capsys, "sweep", "--config", str(ini), "--dry-run")
    assert rc == 0
    assert "domain=model(m=1,g0=1)" in out
    assert "tau=0.7" in out and "rel_tol=1e-06" in out
    # a flag beats the file
    rc, out, _ = run(capsys, "sweep", "--config", str(ini), "--tau", "0.9", "--dry-run")
    assert rc == 0
    assert "tau=0.9" in out and "rel_tol=1e-06" in out


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[experiment]\ntaus = 1\n")
    rc, _, err = run(capsys, "sweep", "--config", str(bad_key), "--dry-run")
    assert rc == 2 and "taus" in err

    bad_section = tmp_path / "s.ini"
    bad_section.write_text("[grid]\nn_points = 5\n")
    rc, _, err = run(capsys, "sweep", "--config", str(bad_section), "--dry-run")
    assert rc == 2 and "grid" in err

    removed_key = tmp_path / "q.ini"
    removed_key.write_text("[quadrature]\nscaling = direct\n")
    rc, _, err = run(capsys, "eval", "--config", str(removed_key), "--dry-run")
    assert rc == 2 and "unknown key" in err

    # the truncation depth is fixed: a shallower one would void the error claim
    removed_drop = tmp_path / "t.ini"
    removed_drop.write_text("[quadrature]\ntruncation_drop = 1e-3\n")
    rc, _, err = run(capsys, "eval", "--config", str(removed_drop), "--dry-run")
    assert rc == 2 and "unknown key" in err and "truncation_drop" in err

    removed_alpha = tmp_path / "a.ini"
    removed_alpha.write_text("[experiment]\nalpha = 2.0\n")
    rc, _, err = run(capsys, "sweep", "--config", str(removed_alpha), "--dry-run")
    assert rc == 2 and "unknown key" in err and "alpha" in err

    bad_kind = tmp_path / "h.ini"
    bad_kind.write_text("[experiment]\nkind = hardy\n")
    rc, _, err = run(capsys, "eval", "--config", str(bad_kind), "--dry-run")
    assert rc == 2 and "hardy" in err

    removed_section = tmp_path / "c.ini"
    removed_section.write_text("[chart]\nlayer_profile = composed\n")
    rc, _, err = run(capsys, "eval", "--config", str(removed_section), "--dry-run")
    assert rc == 2 and "chart" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--workers", "2"],
        ["eval", "--scaling", "direct"],
        ["eval", "--abs-tol", "1e-30"],
        ["eval", "--layer-profile", "composed"],
        ["eval", "--max-depth", "60"],
        ["sweep", "--truncation-drop", "1e-16"],
        # flags of settings the command does not read
        ["predict", "--rel-tol", "1e-3"],
        ["predict", "--csv", "p.csv"],
        ["sweep", "--window", "3"],
        ["hormander", "--kind", "szego"],
    ],
)
def test_removed_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dry-run"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["eval", "--domain", "model:m=1", "--x", "2", "--y", "1"], "outside"),
        (["sweep", "--n-points", "1"], "n_points"),
        (["sweep", "--tau", "0"], "tau"),
        (["sweep", "--rho-ratio", "1"], "rho_ratio"),
        (["predict", "--tau", "0"], "tau"),
        (["hormander", "--x0", "0"], "x0"),
        # a fit needs 6 points and a window that fits the grid
        (["fit", "--domain", "model:m=1", "--n-points", "6", "--window", "7"], "window"),
        (["fit", "--domain", "model:m=1", "--n-points", "5"], "at least 6"),
        (["localize", "--window", "12"], "window"),
    ],
)
def test_dry_run_rejects_what_the_run_rejects(monkeypatch, capsys, argv, cause):
    def no_integral(*args, **kwargs):
        raise AssertionError("integrated before the config was checked")

    for name in ("direct_pair", "evaluate_path", "localization_experiment",
                 "_hormander_limit", "predict"):
        monkeypatch.setattr(cli, name, no_integral)
    for dry in ([], ["--dry-run"]):
        rc, out, err = run(capsys, *argv, *dry)
        assert rc == 2 and cause in err and out == "", (dry, err)


def test_localize_rejects_szego(capsys):
    rc, _, err = run(
        capsys, "localize", "--domain", "model:m=2", "--kind", "szego", "--dry-run",
    )
    assert rc == 2
    assert "localize compares Bergman kernels" in err


def test_plot_script_requires_csv(capsys, tmp_path):
    rc, _, err = run(capsys, "eval", "--domain", "model:m=1", "--plot-script", "p.py")
    assert rc == 2
    assert "--csv" in err
    # predict writes no file, so it does not read [output] and cannot fail on it
    ini = tmp_path / "out.ini"
    ini.write_text("[output]\nplot_script = p.py\n")
    rc, _, err = run(capsys, "eval", "--config", str(ini), "--dry-run")
    assert rc == 2 and "--csv" in err
    rc, out, _ = run(capsys, "predict", "--config", str(ini), "--dry-run")
    assert rc == 0 and "plot_script" not in out


def test_eval_csv_and_plot_script(capsys, tmp_path):
    csv_path = tmp_path / "point.csv"
    plot_path = tmp_path / "plot.py"
    rc, _, _ = run(
        capsys, "eval", "--domain", "model:m=1", "--y", "0.5", "--rel-tol", "1e-6",
        "--csv", str(csv_path), "--plot-script", str(plot_path),
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("bergman,1,")
    src = plot_path.read_text()
    compile(src, str(plot_path), "exec")  # the script must at least parse
    assert str(csv_path) in src


def test_sweep_csv_deterministic(capsys, tmp_path):
    paths = [tmp_path / f"s{i}.csv" for i in range(2)]
    base = [
        "sweep", "--domain", "model:m=1", "--rel-tol", "1e-6",
        "--n-points", "6",
    ]
    rc, out, _ = run(capsys, *base, "--csv", str(paths[0]))
    assert rc == 0
    assert "sweep: 6/6 points converged" in out
    rc, _, _ = run(capsys, *base, "--csv", str(paths[1]))
    assert rc == 0
    b0, b1 = (p.read_bytes() for p in paths)
    assert b0 == b1  # rerun is byte-identical

    lines = b0.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "bergman" and first[-1] == "ok"
    rho, value = float(first[3]), float(first[7])
    assert math.isclose(value, 1.0 / (4 * math.pi**2 * rho**3), rel_tol=1e-5)


def test_fit_parabola_passes(capsys):
    rc, out, _ = run(
        capsys, "fit", "--domain", "model:m=1", "--rel-tol", "1e-6",
        "--n-points", "8", "--window", "6",
    )
    assert rc == 0
    assert "expected=-3" in out and "PASS" in out


def test_predict_line_format(capsys):
    rc, out, _ = run(
        capsys, "predict", "--domain", "model:m=3", "--kind", "szego", "--tau", "1.0",
    )
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith("exponent=4/3, c0=")
    assert float(first.split("c0=")[1]) > 0


def test_localize_and_hormander_dry_runs(capsys):
    rc, out, _ = run(
        capsys, "localize", "--domain", "model:m=2", "--delta", "0.5", "--dry-run",
    )
    assert rc == 0 and out.startswith("plan: command=localize")
    rc, out, _ = run(
        capsys, "hormander", "--domain", "model:m=2", "--x0", "1.0", "--dry-run",
    )
    assert rc == 0 and out.startswith("plan: command=hormander")


# default --dry-run lines: each shows only settings its command reads
_PLANS = {
    "eval": "kind=bergman rel_tol=1e-08 csv=- plot_script=- x=0.0 y=1.0",
    "sweep": "kind=bergman rel_tol=1e-08 csv=- plot_script=- tau=1.0 points=15",
    "fit": "kind=bergman rel_tol=1e-08 csv=- plot_script=- tau=1.0 points=15 window=6",
    "predict": "kind=bergman tau=1.0",
    "localize": "kind=bergman rel_tol=1e-10 csv=- plot_script=- "
                "delta=0.5 tau=1.0 points=11 window=6",
    "hormander": "rel_tol=1e-08 csv=- plot_script=- x0=1.0",
}


@pytest.mark.parametrize("command", list(_PLANS))
def test_default_dry_run_lines(capsys, command):
    rc, out, _ = run(capsys, command, "--dry-run")
    assert rc == 0
    assert out == f"plan: command={command} domain=model(m=2,g0=1) m=2 {_PLANS[command]}\n"


def _localize_call(monkeypatch, capsys, *argv):
    seen = {}

    def fake(f1, f2, path, cfg, **kwargs):
        seen.update(cfg=cfg, grid=path.rho_grid)
        return {"passed": True, "bounded": True}

    monkeypatch.setattr(cli, "localization_experiment", fake)
    rc, out, _ = run(capsys, "localize", "--domain", "model:m=2", *argv)
    assert rc == 0 and "difference bounded: PASS" in out
    return seen["cfg"], seen["grid"]


def test_localize_command_defaults(monkeypatch, capsys, tmp_path):
    cfg, grid = _localize_call(monkeypatch, capsys)
    assert cfg == QuadratureConfig(rel_tol=1e-10)
    np.testing.assert_array_equal(grid, 0.5 ** np.arange(11))

    ini = tmp_path / "loc.ini"
    ini.write_text("[quadrature]\nrel_tol = 1e-7\n")
    cfg, grid = _localize_call(monkeypatch, capsys, "--config", str(ini))
    assert cfg.rel_tol == 1e-7 and grid.size == 11

    cfg, grid = _localize_call(monkeypatch, capsys, "--n-points", "15", "--rho-start", "0.8")
    assert cfg.rel_tol == 1e-10
    np.testing.assert_array_equal(grid, 0.8 * 0.5 ** np.arange(15))


_QUAD_OUT = {"--rel-tol", "--csv", "--plot-script"}
_PATH = {"--tau", "--rho-start", "--rho-ratio", "--n-points"}


def test_each_command_offers_exactly_the_settings_it_reads():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    expected = {
        "eval": {"--kind", "--x", "--y"} | _QUAD_OUT,
        "sweep": {"--kind"} | _PATH | _QUAD_OUT,
        "fit": {"--kind", "--window", "--fit-tol"} | _PATH | _QUAD_OUT,
        "predict": {"--kind", "--tau"},
        "localize": {"--kind", "--delta", "--window", "--fit-tol", "--bounded-floor"}
        | _PATH | _QUAD_OUT,
        "hormander": {"--x0", "--ratio-tol"} | _QUAD_OUT,
    }
    assert set(subparsers) == set(expected)
    for name, sub in subparsers.items():
        flags = {o for a in sub._actions for o in a.option_strings}
        common = {"-h", "--help", "--config", "--domain", "--dry-run"}
        assert flags == expected[name] | common, name
    # every setting is read by some command
    read = {"spec"} | {k for _, _, reads, _ in cli._COMMANDS.values() for k in reads.split()}
    assert read == {k for keys in cli._SETTINGS.values() for k in keys}


def test_hormander_csv_rho_column_holds_the_normal_step(capsys, tmp_path):
    csv_path = tmp_path / "h.csv"
    rc, out, _ = run(
        capsys, "hormander", "--domain", "model:m=1", "--x0", "1", "--csv", str(csv_path),
    )
    assert rc == (0 if out.rstrip().endswith("PASS") else 1), out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 11
    f = parse_domain("model:m=1")
    chart = BlowupChart(1)
    for k, line in enumerate(lines[1:]):
        kind, m, tau, rho, x, y, log_value, value, err, evals, status = line.split(",")
        assert (kind, m, status) == ("bergman", "1", "ok")
        # rho is the step eps along the normal, not the point's rho = y
        assert float(rho) == 0.1 * 0.5**k and float(y) > 1.0
        q = to_polar(f, chart, BoundaryRelativePoint(float(x), float(y)))
        assert float(tau) == q.tau and q.rho == float(y)
        assert math.isclose(math.exp(float(log_value)), float(value), rel_tol=1e-12)
        assert 0 < float(err) < 1e-6 and int(evals) > 0
    assert lines[1].split(",")[3:6] == ["0.1", "0.9105572809000084", "1.0447213595499958"]


def test_localize_csv_value_holds_the_signed_difference(monkeypatch, capsys, tmp_path):
    reports = []
    real = cli.localization_experiment

    def kept(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "localization_experiment", kept)
    csv_path = tmp_path / "l.csv"
    rc, out, _ = run(
        capsys, "localize", "--domain", "model:m=2", "--rel-tol", "1e-7",
        "--n-points", "6", "--window", "6", "--csv", str(csv_path),
    )
    verdict = re.search(r"difference bounded: (PASS|FAIL)", out).group(1)
    assert rc == (0 if verdict == "PASS" else 1), out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 7
    for line, p in zip(lines[1:], reports[0]["points"]):
        kind, m, tau, rho, x, y, log_value, value, err, evals, status = line.split(",")
        assert (kind, m, tau, status) == ("bergman", "2", "1.0", "ok")
        assert float(rho) == p["rho"] == float(y)
        # value is K1 - K2 with its sign, log_value the log of its size,
        # and evaluations is left empty
        assert float(value) == p["k1"] - p["k2"]
        assert math.isclose(math.exp(float(log_value)), abs(float(value)), rel_tol=1e-9)
        assert float(err) == p["err_estimate"] and evals == ""


def test_sweep_writes_an_empty_row_for_a_failed_point(fail_at, capsys, tmp_path):
    fail_at(0.25)
    csv_path = tmp_path / "s.csv"
    rc, out, _ = run(
        capsys, "sweep", "--domain", "model:m=1", "--n-points", "4", "--csv", str(csv_path),
    )
    assert rc == 0 and "sweep: 3/4 points converged" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 5
    assert lines[3] == (
        "bergman,1,1.0,0.25,0.0,0.25,,,,,QuadratureError: no convergence at y = 0.25"
    )
    assert all(line.endswith(",ok") for i, line in enumerate(lines[1:]) if i != 2)


def test_fit_exits_3_when_too_few_points_converge(fail_at, capsys):
    fail_at(0.5, 0.125, 0.03125)
    rc, out, err = run(
        capsys, "fit", "--domain", "model:m=1", "--n-points", "8", "--window", "6",
    )
    assert rc == 3 and out == ""
    assert "only 5 of 8 points converged; cannot fit" in err


_BAD_SPECS = {
    "m not an integer": (["eval", "--domain", "model:m=abc"], "'model'"),
    "m a fraction": (["eval", "--domain", "model:m=2.5"], "'model'"),
    "g0 not a number": (["eval", "--domain", "model:m=2,g0=abc"], "'g0'"),
    "mollify delta": (["eval", "--domain", "model:m=2|mollify:delta=x"], "'mollify'"),
    "damp radius": (["eval", "--domain", "rational:m=2|damp:radius=1e"], "'damp'"),
    "no table file": (["eval", "--domain", "table:path=/nonexistent.csv,m=2"],
                      "/nonexistent.csv"),
    "bad table cell": (["eval", "--domain", "table:path=cell.csv,m=2"], "cell.csv"),
    "short table row": (["eval", "--domain", "table:path=short.csv,m=2"], "short.csv"),
    "config spec": (["sweep", "--config", "spec.ini"], "'model'"),
    "order past the chart": (["predict", "--domain", "model:m=18"], "m <= 17"),
}


@pytest.mark.parametrize("case", list(_BAD_SPECS))
def test_malformed_spec_exits_2(case, capsys, tmp_path, monkeypatch):
    argv, named = _BAD_SPECS[case]
    (tmp_path / "cell.csv").write_text("x,g,gprime\n-1,1,0\n0,abc,0\n1,1,0\n2,1,0\n")
    (tmp_path / "short.csv").write_text("x,g,gprime\n-1,1,0\n0,1\n1,1,0\n2,1,0\n")
    (tmp_path / "spec.ini").write_text("[domain]\nspec = model:m=abc\n")
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv, "--dry-run")
    assert rc == 2 and out == "", err
    assert err.startswith("domain error:") and named in err, err
