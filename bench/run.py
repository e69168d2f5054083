"""tubekernels benchmark: one workload per run, in this fresh interpreter.

Usage (from the repository root):

    python3 bench/run.py --workload fixed_tau_paths --seed 1 --seconds 5 --trace 0

The package is imported from ``src/`` next to this directory; BLAS and
OpenMP threads are pinned to one before numpy loads.  A run

1. imports the package (``import_s``) and sets the workload up three times,
   clearing the package's ``lru_cache`` tables before each round;
2. runs whole passes of the workload's operations, starting another pass
   only while it is expected to end within ``--seconds`` (at least one);
   ``wall_s`` is the median pass, ``op_s_p50`` the median over operations
   of each operation's median time across passes;
3. checks the outputs against independent references, outside any timing,
   and checks that every pass returned bit-identical values.

Times are reported at reference speed.  A pass is timed step by step (a
step is one library call or a few), and before and after every step, the
import and every set-up round the run times a reference sample: fixed
pure-Python and numpy work that does not touch the package.  Each wall
time is scaled by ``REF_PIECE_S`` over the mean of the samples around it.
A phase in which a shared host runs everything slower moves the sample and
the step alike and cancels; a change to the package moves only the step.
The unscaled times are printed too.

With ``--trace 1`` the run sets up once with the tracer installed, runs
one pass untraced and then traced passes, and reports per-layer figures
for one set-up plus one average traced pass instead of end-to-end ones.

Earlier lines of standard output list the environment and every metric
with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 3
FLOOR = 1e-16  # relative errors below double rounding count as this
# reported times are those of a host on which one reference piece takes this
REF_PIECE_S = 1.5e-3


def _clear_caches() -> None:
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "tubekernels" or name.startswith("tubekernels."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class HostSpeed:
    """Reference pieces timed between the steps of a run."""

    def __init__(self):
        import numpy

        self._np = numpy
        self._x = numpy.linspace(0.0, 1.0, 4096)
        self.pieces: list[float] = []

    def sample(self) -> float:
        """Mean time of five reference pieces, each about 1.5 ms of
        pure-Python and numpy work: the host's speed at this moment.  The
        mean, not the median, because a step is slowed by the host's mean
        speed over it, stalls included."""
        np, x = self._np, self._x
        t = time.perf_counter()
        for _ in range(5):
            s = 0
            for i in range(20_000):
                s += i * i
            for _ in range(20):
                np.exp(-3.0 * x).sum()
        ref = (time.perf_counter() - t) / 5
        self.pieces.append(ref)
        return ref

    def timed(self, fn, before: float):
        """``fn()`` timed; returns its result, its raw and scaled seconds,
        and the reference sample taken after it."""
        t = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t
        after = self.sample()
        return out, raw, raw * REF_PIECE_S / (0.5 * (before + after)), after


def _run_pass(wl, host: HostSpeed) -> dict:
    steps, outputs = wl.pass_steps()
    op_times = [0.0] * (1 + max(k for ops, _ in steps for k in ops))
    failed, raw_wall, wall = 0, 0.0, 0.0
    ref = host.sample()
    for ops, fn in steps:
        n_failed, raw, scaled, ref = host.timed(fn, ref)
        failed += n_failed
        raw_wall += raw
        wall += scaled
        for k in ops:
            op_times[k] += scaled / len(ops)
    return {"raw": raw_wall, "wall": wall, "ops": op_times, "failed": failed,
            "outputs": outputs}


def _run_passes(wl, host: HostSpeed, seconds: float) -> list:
    """Whole passes, at least one, until the next would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(wl, host))
        if time.perf_counter() - start + passes[-1]["raw"] > seconds:
            return passes


def _environment(tk, wl, host: HostSpeed) -> dict:
    import numpy
    import scipy

    hash_fn = getattr(tk.experiments, "_config_hash", repr)
    return {
        "reference_piece_ms": {
            "median": 1e3 * statistics.median(host.pieces),
            "min": 1e3 * min(host.pieces),
            "max": 1e3 * max(host.pieces),
            "scaled_to": 1e3 * REF_PIECE_S,
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "config_hashes": {repr(c): hash_fn(c) for c in wl.configs},
        "inputs": {k: v for k, v in vars(wl).items()
                   if k in ("tau", "rho_grids", "ys", "grid", "d_grid")},
    }


def _verify(wl, passes) -> tuple[list, list]:
    problems, calib = wl.check(passes[-1]["outputs"])
    first = wl.fingerprint(passes[0]["outputs"])
    for i, p in enumerate(passes[1:], start=2):
        if wl.fingerprint(p["outputs"]) != first:
            problems.append(f"pass {i} returned other values than pass 1")
    for claimed, actual in calib:
        if not actual <= claimed:
            problems.append(f"actual error {actual:.3e} above the claimed {claimed:.3e}")
    return problems, calib


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tubekernels", "__init__.py")):
        print(f"bench: no tubekernels package under {SRC}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import tubekernels as tk

    import_s = time.perf_counter() - T0
    if not os.path.abspath(tk.__file__).startswith(SRC + os.sep):
        print(f"bench: imported tubekernels from {tk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](tk, args.seed)
    host = HostSpeed()
    if args.trace:
        import tracing

        tr = tracing.Tracer()
        tracing.install(tr, tk, [])  # set-up creates the domain instances
        for fn in wl.setup_steps():
            fn()
        tr.uninstall()
        setup_snap = tr.reset()
        untraced = _run_passes(wl, host, 0)
        tracing.install(tr, tk, wl.domains)
        traced = _run_passes(wl, host, max(args.seconds - untraced[0]["raw"], 0))
        tr.uninstall()
        pass_snap = tr.reset()
        passes = untraced + traced
        problems, calib = _verify(wl, passes)
        metrics = tracing.layer_metrics(setup_snap, pass_snap, len(traced))
        ratios = [c / max(a, FLOOR) for c, a in calib]
        metrics["quadrature.err_claimed_over_actual"] = (
            statistics.median(ratios) if ratios else 0.0)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall"] for p in traced) / untraced[0]["wall"])
        metrics["trace.self_over_wall"] = (
            tracing.self_time_sum(pass_snap) / sum(p["raw"] for p in traced))
    else:
        ref = host.sample()
        import_scaled = import_s * REF_PIECE_S / ref  # nothing to sample before numpy
        rounds = []
        for _ in range(SETUP_ROUNDS):
            _clear_caches()
            rounds.append(0.0)
            for fn in wl.setup_steps():
                _, _, scaled, ref = host.timed(fn, ref)
                rounds[-1] += scaled
        passes = _run_passes(wl, host, args.seconds)
        problems, calib = _verify(wl, passes)
        metrics = {
            "setup_s": import_scaled + statistics.median(rounds),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "op_s_p50": statistics.median(
                statistics.median(ts) for ts in zip(*(p["ops"] for p in passes))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(units) ^ set(metrics))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for msg in problems:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print("environment " + json.dumps(_environment(tk, wl, host)))
    print(f"passes {len(passes)} attempted {attempted} failed {failed} "
          f"checks {'passed' if not problems else 'FAILED'} "
          f"import_s {import_s:.3f} "
          f"pass_walls_s {[round(p['wall'], 3) for p in passes]} "
          f"unscaled {[round(p['raw'], 3) for p in passes]}")
    for k, v in metrics.items():
        print(f"metric {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
