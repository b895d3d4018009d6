"""qsdc benchmark: one workload per invocation, closed loop, one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload session-large --seed 1 --seconds 30 --trace 0

One caller issues operations back to back and waits for each result.  With
``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics from
a traced run (see ``spans.py``).  Every output is checked for correctness
outside the timed region.  The last stdout line is the result object; the
line before it is an ``info`` object with the simulated-output digest and
the environment.  See ``bench/README.md`` for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import os

# Pin BLAS/OpenMP pools before numpy loads (also inherited by set-up probes).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QSDC_SEED", None)

import argparse
import collections
import dataclasses
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
REF_ITERS = 4000
#: Speed of ``_ref_time``'s loop on the nominal host, in iterations/s.
NOMINAL_REF_RATE = 2e5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_program():
    if not (SRC / "qsdc" / "__init__.py").is_file():
        raise SystemExit(f"error: no qsdc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports qsdc)

    return workloads


def _make(workloads_mod, args, workdir):
    cls = workloads_mod.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads_mod.WORKLOADS)}")
    return cls(args.seed, args.tiny, workdir)


def _setup_probe(args) -> None:
    """Child process: import, build one input, run one warm-up operation.

    The warm-up operation is at the smoke-test size, so the figure is the
    fixed cost of getting ready (imports, lazy first-call work) rather than
    the cost of a full operation.
    """
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR))
    try:
        wl = _make(_load_program(), args, workdir)
        wl.run(wl.make_input("warmup"))
        elapsed = time.perf_counter() - _T0
        wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def _setup_once(args) -> tuple[float, float]:
    """One set-up probe: ``(host seconds, _scale factor around it)``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--tiny", "--setup-probe"]
    ref_before = _ref_time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    scale = _scale((ref_before + _ref_time()) / 2.0)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"], scale


_REF_M = np.full((4, 4), 0.25)
_REF_CUM = np.cumsum(np.full(4, 0.25))


def _ref_time() -> float:
    """Host time of a fixed loop of ``REF_ITERS`` small steps.

    Each step does the kinds of work the program does per pair and per
    branch state: Python arithmetic, a 4x4 matrix product and a
    ``searchsorted`` on a 4-entry table.  The program's own code never runs
    here.  On a shared host the speed of the same code drifts by up to 2x
    over seconds, so the end-to-end times are scaled by the speed this loop
    shows right next to them.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        acc += float((_REF_M @ _REF_M)[0, 0]) + int(np.searchsorted(_REF_CUM, (i % 100) / 100.0))
    return time.perf_counter() - t0


def _scale(ref_s: float) -> float:
    """Factor that turns a host time measured next to ``ref_s`` into the
    time it would have taken at ``NOMINAL_REF_RATE``."""
    return REF_ITERS / ref_s / NOMINAL_REF_RATE


@dataclasses.dataclass
class Pass:
    """What one pass of the loop measured.

    ``op_s`` times the operations as measured (traced, in a traced pass);
    ``plain_s`` times the same operations run again untraced.  In an
    untraced pass, ``scale`` holds each operation's ``_scale`` factor, from
    the reference loop run just before and just after it, and
    ``session_op`` the operation each ``session_ms`` sample belongs to.
    ``digest``, ``plain_digest``, ``funnel`` and ``ref_spans`` (spans
    recorded by then) cover the first ``ref_ops`` operations.
    """

    op_s: list = dataclasses.field(default_factory=list)
    plain_s: list = dataclasses.field(default_factory=list)
    session_ms: list = dataclasses.field(default_factory=list)
    session_op: list = dataclasses.field(default_factory=list)
    scale: list = dataclasses.field(default_factory=list)
    work: int = 0
    digest: str = ""
    plain_digest: str = ""
    funnel: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    ref_spans: int = 0


class Loop:
    """Closed loop over operations 0, 1, 2, ... with checks and digest.

    With a ``tracer``, every operation runs twice, traced and untraced, in
    alternating order.  The tracer's patches are in place only around the
    traced call, and spans are recorded only inside it, never while inputs
    are built or outputs checked.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []

    def _timed(self, inp, traced: bool):
        """One timed call: ``(output or None, failure messages, seconds)``."""
        wl, tracer = self.wl, self.tracer if traced else None
        plain_invoke = wl.invoke
        if tracer is not None:
            tracer.install()
            wl.invoke = tracer.call
            tracer.active = True
        # An exception from the program or a malformed output is a failed
        # operation, reported in the result rather than a crash.
        t0 = time.perf_counter()
        try:
            out, bad = wl.run(inp), []
        except Exception:
            out, bad = None, [traceback.format_exc(limit=3)]
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
                wl.invoke = plain_invoke
                tracer.uninstall()
        return out, bad, elapsed

    def run(self, seconds: float, between=None) -> Pass:
        """Run until ``seconds`` of operation time and ``ref_ops`` operations.

        In a traced pass, ``seconds`` covers the traced and untraced calls
        together, so a traced run lasts about as long as an untraced one.

        ``between(busy_s)`` is called before each operation, outside the
        timed region, with the operation time spent so far.
        """
        wl, tracer = self.wl, self.tracer
        done = Pass()
        digest, plain_digest = hashlib.sha256(), hashlib.sha256()
        refs = []  # reference loop times, one before each untraced operation
        k = 0
        while k < wl.ref_ops or sum(done.op_s) + sum(done.plain_s) < seconds:
            if between is not None:
                between(sum(done.op_s))
            inp = wl.make_input(k)
            self.attempted += 1
            if tracer is not None and k % 2 == 0:
                plain, _, plain_s = self._timed(inp, False)
            if tracer is None:
                refs.append(_ref_time())
            out, bad, op_s = self._timed(inp, tracer is not None)
            session_ms = wl.session_ms(op_s)
            if tracer is not None and k % 2 == 1:
                plain, _, plain_s = self._timed(inp, False)
            done.op_s.append(op_s)
            if tracer is not None:
                done.plain_s.append(plain_s)
            if out is not None:
                done.session_ms.extend(session_ms)
                done.session_op.extend([k] * len(session_ms))
                done.work += wl.work(inp)
                if k < wl.ref_ops:
                    digest.update(wl.digest(inp, out))
                    done.funnel.update(wl.funnel(out))
                    if tracer is not None and plain is not None:
                        plain_digest.update(wl.digest(inp, plain))
                try:
                    bad = wl.check(inp, out)
                except Exception:
                    bad = [traceback.format_exc(limit=3)]
            self.failures.extend(f"{wl.name} op {k}: {msg}" for msg in bad[:1])
            k += 1
            if k == wl.ref_ops and tracer is not None:
                done.ref_spans = len(tracer)
        if tracer is None:
            refs.append(_ref_time())
            done.scale = [_scale((a + b) / 2.0) for a, b in zip(refs, refs[1:])]
        done.digest = digest.hexdigest()
        done.plain_digest = plain_digest.hexdigest()
        return done


def _end_to_end(args, wl, loop):
    # Warm-up in this process too, so lazy set-up is not timed.
    wl.run(wl.make_input("warmup"))
    setup: list[float] = []

    def probe_setup(busy_s: float) -> None:
        # One set-up probe at the start of each of SETUP_PROBES equal shares
        # of the run, so that a slow spell of the host touches few of them.
        while len(setup) < SETUP_PROBES and busy_s >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(_setup_once(args))

    done = loop.run(args.seconds, between=probe_setup)
    probe_setup(float("inf"))
    session_ms = np.array(done.session_ms)
    op_s = np.array(done.op_s)
    # Times at the nominal host speed: each one scaled by the reference loop
    # measured next to it.  The raw host times go to the info line.
    scaled_ms = session_ms * np.array(done.scale)[done.session_op]
    metrics = {
        "setup_s": statistics.median(t * scale for t, scale in setup),
        "throughput_per_s": done.work / float(np.dot(op_s, done.scale)),
        "session_ms.p50": float(np.percentile(scaled_ms, 50)),
        "session_ms.p90": float(np.percentile(scaled_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"digest": done.digest, "ops": len(op_s),
            f"{wl.work_unit}_per_s": metrics["throughput_per_s"],
            "session_samples": len(session_ms),
            "host_speed": NOMINAL_REF_RATE * statistics.median(done.scale),
            "raw": {"setup_s": [t for t, _ in setup],
                    "throughput_per_s": done.work / float(op_s.sum()),
                    "session_ms.p50": float(np.percentile(session_ms, 50)),
                    "session_ms.p90": float(np.percentile(session_ms, 90))},
            "op_ms": [round(t * 1e3, 2) for t in done.op_s],
            "scale": [round(s, 4) for s in done.scale]}
    return metrics, info


def _per_layer(args, wl, loop):
    from spans import Tracer
    from workloads import FUNNEL_KEYS

    wl.run(wl.make_input("warmup"))
    tracer = Tracer()
    loop.tracer = tracer
    traced = loop.run(args.seconds)
    if traced.digest != traced.plain_digest:
        loop.failures.append(f"traced digest {traced.digest} != "
                             f"untraced digest {traced.plain_digest}")
    n_ops, n_ref = len(traced.op_s), wl.ref_ops
    total = tracer.summarize()
    ref = tracer.summarize(traced.ref_spans)

    def per_op(name, key="s"):
        return total.get(name, {}).get(key, 0.0) / n_ops

    def per_ref_op(name, key="calls"):
        return ref.get(name, {}).get(key, 0) / n_ref

    metrics = {
        "protocol.run_session.self_s": per_op("protocol.run_session", "self_s"),
        "protocol.encode_message.s": per_op("protocol.encode_message"),
        "protocol.intercept_resend.calls": per_ref_op("protocol.intercept_resend"),
        "rng.draw_s": per_op("rng.draw"),
        "rng.values": per_ref_op("rng.draw", "values"),
        "rng.stream_rng.calls": per_ref_op("rng.stream_rng"),
        "rng.seed_s": per_op("rng.stream_rng") + per_op("rng.spawn"),
        "core.apply_local.calls": per_ref_op("core.apply_local"),
        "core.apply_local.s": per_op("core.apply_local"),
        "noise.apply_channel.calls": per_ref_op("noise.apply_channel"),
        "noise.apply_channel.s": per_op("noise.apply_channel"),
        "measurement.outcome_probs.calls": per_ref_op("measurement.outcome_probs"),
        "measurement.bell_overlaps.calls": per_ref_op("measurement.bell_overlaps"),
        "tomography.TomoDataset.s": per_op("tomography.TomoDataset"),
        "tomography.linear_inversion.calls": per_ref_op("tomography.linear_inversion"),
        "tomography.linear_inversion.s": per_op("tomography.linear_inversion"),
        "tomography.project_physical.s": per_op("tomography.project_physical"),
        "core.fidelity.s": per_op("core.fidelity"),
        "tomography.fidelity_with_error.self_s": per_op("tomography.fidelity_with_error", "self_s"),
        "noise.calibrate_noise.s": per_op("noise.calibrate_noise"),
        "config.build_settings.s": per_op("config.build_settings"),
        "config.parse_config_text.s": per_op("config.parse_config_text"),
        "rng.derive_seed.calls": per_ref_op("rng.derive_seed"),
        "cli.main.self_s": per_op("cli.main", "self_s"),
    }
    metrics.update({f"protocol.funnel.{key}": traced.funnel[key] / n_ref
                    for key in FUNNEL_KEYS})
    # Every operation ran both ways, so the two sums cover the same work.
    metrics["trace.overhead_frac"] = sum(traced.op_s) / sum(traced.plain_s) - 1.0

    busy = sum(traced.op_s)
    by_module: dict[str, float] = {}
    for name, row in total.items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + row["self_s"]
    branch = sum(total.get(name, {}).get("s", 0.0) for name in (
        "protocol.intercept_resend", "core.apply_local", "noise.apply_channel",
        "measurement.outcome_probs", "measurement.bell_overlaps"))
    spans_path = OUT_DIR / f"spans-{wl.name}.npz"
    tracer.write(spans_path)
    info = {
        "digest": traced.digest,
        "ops": n_ops,
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_share_by_module": {m: s / busy for m, s in sorted(by_module.items())},
        "branch_share": branch / busy,
    }
    return metrics, info


def _environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
        except OSError:
            git = None
        if git is not None and git.returncode == 0:
            sha = git.stdout.strip()
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads_mod = _load_program()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl = _make(workloads_mod, args, workdir)
        loop = Loop(wl)
        if args.trace:
            metrics, info = _per_layer(args, wl, loop)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, info = _end_to_end(args, wl, loop)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")
    for msg in loop.failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    info.update(workload=wl.name, seed=args.seed, trace=args.trace, env=_environment())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
