"""The benchmark's three workloads: input generation, the timed call, checks.

Every input is generated here from ``(workload, seed, operation index)`` with
Python's own ``random.Random``, so inputs do not depend on the program under
test.  Operation ``k`` always gets the same fresh input; no input repeats
within a run, so a cache keyed on identical inputs gains nothing.

Each workload exposes:

* ``make_input(k)`` — build operation ``k``'s input (not timed);
* ``run(inp)`` — the timed call into the program, returning its output;
* ``work(inp)`` — units of work in one operation, counted in ``work_unit``
  (simulated pairs, sessions or bootstrap resamples);
* ``session_ms(op_s)`` — host latencies of the sessions the last ``run`` did,
  given its duration;
* ``check(inp, out)`` — failed correctness checks as messages (not timed);
* ``digest(inp, out)`` — bytes of the simulated output for the run digest;
* ``results(out)`` / ``funnel(out)`` — the ``SessionResult``s behind an
  output and their simulated counts.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import random
import time
from pathlib import Path

import qsdc.cli
import qsdc.config
import qsdc.protocol
from qsdc.core import BellLabel, bell_density, bell_state, density_from_csv, fidelity, validate_physical
from qsdc.measurement import BsmMode, LocalBasis, outcome_probs
from qsdc.noise import ChannelSpec, MemorySpec, NoiseKind, apply_channel
from qsdc.protocol import AbortStage, SessionConfig, result_csv_row
from qsdc.rng import derive_seed

N_SIGMA = 5.0

#: A known program defect, left visible by the smoke test rather than by a
#: workload: ``run_session`` hands message groups only to pairs whose sender
#: memory returned its qubit, and silently drops the groups beyond them (not
#: decoded, not in ``erasure_positions``, no ``CapacityError``).
SLOT_FILL_DEFECT = "run_session drops message groups beyond the surviving sender slots"


def _rng(workload: str, seed: int, k: int | str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _bits(rnd: random.Random, n_bits: int) -> str:
    return format(rnd.getrandbits(n_bits), f"0{n_bits}b")


def _capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qsdc.cli.main(argv)
    return code, buf.getvalue()


def _call(name, fn, *args):
    return fn(*args)


FUNNEL_KEYS = ("pairs_lost", "erasures", "groups_decoded", "abort_check1", "abort_check2", "abort_none")


def funnel(results) -> dict[str, int]:
    """Simulated pair/group counts summed over ``SessionResult``s."""
    out = dict.fromkeys(FUNNEL_KEYS, 0)
    for res in results:
        out["pairs_lost"] += res.pairs_lost
        out["erasures"] += len(res.erasure_positions)
        out["groups_decoded"] += len(res.decoded_bits) // 2
        out["abort_" + res.aborted_at.value] += 1
    return out


def _result_fields(res) -> str:
    return repr(tuple(getattr(res, f.name) for f in dataclasses.fields(res) if f.name != "trace"))


class _Workload:
    name = ""
    work_unit = ""
    #: Operations every run performs first, whatever its time budget; the
    #: digest and the exact per-layer counts cover exactly these.
    ref_ops = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: ``invoke(span_name, fn, *args)``; the traced run swaps in a tracer.
        self.invoke = _call

    def session_ms(self, op_s: float) -> list[float]:
        """One session per operation unless a workload says otherwise."""
        return [op_s * 1e3]

    def results(self, out) -> list:
        return []

    def funnel(self, out) -> dict[str, int]:
        return funnel(self.results(out))

    def close(self) -> None:
        """Undo anything the workload changed in the program's namespaces."""


class SessionLarge(_Workload):
    """One noisy-memory, linear-optics session of 1e5 pairs per operation."""

    name = "session-large"
    work_unit = "pairs"
    ref_ops = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.n_pairs = 10_000 if tiny else 100_000

    def make_input(self, k):
        rnd = _rng(self.name, self.seed, k)
        memory_a = MemorySpec(rnd.uniform(0.90, 0.95), rnd.uniform(2000, 4000), rnd.uniform(0.01, 0.02))
        memory_b = MemorySpec(rnd.uniform(0.85, 0.95), rnd.uniform(2000, 4000), rnd.uniform(0.01, 0.02))
        config = SessionConfig(
            n_pairs=self.n_pairs,
            check_fraction=0.2,
            source_noise=ChannelSpec(NoiseKind.DEPOLARIZING, rnd.uniform(0.02, 0.04)),
            transmittance=rnd.uniform(0.8, 0.9),
            memory_a=memory_a,
            memory_b=memory_b,
            bsm_mode=BsmMode.LINEAR_OPTICS,
            gen_prob_per_cycle=rnd.uniform(0.3, 0.6),
        )
        # Fill 90% of the message slots (pairs not taken by either check)
        # that sender memory is expected to return, i.e. about 80% of all
        # slots.  A message longer than the surviving slots loses groups to
        # a known defect (see SLOT_FILL_DEFECT), and the benchmark's
        # workloads must run without failed operations.
        n_check1 = int(round(config.check_fraction * self.n_pairs / 2.0))
        slots = self.n_pairs - 2 * n_check1
        groups = int(0.9 * slots * memory_a.efficiency(config.storage_a_ns))
        message = _bits(rnd, 2 * groups - rnd.randint(0, 1))
        return config, message, rnd.getrandbits(32), n_check1

    def overfill(self, inp):
        """``inp`` with a message filling every message slot.

        Some sender retrievals fail in every session, so this message has
        more groups than surviving slots: the input that shows the defect
        described in ``SLOT_FILL_DEFECT``.
        """
        config, message, seed, n_check1 = inp
        slots = config.n_pairs - 2 * n_check1
        return config, (message * 2)[: 2 * slots], seed, n_check1

    def work(self, inp) -> int:
        return inp[0].n_pairs

    def run(self, inp):
        config, message, seed, _ = inp
        return self.invoke("protocol.run_session", qsdc.protocol.run_session, config, message, seed)

    def check(self, inp, res) -> list[str]:
        config, message, _, n_check1 = inp
        bad = []
        if res.aborted_at is not AbortStage.NOT_ABORTED:
            bad.append(f"aborted at {res.aborted_at.value}")
        groups_sent = math.ceil(res.bits_sent / 2)
        if res.bits_sent != len(message):
            bad.append(f"bits_sent {res.bits_sent} != message length {len(message)}")
        if len(res.decoded_bits) // 2 + len(res.erasure_positions) != groups_sent:
            bad.append(
                f"{len(res.decoded_bits) // 2} decoded + {len(res.erasure_positions)} erased "
                f"groups != {groups_sent} sent"
            )
        # Analytic check-1 QBER: the pair after source noise and sender-memory
        # dephasing, measured in Z or X with equal probability.
        rho = apply_channel(config.source_noise, "A", bell_density(BellLabel.PHI_PLUS))
        rho = apply_channel(ChannelSpec(NoiseKind.DEPHASING, config.memory_a.dephase_p), "A", rho)
        q = 0.0
        for basis in (LocalBasis.Z, LocalBasis.X):
            p = outcome_probs(rho, basis, basis)
            q += 0.5 * float(p[1] + p[2]) / float(p.sum())
        n = n_check1 * config.memory_a.efficiency(config.storage_a_ns)
        sigma = math.sqrt(q * (1.0 - q) / n)
        if not abs(res.qber_check1 - q) <= N_SIGMA * sigma:
            bad.append(f"qber_check1 {res.qber_check1} is not within {N_SIGMA} sigma of {q}")
        return bad

    def digest(self, inp, res) -> bytes:
        return (result_csv_row(inp[0], res, inp[2]) + _result_fields(res)).encode()

    def results(self, res) -> list:
        return [res]


class SweepAttack(_Workload):
    """``qsdc sweep`` of the abort threshold over small attacked sessions."""

    name = "sweep-attack"
    work_unit = "sessions"
    ref_ops = 4

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.n_pairs = 100 if tiny else 300
        self.grid_steps = 10
        self.trials = 1 if tiny else 3
        self._probe_ms: list[float] = []
        self._probe_results: list = []
        original = qsdc.cli.run_session

        def timed_run_session(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            self._probe_ms.append((time.perf_counter() - t0) * 1e3)
            self._probe_results.append(result)
            return result

        # A probe of two clock reads around each session the sweep runs, so
        # session latency is known without the tracer, and the sessions'
        # SessionResults can be checked and digested.
        self._unprobed = original
        qsdc.cli.run_session = timed_run_session

    def close(self) -> None:
        qsdc.cli.run_session = self._unprobed

    def make_input(self, k):
        rnd = _rng(self.name, self.seed, k)
        n_check1 = int(round(0.2 * self.n_pairs / 2.0))
        slots = self.n_pairs - 2 * n_check1
        groups = rnd.randint(slots // 2, (3 * slots) // 4)
        values = {
            "n_pairs": self.n_pairs,
            "check_fraction": 0.2,
            "qber_threshold": 0.5,
            "source_noise_kind": "depolarizing",
            "source_noise_p": rnd.uniform(0.0, 0.05),
            "eve_kind": "intercept_resend",
            "eve_basis_policy": "random_zx",
            "eve_on_encoded_hop": "true",
            "bsm_mode": "ideal",
            "message": _bits(rnd, 2 * groups - rnd.randint(0, 1)),
            "seed": rnd.getrandbits(32),
        }
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        path = self.workdir / f"sweep-{k}.cfg"
        path.write_text(text, encoding="utf-8")
        argv = ["sweep", "-c", str(path), "--param", "qber_threshold",
                "--grid", f"0.05:0.95:{self.grid_steps}", "--trials", str(self.trials)]
        return argv, text, rnd.randrange(self.grid_steps * self.trials)

    def work(self, inp) -> int:
        return self.grid_steps * self.trials

    def run(self, inp):
        self._probe_ms, self._probe_results = [], []
        code, stdout = self.invoke("cli.main", _capture, inp[0])
        return code, stdout, self._probe_results

    def session_ms(self, op_s: float) -> list[float]:
        return self._probe_ms

    def results(self, out) -> list:
        return out[2]

    def check(self, inp, out) -> list[str]:
        _, text, rerun_row = inp
        code, stdout, results = out
        if code != 0:
            return [f"sweep exited with {code}"]
        lines = stdout.splitlines()
        rows = list(csv.DictReader(lines))
        bad = []
        header = lines[0].split(",") if lines else []
        expected_header = ["param", "value", "trial"] + qsdc.protocol.result_csv_header().split(",")
        if header != expected_header:
            bad.append(f"header {header} != {expected_header}")
            return bad
        if len(rows) != self.grid_steps * self.trials:
            bad.append(f"{len(rows)} rows, expected {self.grid_steps * self.trials}")
        base = qsdc.config.parse_config_text(text)
        for idx, row in enumerate(rows):
            if None in row or any(v is None for v in row.values()):
                bad.append(f"row {idx} does not match the header")
                continue
            point, trial = divmod(idx, self.trials)
            threshold = float(row["value"])
            expected = 0.05 + point * (0.9 / (self.grid_steps - 1))
            if row["param"] != "qber_threshold" or int(row["trial"]) != trial or abs(threshold - expected) > 1e-12:
                bad.append(f"row {idx} has param/value/trial {row['param']},{row['value']},{row['trial']}")
            qber1, qber2 = float(row["qber1"]), float(row["qber2"])
            if qber1 > threshold:
                want = AbortStage.CHECK1.value
            elif qber2 > threshold:
                want = AbortStage.CHECK2.value
            else:
                want = AbortStage.NOT_ABORTED.value
            if row["aborted_at"] != want:
                bad.append(f"row {idx}: aborted_at {row['aborted_at']} with qber1 {qber1}, "
                           f"qber2 {qber2}, threshold {threshold}")
            if idx == rerun_row:
                # README: any single row can be re-run alone and match.
                settings = qsdc.config.build_settings({**base, "qber_threshold": threshold})
                trial_seed = derive_seed(settings.seed, point, trial)
                alone = qsdc.protocol.run_session(settings.config, settings.message, trial_seed)
                tail = result_csv_row(settings.config, alone, trial_seed)
                if lines[1 + idx] != f"qber_threshold,{row['value']},{trial}," + tail:
                    bad.append(f"row {idx} re-run alone gives {tail}")
                if idx >= len(results) or _result_fields(alone) != _result_fields(results[idx]):
                    bad.append(f"row {idx} re-run alone gives a different SessionResult")
        return bad

    def digest(self, inp, out) -> bytes:
        return (out[1] + "".join(_result_fields(res) for res in out[2])).encode()


class TomoBootstrap(_Workload):
    """``qsdc calibrate`` then ``qsdc tomo`` with a 1000-resample bootstrap."""

    name = "tomo-bootstrap"
    work_unit = "resamples"
    ref_ops = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.shots = 500 if tiny else 10_000
        self.resamples = 50 if tiny else 1000

    def make_input(self, k):
        rnd = _rng(self.name, self.seed, k)
        channel = rnd.choice(("depol", "dephase"))
        target_fidelity = rnd.uniform(0.80, 0.95)
        rest = {
            "memory_a_dephase_p": rnd.uniform(0.0, 0.02),
            "hop_noise_kind": "depolarizing",
            "hop_noise_p": rnd.uniform(0.02, 0.05),
            "memory_b_dephase_p": rnd.uniform(0.0, 0.02),
            "message": "01",
            "seed": rnd.getrandbits(32),
        }
        target = rnd.choice([label.value for label in BellLabel])
        path = self.workdir / f"tomo-{k}.cfg"
        return channel, target_fidelity, rest, target, path

    def work(self, inp) -> int:
        return self.resamples

    def run(self, inp):
        channel, target_fidelity, rest, target, path = inp
        code_cal, out_cal = self.invoke(
            "cli.main", _capture,
            ["calibrate", "--fidelity", repr(target_fidelity), "--channel", channel],
        )
        if code_cal != 0:
            return code_cal, out_cal, None, ""
        p = out_cal.splitlines()[1].split(",")[2]
        kind = {"depol": "depolarizing", "dephase": "dephasing"}[channel]
        lines = [f"source_noise_kind = {kind}", f"source_noise_p = {p}"]
        lines += [f"{key} = {value}" for key, value in rest.items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code_tomo, out_tomo = self.invoke(
            "cli.main", _capture,
            ["tomo", "-c", str(path), "--target", target,
             "--shots", str(self.shots), "--resamples", str(self.resamples)],
        )
        return code_cal, out_cal, code_tomo, out_tomo

    def check(self, inp, out) -> list[str]:
        channel, target_fidelity, rest, target, _ = inp
        code_cal, out_cal, code_tomo, out_tomo = out
        if code_cal != 0 or code_tomo != 0:
            return [f"calibrate exited with {code_cal}, tomo with {code_tomo}"]
        bad = []
        cal = next(csv.DictReader(out_cal.splitlines()))
        kind = {"depol": NoiseKind.DEPOLARIZING, "dephase": NoiseKind.DEPHASING}[channel]
        p = float(cal["p"])
        phi = BellLabel.PHI_PLUS
        got = fidelity(apply_channel(ChannelSpec(kind, p), "A", bell_density(phi)), bell_state(phi))
        if not abs(got - target_fidelity) <= 1e-6:
            bad.append(f"calibrated p={p} gives fidelity {got}, target {target_fidelity}")

        lines = out_tomo.splitlines()
        matrix = density_from_csv("\n".join(lines[:17]) + "\n")
        report = validate_physical(matrix)
        if not report.ok:
            bad.append(f"reconstructed matrix is not physical: {report}")
        rep = next(csv.DictReader(lines[17:]))
        fid, sigma = float(rep["fidelity"]), float(rep["sigma"])
        if not (math.isfinite(sigma) and sigma > 0.0):
            bad.append(f"sigma {sigma} is not finite and positive")
        # Exact fidelity of the state tomographed: the Bell target through
        # the configured noise stack (source and sender-memory dephasing on
        # A, hop noise on the flying qubit A, receiver-memory dephasing on B).
        label = BellLabel(target)
        rho = apply_channel(ChannelSpec(kind, p), "A", bell_density(label))
        rho = apply_channel(ChannelSpec(NoiseKind.DEPHASING, rest["memory_a_dephase_p"]), "A", rho)
        rho = apply_channel(ChannelSpec(NoiseKind.DEPOLARIZING, rest["hop_noise_p"]), "A", rho)
        rho = apply_channel(ChannelSpec(NoiseKind.DEPHASING, rest["memory_b_dephase_p"]), "B", rho)
        exact = fidelity(rho, bell_state(label))
        if not abs(fid - exact) <= N_SIGMA * sigma:
            bad.append(f"fidelity {fid} +- {sigma} is not within {N_SIGMA} sigma of exact {exact}")
        return bad

    def digest(self, inp, out) -> bytes:
        return (out[1] + out[3]).encode()


WORKLOADS = {cls.name: cls for cls in (SessionLarge, SweepAttack, TomoBootstrap)}
