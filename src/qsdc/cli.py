"""Command-line front end.

Subcommands:

* ``run``          — simulate one session from a config file, emit a CSV row.
* ``sweep``        — vary one numeric config key over a grid with repeated
  seeded trials, one CSV row per (point, trial).
* ``tomo``         — tomograph the configured noisy pair state against a
  chosen Bell target; emits the reconstructed matrix then a fidelity report.
* ``calibrate``    — invert a channel's fidelity curve (which strength
  reproduces a given fidelity).
* ``attack-demo``  — run the same session with and without an
  intercept-resend attacker, side by side.

Exit codes: 0 success, 2 config/parse errors, 3 validation errors,
4 message-capacity errors.  The ``QSDC_SEED`` environment variable
overrides the config seed for any subcommand that reads a config.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .config import SWEEP_KEYS, parse_config_text, build_settings
from .core import BELL_ORDER, BellLabel, bell_state, density_to_csv
from .errors import CapacityError, ConfigParseError, QsdcError, TimingError, ValidationError
# ``apply_channel`` is no longer called here, but stays importable from this
# module: bench/spans.py patches ``qsdc.cli.apply_channel`` by name.
from .noise import NoiseKind, apply_channel, calibrate_noise  # noqa: F401
from .protocol import (
    EveKind,
    EveStrategy,
    PairStates,
    _fmt,
    result_csv_header,
    result_csv_row,
    run_session,
)
from .rng import derive_seed, stream_rng
from .tomography import (
    MIN_RESAMPLES,
    fidelity_with_error,
    linear_inversion,
    project_physical,
    simulate_tomography,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4

_ENV_SEED = "QSDC_SEED"

_CHANNEL_FLAGS = {"depol": NoiseKind.DEPOLARIZING, "dephase": NoiseKind.DEPHASING}


def _seed_override() -> int | None:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigParseError(f"{_ENV_SEED} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValidationError(f"{_ENV_SEED} must be non-negative, got {value}")
    return value


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config file {path!r}: {exc}") from None


def _load_values(path: str) -> tuple[dict, int | None]:
    """The parsed config and the ``QSDC_SEED`` override, for every subcommand.

    Read in one order: the file, then ``QSDC_SEED``, then the config text,
    so a bad file or a bad seed is reported before a bad config line.
    """
    text = _read_config(path)
    override = _seed_override()
    return parse_config_text(text), override


def _load_settings(path: str):
    values, override = _load_values(path)
    return build_settings(values, seed_override=override)


def _emit_sessions(columns: str, jobs: list) -> int:
    """Run every ``(label, config, message, seed)`` job, then print the CSV.

    Every session runs before anything is printed, so a failing job leaves
    stdout empty.  Each row is the job's label followed by its result row.
    """
    rows = [
        label + result_csv_row(config, run_session(config, message, seed), seed)
        for label, config, message, seed in jobs
    ]
    print("\n".join([columns + result_csv_header(), *rows]))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    settings = _load_settings(args.config)
    return _emit_sessions("", [("", settings.config, settings.message, settings.seed)])


def _sweep_values(param: str, grid: str) -> list:
    """The points of ``--grid START:STOP:STEPS`` for ``param``, cast to its type."""
    parts = grid.split(":")
    if len(parts) != 3:
        raise ConfigParseError(f"--grid expects START:STOP:STEPS, got {grid!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigParseError(f"--grid expects numbers START:STOP:STEPS, got {grid!r}") from None
    if steps < 1:
        raise ValidationError(f"--grid needs at least one step, got {steps}")
    if param not in SWEEP_KEYS:
        valid = ", ".join(sorted(SWEEP_KEYS))
        raise ValidationError(f"cannot sweep {param!r}; numeric keys are: {valid}")
    if steps == 1:
        points = (start,)
    else:
        width = (stop - start) / (steps - 1)
        points = tuple(start + k * width for k in range(steps))
    if any(math.isnan(value) for value in points):
        raise ValidationError(f"--grid values must be numbers, got {points}")
    if SWEEP_KEYS[param] is not int:
        return list(points)
    if not all(map(math.isfinite, points)):
        raise ValidationError(
            f"--grid values for integer key {param!r} must be finite, got {points}"
        )
    return [int(round(value)) for value in points]


def _cmd_sweep(args: argparse.Namespace) -> int:
    base_values, override = _load_values(args.config)
    values = _sweep_values(args.param, args.grid)
    if args.trials < 1:
        raise ValidationError(f"trials must be positive, got {args.trials}")
    jobs = []
    for point_idx, value in enumerate(values):
        settings = build_settings({**base_values, args.param: value}, seed_override=override)
        value_text = str(value) if isinstance(value, int) else _fmt(value)
        for trial in range(args.trials):
            trial_seed = derive_seed(settings.seed, point_idx, trial)
            label = f"{args.param},{value_text},{trial},"
            jobs.append((label, settings.config, settings.message, trial_seed))
    return _emit_sessions("param,value,trial,", jobs)


def _cmd_tomo(args: argparse.Namespace) -> int:
    if args.shots <= 0:
        raise ValidationError(f"--shots must be positive, got {args.shots}")
    if args.resamples < MIN_RESAMPLES:
        raise ValidationError(f"--resamples must be at least {MIN_RESAMPLES}, got {args.resamples}")
    settings = _load_settings(args.config)
    target = BellLabel(args.target)
    # The pair state under test: the session's encoded pair carrying the
    # code that announces the target (code index k announces BELL_ORDER[k]),
    # through the configured noise stack with no attacker.
    rho = PairStates(settings.config)("encoded", code=BELL_ORDER.index(target))

    data = simulate_tomography(rho, args.shots, stream_rng(settings.seed, "tomo"))
    report = fidelity_with_error(
        data, bell_state(target), resamples=args.resamples, rng=stream_rng(settings.seed, "bootstrap")
    )
    reconstructed = project_physical(linear_inversion(data))
    sys.stdout.write(density_to_csv(reconstructed))
    print("target,shots_per_basis,fidelity,sigma,resamples")
    print(
        f"{target.value},{args.shots},{_fmt(report.fidelity)},{_fmt(report.sigma)},{report.resamples}"
    )
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    kind = _CHANNEL_FLAGS[args.channel]
    try:
        p = calibrate_noise(args.fidelity, kind)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    print("target_fidelity,channel,p")
    print(f"{_fmt(args.fidelity)},{args.channel},{_fmt(p)}")
    return EXIT_OK


def _cmd_attack_demo(args: argparse.Namespace) -> int:
    settings = _load_settings(args.config)
    quiet_cfg = dataclasses.replace(settings.config, eve=EveStrategy(EveKind.NONE))
    attacked_cfg = dataclasses.replace(
        settings.config,
        eve=EveStrategy(EveKind.INTERCEPT_RESEND, settings.config.eve.basis_policy),
    )
    jobs = [
        (f"{label},", cfg, settings.message, settings.seed)
        for label, cfg in (("none", quiet_cfg), ("intercept_resend", attacked_cfg))
    ]
    return _emit_sessions("eve,", jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdc",
        description="Deterministic simulator of memory-assisted secure direct communication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one session from a config file")
    p_run.add_argument("-c", "--config", required=True, help="path to a key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one numeric config key over a grid")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("--param", required=True, help="config key to vary")
    p_sweep.add_argument("--grid", required=True, help="START:STOP:STEPS (inclusive linear grid)")
    p_sweep.add_argument("--trials", type=int, default=1, help="seeded trials per grid point")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tomo = sub.add_parser("tomo", help="tomograph the configured noisy pair state")
    p_tomo.add_argument("-c", "--config", required=True)
    p_tomo.add_argument(
        "--target",
        required=True,
        choices=[label.value for label in BellLabel],
        help="Bell state to prepare and compare against",
    )
    p_tomo.add_argument("--shots", type=int, default=1000, help="shots per basis setting")
    p_tomo.add_argument("--resamples", type=int, default=100, help="bootstrap resamples")
    p_tomo.set_defaults(func=_cmd_tomo)

    p_cal = sub.add_parser("calibrate", help="find the channel strength matching a fidelity")
    p_cal.add_argument("--fidelity", type=float, required=True)
    p_cal.add_argument("--channel", required=True, choices=sorted(_CHANNEL_FLAGS))
    p_cal.set_defaults(func=_cmd_calibrate)

    p_attack = sub.add_parser(
        "attack-demo", help="same session with and without an intercept-resend attacker"
    )
    p_attack.add_argument("-c", "--config", required=True)
    p_attack.set_defaults(func=_cmd_attack_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except TimingError as exc:
        print(f"timing error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QsdcError as exc:  # pragma: no cover - safety net for new error kinds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
