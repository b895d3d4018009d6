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
import os
import sys

from .config import SWEEP_KEYS, SweepSpec, load_config, parse_config_text, build_settings
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
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path!r}: {exc}") from None


def _load_settings(path: str):
    return load_config(_read_config(path), seed_override=_seed_override())


def _cmd_run(args: argparse.Namespace) -> int:
    settings = _load_settings(args.config)
    result = run_session(settings.config, settings.message, settings.seed)
    print(result_csv_header())
    print(result_csv_row(settings.config, result, settings.seed))
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigParseError(f"--grid expects START:STOP:STEPS, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigParseError(f"--grid expects numbers START:STOP:STEPS, got {text!r}") from None
    if steps < 1:
        raise ValidationError(f"--grid needs at least one step, got {steps}")
    if steps == 1:
        return (start,)
    width = (stop - start) / (steps - 1)
    return tuple(start + k * width for k in range(steps))


def _cmd_sweep(args: argparse.Namespace) -> int:
    base_values = parse_config_text(_read_config(args.config))
    spec = SweepSpec(param=args.param, grid=_parse_grid(args.grid), trials=args.trials)
    caster = SWEEP_KEYS[spec.param]
    override = _seed_override()
    # Validate every grid point, and run every session, before emitting
    # anything: a failing point leaves stdout empty rather than a partial CSV.
    values = [int(round(raw)) if caster is int else float(raw) for raw in spec.grid]
    points = [
        build_settings({**base_values, spec.param: value}, seed_override=override) for value in values
    ]
    lines = ["param,value,trial," + result_csv_header()]
    for point_idx, (value, settings) in enumerate(zip(values, points)):
        value_text = str(value) if caster is int else _fmt(value)
        for trial in range(spec.trials):
            trial_seed = derive_seed(settings.seed, point_idx, trial)
            result = run_session(settings.config, settings.message, trial_seed)
            lines.append(
                f"{spec.param},{value_text},{trial},"
                + result_csv_row(settings.config, result, trial_seed)
            )
    print("\n".join(lines))
    return EXIT_OK


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
    print("eve," + result_csv_header())
    for label, cfg in (("none", quiet_cfg), ("intercept_resend", attacked_cfg)):
        result = run_session(cfg, settings.message, settings.seed)
        print(f"{label}," + result_csv_row(cfg, result, settings.seed))
    return EXIT_OK


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
