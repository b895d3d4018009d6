"""Config-file parsing and command-line behavior."""

import dataclasses
import enum
import itertools
import math
import re
from pathlib import Path

import pytest

from qsdc.cli import main
from qsdc.config import (
    KEY_PARSERS,
    SWEEP_KEYS,
    build_settings,
    parse_config_text,
)
from qsdc.core import density_from_csv, validate_physical
from qsdc.errors import ConfigParseError, ValidationError
from qsdc.measurement import BsmMode
from qsdc.noise import MemorySpec, NoiseKind
from qsdc.protocol import BasisPolicy, EveKind, EveStrategy, SessionConfig

GOOD_CONFIG = """\
# demo session
n_pairs = 400
check_fraction = 0.2          # one fifth spent on checks
qber_threshold = 0.12

source_noise_kind = depolarizing
source_noise_p = 0.05
memory_b_tau_ns = inf

message = 0110110000111001
seed = 42
"""


class TestParseConfigText:
    def test_happy_path(self):
        values = parse_config_text(GOOD_CONFIG)
        assert values["n_pairs"] == 400
        assert values["check_fraction"] == 0.2
        assert values["source_noise_kind"] is NoiseKind.DEPOLARIZING
        assert values["memory_b_tau_ns"] == math.inf
        assert values["message"] == "0110110000111001"

    def test_spacing_is_flexible(self):
        values = parse_config_text("n_pairs=250\n  check_fraction   =0.5\nmessage = 01\n")
        assert values["n_pairs"] == 250
        assert values["check_fraction"] == 0.5

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigParseError, match="line 3"):
            parse_config_text("n_pairs = 10\n\njust some words\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigParseError, match="line 2.*frobnicate"):
            parse_config_text("n_pairs = 10\nfrobnicate = 3\n")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigParseError, match="line 3.*duplicate"):
            parse_config_text("seed = 1\nn_pairs = 10\nseed = 2\n")

    def test_bad_int_names_line(self):
        with pytest.raises(ConfigParseError, match="line 1"):
            parse_config_text("n_pairs = many\n")

    def test_bad_enum_lists_options(self):
        with pytest.raises(ConfigParseError, match="ideal, linear_optics"):
            parse_config_text("bsm_mode = banana\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigParseError, match="boolean"):
            parse_config_text("eve_on_encoded_hop = maybe\n")

    def test_rejects_nan_values(self):
        with pytest.raises(ConfigParseError, match="NaN"):
            parse_config_text("transmittance = nan\n")

    def test_bad_bit_string(self):
        with pytest.raises(ConfigParseError, match="bit string"):
            parse_config_text("message = 0120\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("\n# full line comment\n\nseed = 3 # trailing\n")
        assert values == {"seed": 3}


class TestBuildSettings:
    def test_defaults_fill_in(self):
        settings = build_settings({"message": "01"})
        assert settings.config.n_pairs == 1000
        assert settings.config.bsm_mode is BsmMode.IDEAL
        assert settings.config.eve.kind is EveKind.NONE
        assert settings.seed == 0
        assert settings.message == "01"

    def test_absent_keys_take_dataclass_defaults(self):
        assert build_settings(parse_config_text("message = 01")).config == SessionConfig()
        text = "memory_b_dephase_p = 0.25\neve_basis_policy = always_x\nmessage = 01"
        config = build_settings(parse_config_text(text)).config
        assert config == SessionConfig(
            memory_b=MemorySpec(dephase_p=0.25), eve=EveStrategy(basis_policy=BasisPolicy.ALWAYS_X)
        )

    def test_full_round_trip(self):
        settings = build_settings(parse_config_text(GOOD_CONFIG))
        assert settings.config.source_noise.p == 0.05
        assert settings.config.memory_b.tau_ns == math.inf
        assert settings.seed == 42

    def test_requires_exactly_one_message_source(self):
        with pytest.raises(ValidationError, match="exactly one"):
            build_settings({"seed": 1})
        with pytest.raises(ValidationError, match="exactly one"):
            build_settings({"message": "01", "message_random_bits": 4})

    def test_random_message_is_seed_deterministic(self):
        a = build_settings({"message_random_bits": 64, "seed": 5})
        b = build_settings({"message_random_bits": 64, "seed": 5})
        c = build_settings({"message_random_bits": 64, "seed": 6})
        assert a.message == b.message
        assert len(a.message) == 64
        assert set(a.message) <= {"0", "1"}
        assert a.message != c.message

    def test_seed_override_drives_random_message(self):
        a = build_settings({"message_random_bits": 64, "seed": 5}, seed_override=9)
        b = build_settings({"message_random_bits": 64, "seed": 9})
        assert a.seed == 9
        assert a.message == b.message

    def test_out_of_range_value_is_validation_error(self):
        with pytest.raises(ValidationError, match="check_fraction"):
            build_settings({"check_fraction": 1.5, "message": "01"})

    def test_eve_strategy_assembled(self):
        settings = build_settings(
            {
                "eve_kind": EveKind.INTERCEPT_RESEND,
                "eve_basis_policy": BasisPolicy.ALWAYS_X,
                "message": "01",
            }
        )
        assert settings.config.eve.kind is EveKind.INTERCEPT_RESEND
        assert settings.config.eve.basis_policy is BasisPolicy.ALWAYS_X


RUN_KEYS = {"seed", "message", "message_random_bits"}


def _flat_leaves(config):
    """``SessionConfig`` leaves keyed ``<field>_<subfield>``, built with ``asdict``."""

    def walk(tree, prefix):
        for name, value in tree.items():
            if isinstance(value, dict):
                yield from walk(value, prefix + name + "_")
            else:
                yield prefix + name, value

    return dict(walk(dataclasses.asdict(config), ""))


def _other_value(default):
    """Config text for a valid value of the default's type that differs from it."""
    if isinstance(default, bool):
        return str(not default).lower()
    if isinstance(default, enum.Enum):
        return next(member.value for member in type(default) if member is not default)
    if isinstance(default, int):
        return str(default + 1)
    if math.isinf(default):
        return "100.0"
    return repr(default / 2 if default else 0.5)


class TestSchema:
    """Every ``SessionConfig`` leaf is a config key, named after its field path."""

    def test_each_key_sets_exactly_its_leaf(self):
        defaults = _flat_leaves(SessionConfig())
        assert set(defaults) == set(KEY_PARSERS) - RUN_KEYS
        for key, default in defaults.items():
            text = f"{key} = {_other_value(default)}\nmessage = 01\n"
            got = _flat_leaves(build_settings(parse_config_text(text)).config)
            changed = {k for k in defaults if got[k] != defaults[k]}
            assert changed == {key}
            assert type(got[key]) is type(default)

    def test_key_names_are_pinned(self):
        assert list(KEY_PARSERS) == [
            "n_pairs", "check_fraction", "qber_threshold", "distance_m", "op_time_ns",
            "light_speed_m_per_ns", "source_noise_kind", "source_noise_p", "hop_noise_kind",
            "hop_noise_p", "transmittance", "memory_a_eta0", "memory_a_tau_ns",
            "memory_a_dephase_p", "memory_b_eta0", "memory_b_tau_ns", "memory_b_dephase_p",
            "storage_a_ns", "storage_b_ns", "bsm_mode", "eve_kind", "eve_basis_policy",
            "eve_on_encoded_hop", "gen_prob_per_cycle", "cycle_time_ns",
            "duty_cycles_per_period", "period_ms", "seed", "message", "message_random_bits",
        ]  # fmt: skip
        assert set(SWEEP_KEYS) == set(KEY_PARSERS) - RUN_KEYS - {
            "source_noise_kind", "hop_noise_kind", "bsm_mode", "eve_kind", "eve_basis_policy",
            "eve_on_encoded_hop",
        }  # fmt: skip
        assert len(SWEEP_KEYS) == 21
        assert {key for key, cast in SWEEP_KEYS.items() if cast is int} == {
            "n_pairs",
            "duty_cycles_per_period",
        }

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        listed = set()
        for row in section.splitlines():
            if not row.startswith("| `"):
                continue
            for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
                parts = re.split(r"\{([^}]*)\}", name)
                options = [part.split(",") if i % 2 else [part] for i, part in enumerate(parts)]
                listed.update("".join(pick) for pick in itertools.product(*options))
        assert listed == set(KEY_PARSERS)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "session.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestCliRun:
    def test_emits_header_and_row(self, config_file, capsys):
        assert main(["run", "-c", config_file]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n_pairs,check_fraction,")
        assert lines[1].split(",")[0] == "400"
        assert lines[1].split(",")[-1] == "42"

    def test_repeated_runs_byte_identical(self, config_file, capsys):
        main(["run", "-c", config_file])
        first = capsys.readouterr().out
        main(["run", "-c", config_file])
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_override(self, config_file, capsys, monkeypatch):
        monkeypatch.setenv("QSDC_SEED", "777")
        assert main(["run", "-c", config_file]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[1].split(",")[-1] == "777"

    def test_bad_env_seed_is_parse_error(self, config_file, capsys, monkeypatch):
        monkeypatch.setenv("QSDC_SEED", "soon")
        assert main(["run", "-c", config_file]) == 2
        assert "QSDC_SEED" in capsys.readouterr().err


class TestCliErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "-c", str(tmp_path / "absent.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_missing_file(self, tmp_path, capsys):
        argv = ["sweep", "-c", str(tmp_path / "absent.cfg"), "--param", "n_pairs", "--grid", "1:2:2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "absent.cfg" in captured.err
        assert captured.out == ""

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("zzz = 1\nmessage = 01\n")
        assert main(["run", "-c", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("check_fraction = 1.5\nmessage = 01\n")
        assert main(["run", "-c", str(path)]) == 3
        assert "check_fraction" in capsys.readouterr().err

    def test_capacity_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n_pairs = 100\nmessage_random_bits = 2000\n")
        assert main(["run", "-c", str(path)]) == 4
        assert "capacity" in capsys.readouterr().err

    def test_timing_error_is_validation_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("distance_m = 1000\nmessage = 01\n")
        assert main(["run", "-c", str(path)]) == 3
        assert "timing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["run"], ["sweep", "--param", "n_pairs", "--grid", "200:400:2"]]
    )
    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"n_pairs = 400\nmessage = 01 \xff\n")
        assert main([argv[0], "-c", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "bad.cfg" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["run"], ["sweep", "--param", "n_pairs", "--grid", "200:400:2"]]
    )
    def test_bad_env_seed_is_reported_before_config_text(self, tmp_path, capsys, monkeypatch, argv):
        path = tmp_path / "bad.cfg"
        path.write_text("zzz = 1\nmessage = 01\n")
        monkeypatch.setenv("QSDC_SEED", "x")
        assert main([argv[0], "-c", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: QSDC_SEED must be an integer")
        assert captured.out == ""


class TestCliSweep:
    def test_grid_shape_and_determinism(self, config_file, capsys):
        argv = [
            "sweep",
            "-c",
            config_file,
            "--param",
            "source_noise_p",
            "--grid",
            "0:0.2:5",
            "--trials",
            "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert lines[0].startswith("param,value,trial,")
        assert len(lines) == 1 + 5 * 3
        values = [ln.split(",")[1] for ln in lines[1:]]
        assert values[0] == "0.0" and values[-1] == "0.2"
        trials = [ln.split(",")[2] for ln in lines[1:4]]
        assert trials == ["0", "1", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_integer_parameter_grid(self, config_file, capsys):
        assert (
            main(
                [
                    "sweep",
                    "-c",
                    config_file,
                    "--param",
                    "n_pairs",
                    "--grid",
                    "200:400:3",
                    "--trials",
                    "1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["200", "300", "400"]

    @pytest.mark.parametrize(
        "param,grid,message",
        [
            ("check_fraction", "0.2:1.0:3", "check_fraction"),  # invalid config at the last point
            ("distance_m", "3:1000:2", "timing"),  # infeasible session at the last point
        ],
    )
    def test_failing_point_emits_nothing(self, config_file, capsys, param, grid, message):
        assert main(["sweep", "-c", config_file, "--param", param, "--grid", grid]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bad_grid_is_parse_error(self, config_file, capsys):
        assert main(["sweep", "-c", config_file, "--param", "n_pairs", "--grid", "1:2"]) == 2
        assert "START:STOP:STEPS" in capsys.readouterr().err
        # The grid syntax is checked before the key.
        assert main(["sweep", "-c", config_file, "--param", "bsm_mode", "--grid", "1:2"]) == 2
        assert "START:STOP:STEPS" in capsys.readouterr().err

    def test_no_trials_is_validation_error(self, config_file, capsys):
        argv = ["sweep", "-c", config_file, "--param", "n_pairs", "--grid", "200:400:2"]
        assert main([*argv, "--trials", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error:") and "trials" in captured.err

    def test_unsweepable_param_is_validation_error(self, config_file, capsys):
        rc = main(["sweep", "-c", config_file, "--param", "bsm_mode", "--grid", "0:1:2"])
        assert rc == 3
        assert "cannot sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param,grid",
        [
            ("n_pairs", "nan:1:2"),
            ("n_pairs", "inf:1:2"),
            ("n_pairs", "0:1e400:2"),
            ("n_pairs", "inf:inf:1"),
            ("n_pairs", "1:-inf:2"),
            ("memory_a_tau_ns", "nan:1:2"),
            ("memory_a_tau_ns", "inf:inf:2"),  # the step (inf - inf) is NaN
        ],
    )
    def test_non_finite_grid_is_validation_error(self, config_file, capsys, param, grid):
        assert main(["sweep", "-c", config_file, "--param", param, "--grid", grid]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error:") and "--grid" in captured.err

    def test_infinite_float_grid_point(self, config_file, capsys):
        argv = ["sweep", "-c", config_file, "--param", "memory_a_tau_ns", "--grid", "inf:inf:1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split(",")[:3] for ln in lines[1:]] == [["memory_a_tau_ns", "inf", "0"]]


class TestCliTomo:
    def test_reconstruction_and_report(self, tmp_path, capsys):
        path = tmp_path / "tomo.cfg"
        path.write_text(
            "source_noise_kind = depolarizing\n"
            "source_noise_p = 0.17333333333333334\n"
            "message = 01\nseed = 3\n"
        )
        assert main(["tomo", "-c", str(path), "--target", "phi+", "--shots", "10000"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        matrix_text = "\n".join(lines[:17])
        rho = density_from_csv(matrix_text)
        assert validate_physical(rho).ok
        assert lines[17] == "target,shots_per_basis,fidelity,sigma,resamples"
        fields = lines[18].split(",")
        assert fields[0] == "phi+" and fields[1] == "10000" and fields[4] == "100"
        assert abs(float(fields[2]) - 0.87) < 0.02
        assert 0.0 < float(fields[3]) < 0.03

    def test_deterministic(self, tmp_path, capsys):
        path = tmp_path / "tomo.cfg"
        path.write_text("message = 01\nseed = 3\n")
        argv = ["tomo", "-c", str(path), "--target", "psi-", "--shots", "400"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_noiseless_target_has_near_unit_fidelity(self, tmp_path, capsys):
        # Shot noise only enters the fidelity at second order here, so even
        # 500 shots per basis should land within a percent of unity.
        path = tmp_path / "tomo.cfg"
        path.write_text("message = 01\nseed = 1\n")
        assert main(["tomo", "-c", str(path), "--target", "psi+", "--shots", "500"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        fidelity = float(lines[18].split(",")[2])
        assert 0.98 < fidelity <= 1.0 + 1e-9


    @pytest.mark.parametrize(
        "option,message",
        [(["--shots", "0"], "--shots"), (["--resamples", "10"], "--resamples")],
    )
    def test_bad_sampling_option_is_validation_error(self, tmp_path, capsys, option, message):
        path = tmp_path / "tomo.cfg"
        path.write_text("message = 01\nseed = 3\n")
        assert main(["tomo", "-c", str(path), "--target", "phi+", *option]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error:") and message in captured.err
        assert captured.out == ""


class TestCliCalibrate:
    def test_depolarizing_strength(self, capsys):
        assert main(["calibrate", "--fidelity", "0.87", "--channel", "depol"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "target_fidelity,channel,p"
        fields = lines[1].split(",")
        assert fields[0] == "0.87" and fields[1] == "depol"
        assert abs(float(fields[2]) - 4 * 0.13 / 3) < 1e-4

    def test_unreachable_fidelity_is_validation_error(self, capsys):
        assert main(["calibrate", "--fidelity", "0.1", "--channel", "depol"]) == 3
        assert "range" in capsys.readouterr().err


class TestCliAttackDemo:
    def test_two_rows_quiet_then_attacked(self, tmp_path, capsys):
        path = tmp_path / "attack.cfg"
        path.write_text("n_pairs = 2000\nmessage_random_bits = 100\nseed = 20\n")
        assert main(["attack-demo", "-c", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("eve,")
        quiet = lines[1].split(",")
        attacked = lines[2].split(",")
        assert quiet[0] == "none" and attacked[0] == "intercept_resend"
        assert quiet[5] == "none" and float(quiet[3]) == 0.0
        assert attacked[5] == "check1"
        assert abs(float(attacked[3]) - 0.25) < 0.1

    @pytest.mark.parametrize(
        "text,code,message",
        [
            ("storage_a_ns = 10\nmessage = 01\n", 3, "timing"),
            ("n_pairs = 100\nmessage_random_bits = 2000\n", 4, "capacity"),
        ],
        ids=["timing", "capacity"],
    )
    def test_failing_session_emits_nothing(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "attack.cfg"
        path.write_text(text)
        assert main(["attack-demo", "-c", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
