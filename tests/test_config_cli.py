import contextlib
import copy
import csv
import io
import json
import math
import random
import re
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import pytest

import multivalley as mv
from multivalley import cli
from multivalley.config import (
    _MAX_SWEEP_POINTS,
    SweepResult,
    SweepSpec,
    parse_config,
    run_sweep,
    write_csv,
)
from multivalley.constants import M_ELECTRON
from multivalley.errors import ConfigError, QuadratureError
from multivalley.geometry import debye_radius


def base_config(**overrides):
    doc = {
        "material": {
            "m_perp": 0.082,
            "m_par": 1.59,
            "eps0": 16.0,
            "n_a": 1.0e16,
            "r_D": 3.0e-5,
            "tau_perp0": 1.2e-12,
            "tau_par0": 9.0e-13,
        },
        "valleys": {"preset": "Ge4", "n": 1.0e16, "theta_K": 300.0},
        "polarization": [0.0, 0.0, 1.0],
        "mechanism": "impurity",
        "regime": "classical",
        "observable": "absorption",
        "sweep": {"kind": "omega", "min": 1.0e12, "max": 2.0e12, "points": 2,
                  "scale": "log"},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_happy_path_fills_debye_radius(self):
        doc = base_config()
        del doc["material"]["r_D"]
        config = parse_config(json.dumps(doc))
        theta = mv.theta_from_kelvin(300.0)
        expected = debye_radius(16.0, theta, 4.0e16)  # four populated valleys
        assert config.material.r_D == pytest.approx(expected, rel=1e-14, abs=0)
        assert len(config.valleys) == 4
        assert config.material.m_perp == pytest.approx(0.082 * M_ELECTRON, rel=1e-6, abs=0)

    def test_mass_ordering_error_names_both_fields(self):
        doc = base_config()
        doc["material"]["m_par"] = 0.01
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert "material.m_par" in str(err.value)
        assert "material.m_perp" in str(err.value)

    def test_temperature_units_cross_check(self):
        theta_erg = mv.theta_from_kelvin(300.0)
        doc_k = base_config()
        doc_ev = base_config()
        doc_ev["valleys"] = {
            "preset": "Ge4",
            "n": 1.0e16,
            "theta_eV": theta_erg / 1.602176634e-12,
        }
        cfg_k = parse_config(json.dumps(doc_k))
        cfg_ev = parse_config(json.dumps(doc_ev))
        for a, b in zip(cfg_k.valleys, cfg_ev.valleys):
            assert a.theta == pytest.approx(b.theta, rel=1e-15, abs=0)

    def test_explicit_valley_list(self):
        doc = base_config()
        doc["valleys"] = [
            {"axis": [1, 1, 1], "n": 2.0e15, "theta_K": 420.0},
            {"axis": [0, 0, 1], "n": 1.0e15, "theta_eV": 0.05},
        ]
        config = parse_config(json.dumps(doc))
        assert len(config.valleys) == 2
        first = config.valleys.valleys[0]
        assert sum(a * a for a in first.axis) == pytest.approx(1.0, abs=1e-15)

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_missing_field_path(self):
        doc = base_config()
        del doc["material"]["eps0"]
        with pytest.raises(ConfigError, match="material.eps0"):
            parse_config(json.dumps(doc))

    def test_bad_sweep(self):
        doc = base_config(sweep={"kind": "omega", "min": 2e12, "max": 1e12,
                                 "points": 5})
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(json.dumps(doc))
        doc = base_config(sweep={"kind": "omega", "min": 1e12, "max": 2e12,
                                 "points": 1})
        with pytest.raises(ConfigError, match="points"):
            parse_config(json.dumps(doc))

    def test_bad_enums(self):
        with pytest.raises(ConfigError, match="mechanism"):
            parse_config(json.dumps(base_config(mechanism="optical")))
        with pytest.raises(ConfigError, match="regime"):
            parse_config(json.dumps(base_config(regime="semi")))
        with pytest.raises(ConfigError, match="observable"):
            parse_config(json.dumps(base_config(observable="reflectivity")))


class TestRunSweep:
    def test_classical_two_point_scaling(self):
        config = parse_config(json.dumps(base_config()))
        result = run_sweep(config)
        assert result.columns == (
            "omega_rad_per_s", "hbar_omega_eV", "K_per_cm", "regime", "mechanism",
        )
        k_col = result.columns.index("K_per_cm")
        w_col = result.columns.index("omega_rad_per_s")
        first, second = result.rows
        ratio = (second[w_col] / first[w_col]) ** 2
        assert second[k_col] == pytest.approx(first[k_col] / ratio, rel=1e-12)

    def test_phi_sweep_constant_on_cubic_preset(self):
        doc = base_config(
            regime="general",
            sweep={
                "kind": "phi", "min": 0.0, "max": math.pi, "points": 7,
                "scale": "linear", "omega": 4.0e13,
                "plane": [[1, 0, 0], [0, 0, 1]],
            },
        )
        result = run_sweep(parse_config(json.dumps(doc)))
        k_col = result.columns.index("K_per_cm")
        values = [row[k_col] for row in result.rows]
        assert (max(values) - min(values)) / values[0] < 1e-12
        assert result.columns[0] == "phi_rad"

    def test_regime_guard_fails_fast_with_frequency(self):
        doc = base_config(sweep={"kind": "omega", "min": 1.0e12, "max": 1.0e15,
                                 "points": 12, "scale": "log"})
        with pytest.raises(mv.RegimeError, match="omega"):
            run_sweep(parse_config(json.dumps(doc)))

    def test_observable_both_adds_column(self):
        doc = base_config(observable="both")
        result = run_sweep(parse_config(json.dumps(doc)))
        assert "K_per_cm" in result.columns
        assert "dW_dOmega_cgs" in result.columns

    def test_worker_threads_preserve_order(self):
        doc = base_config(workers=3,
                          sweep={"kind": "omega", "min": 1.0e12, "max": 2.0e12,
                                 "points": 8, "scale": "linear"})
        serial = run_sweep(parse_config(json.dumps(base_config(
            sweep={"kind": "omega", "min": 1.0e12, "max": 2.0e12, "points": 8,
                   "scale": "linear"}))))
        threaded = run_sweep(parse_config(json.dumps(doc)))
        assert serial.rows == threaded.rows


class TestWriteCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepResult(columns=("a", "b"), rows=()), str(path))
        assert path.read_text() == "a,b\n"

    def test_round_trip_reproduces_values(self, tmp_path):
        config = parse_config(json.dumps(base_config()))
        result = run_sweep(config)
        path = tmp_path / "out.csv"
        write_csv(result, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(result.columns)
        k_col = result.columns.index("K_per_cm")
        for line, row in zip(lines[1:], result.rows):
            cell = line.split(",")[k_col]
            assert float(cell) == float(f"{row[k_col]:.11e}")

    def test_column_count_matches_observable(self, tmp_path):
        for observable, expected in (("absorption", 5), ("emission", 5), ("both", 6)):
            doc = base_config(observable=observable)
            result = run_sweep(parse_config(json.dumps(doc)))
            assert len(result.columns) == expected
            path = tmp_path / f"{observable}.csv"
            write_csv(result, str(path))
            header = path.read_text().split("\n", 1)[0]
            assert len(header.split(",")) == expected


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        out = tmp_path / "run.csv"
        assert cli.main(["--config", cfg, "--output", str(out)]) == 0
        assert out.exists()
        assert "2 rows" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        doc = base_config()
        doc["material"]["m_par"] = 0.001
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "nope.json"),
                         "--output", str(tmp_path / "x.csv")]) == 2

    def test_missing_output_exit_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        assert cli.main(["--config", cfg]) == 2
        assert "output" in capsys.readouterr().err

    def test_regime_error_exit_three(self, tmp_path, capsys):
        doc = base_config(sweep={"kind": "omega", "min": 1.0e15, "max": 2.0e15,
                                 "points": 2, "scale": "log"})
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 3
        assert "regime error" in capsys.readouterr().err

    def test_numeric_error_exit_four(self, tmp_path, monkeypatch, capsys):
        cfg = self.write_config(tmp_path, base_config())

        def explode(config):
            raise QuadratureError("synthetic non-convergence", estimate=1.0)

        monkeypatch.setattr(cli, "run_sweep", explode)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 4
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["polarization", "plane", "axis"])
    def test_non_numeric_vector_component_exit_two(self, tmp_path, capsys, field):
        doc = base_config()
        if field == "polarization":
            doc["polarization"] = ["a", 0, 1]
        elif field == "plane":
            doc["sweep"] = {"kind": "phi", "min": 0.0, "max": 3.0, "points": 3,
                            "omega": 1.0e12, "plane": [[1, 0, 0], ["a", 0, 1]]}
        else:
            doc["valleys"] = [{"axis": ["a", 0, 1], "n": 1.0e16, "theta_K": 300.0}]
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_short_plane_vector_exit_two(self, tmp_path, capsys):
        doc = base_config(sweep={"kind": "phi", "min": 0.0, "max": 3.0, "points": 3,
                                 "omega": 1.0e12, "plane": [[1, 0, 0], [0, 1]]})
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "sweep.plane[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [1e-8, 1e-11])
    def test_nearly_parallel_plane_exit_two(self, tmp_path, capsys, offset):
        # the orthonormalized plane would miss orthogonality by ~1e-16/offset
        doc = base_config(sweep={"kind": "phi", "min": 0.0, "max": 3.0, "points": 3,
                                 "omega": 1.0e12, "plane": [[1, 0, 0], [1, offset, 0]]})
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "sweep.plane: the two vectors must be independent" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [
        {"kind": "omega", "min": 1.0e12, "max": 1.0e200, "points": 3},
        {"kind": "phi", "min": 0.0, "max": 3.0, "points": 3, "omega": 1.0e300},
    ])
    def test_overflowing_frequency_exit_two(self, tmp_path, capsys, sweep):
        cfg = self.write_config(tmp_path, base_config(regime="general", sweep=sweep))
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [
        {"kind": "omega", "min": 1.0e-90, "max": 1.0e-60, "points": 3},
        {"kind": "phi", "min": 0.0, "max": 3.0, "points": 3, "omega": 1.0e-100},
    ])
    def test_vanishing_frequency_exit_two(self, tmp_path, capsys, sweep):
        # classical emission would otherwise read 0: hbar omega^3 underflows
        doc = base_config(observable="emission", sweep=sweep)
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "underflows" in capsys.readouterr().err

    def test_non_finite_number_exit_two(self, tmp_path, capsys):
        doc = base_config()
        doc["material"]["n_a"] = math.inf  # JSON "Infinity", which json.loads accepts
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "material.n_a: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["axis", "polarization"])
    def test_huge_vector_component_is_a_direction(self, tmp_path, field):
        # a^2 overflows for a = 1e200; the vector is still the direction (1, 0, 1)
        outputs = []
        for scale in (1.0, 1.0e200):
            if field == "axis":
                doc = base_config(valleys=[{"axis": [scale, 0.0, scale], "n": 1.0e16,
                                            "theta_K": 300.0}])
            else:
                doc = base_config(polarization=[scale, 0.0, scale])
            cfg = self.write_config(tmp_path, doc)
            out = tmp_path / f"{field}_{scale:g}.csv"
            assert cli.main(["--config", cfg, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_huge_plane_component_is_a_direction(self, tmp_path):
        # |plane[1]|^2 overflows for 1e300; the plane is still the x-z plane
        outputs = []
        for scale in (1.0, 1.0e300):
            doc = base_config(regime="general", sweep={
                "kind": "phi", "min": 0.0, "max": 3.0, "points": 3, "omega": 4.0e13,
                "plane": [[1, 0, 0], [0, 0, scale]]})
            cfg = self.write_config(tmp_path, doc)
            out = tmp_path / f"plane_{scale:g}.csv"
            assert cli.main(["--config", cfg, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("preset", [["Ge4"], {}], ids=["list", "dict"])
    def test_non_string_preset_exit_two(self, tmp_path, capsys, preset):
        doc = base_config(valleys={"preset": preset, "n": 1.0e16, "theta_K": 300.0})
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "valleys.preset" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1e-320, 1e-310], ids=["theta-underflow", "n-underflow"])
    def test_underivable_debye_radius_exit_two(self, tmp_path, capsys, n):
        # the docs Si6 config gives no r_D; with these populations the mean
        # temperature, or 4 pi e0^2 n_total, underflows to 0
        doc = json.loads((DOCS / "config_si6_hot_polarization.json").read_text())
        doc["valleys"]["n"] = n
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "material.r_D" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", [1e10, 1e12, 1e-20])
    def test_vanishing_acoustic_kernel_argument_exit_four(self, tmp_path, capsys, omega):
        # theta far above the documented domain puts a = hbar omega/(2 theta)
        # at or below 1e-300: the kernel takes its exact limit, and the cells
        # that are still not finite (n theta overflows) are a numerical error,
        # never a nan cell or a traceback
        doc = json.loads((DOCS / "config_si6_hot_polarization.json").read_text())
        doc["valleys"]["theta_K"] = 1e308
        doc["material"]["r_D"] = 3e-5
        doc["sweep"].update(omega=omega, points=3)
        cfg, out = self.write_config(tmp_path, doc), tmp_path / "x.csv"
        assert cli.main(["--config", cfg, "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"FloatingPointError: dW_dOmega_cgs is nan at omega = {omega:.6e}" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("kind", ["phi", "omega"])
    def test_vanishing_temperature_exit_four(self, tmp_path, capsys, kind):
        # theta_K = 1e-300 puts s = hbar omega/theta near 4e302, where the
        # kernel exceeds double range: the non-finite cells are a numerical
        # error naming column and omega, with no numpy overflow trap instead
        doc = json.loads((DOCS / "config_si6_hot_polarization.json").read_text())
        doc["valleys"]["theta_K"] = 1e-300
        doc["material"]["r_D"] = 3e-5
        if kind == "phi":
            doc["sweep"].update(points=3)
        else:
            doc["sweep"] = {"kind": "omega", "min": 5e13, "max": 1e14, "points": 3}
        cfg, out = self.write_config(tmp_path, doc), tmp_path / "x.csv"
        assert cli.main(["--config", cfg, "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "FloatingPointError: dW_dOmega_cgs is nan at omega = 5.000000e+13" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("theta_K,omega", [(1e-300, 5e13), (1e-307, 1e100)],
                             ids=["huge-s", "s-overflows"])
    def test_vanishing_temperature_library_raises(self, theta_K, omega):
        doc = json.loads((DOCS / "config_si6_hot_polarization.json").read_text())
        doc["valleys"]["theta_K"] = theta_K
        doc["material"]["r_D"] = 3e-5
        config = parse_config(json.dumps(doc))
        args = (config.valleys, config.material, omega, config.polarization)
        where = f"is nan at omega = {omega:.6e} rad/s"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=re.escape(f"K_per_cm {where}")):
                mv.absorption_acoustic(*args)
            with pytest.raises(FloatingPointError, match=re.escape(f"dW_dOmega_cgs {where}")):
                mv.emission_acoustic(*args)

    def test_integer_beyond_double_range_exit_two(self, tmp_path, capsys):
        doc = base_config()
        doc["material"]["n_a"] = 10**400  # a JSON integer float() cannot hold
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "material.n_a: integer too large for a double" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [10**400, _MAX_SWEEP_POINTS + 1], ids=["400-digit", "max+1"])
    def test_too_many_sweep_points_exit_two(self, tmp_path, monkeypatch, capsys, points):
        def no_grid(spec):
            raise AssertionError("the sweep grid must not be allocated")

        monkeypatch.setattr(SweepSpec, "grid", no_grid)
        doc = base_config(sweep={"kind": "omega", "min": 1.0e12, "max": 2.0e12,
                                 "points": points})
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "sweep.points: at most" in capsys.readouterr().err

    def test_integer_beyond_json_digit_limit_exit_two(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for integers over 4300 digits
        text = json.dumps(base_config(sweep={"kind": "omega", "min": 1.0e12, "max": 2.0e12,
                                             "points": "POINTS"}))
        cfg = tmp_path / "config.json"
        cfg.write_text(text.replace('"POINTS"', "9" * 5000))
        assert cli.main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 200000],
                             ids=["not-utf-8", "nested-too-deep"])
    def test_undecodable_config_exit_two(self, tmp_path, capsys, text):
        # bytes that are not UTF-8 (here a UTF-16 byte-order mark), and nesting
        # beyond the JSON decoder's recursion limit, are refused by the parser
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            parse_config(text)
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        assert cli.main(["--config", str(cfg), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON") and "Traceback" not in err

    def test_zero_workers_exit_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, base_config())
        out = tmp_path / "x.csv"
        assert cli.main(["--config", cfg, "--output", str(out), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_arithmetic_error_exit_four(self, tmp_path, monkeypatch, capsys):
        cfg = self.write_config(tmp_path, base_config())

        def overflow(config):
            raise OverflowError("synthetic overflow")

        monkeypatch.setattr(cli, "run_sweep", overflow)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 4
        assert "numerical error: OverflowError" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path, base_config())
        out = tmp_path / "both.csv"
        code = cli.main([
            "--config", cfg, "--output", str(out), "--observable", "both",
            "--mechanism", "acoustic", "--regime", "general",
        ])
        assert code == 0
        header = out.read_text().split("\n", 1)[0].split(",")
        assert "dW_dOmega_cgs" in header and "K_per_cm" in header

    def test_byte_identical_reruns_with_workers(self, tmp_path):
        doc = base_config(
            regime="general", observable="both", workers=4,
            sweep={"kind": "omega", "min": 1.0e13, "max": 1.0e14, "points": 6,
                   "scale": "log"},
        )
        cfg = self.write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["--config", cfg, "--output", str(out1)]) == 0
        assert cli.main(["--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cold_acoustic_absorption_sweep(self, tmp_path):
        # a = hbar omega / 2 theta reaches ~900 at 4.2 K and 1e15 rad/s
        doc = base_config(
            mechanism="acoustic", regime="general", observable="absorption",
            valleys={"preset": "Ge4", "n": 1.0e16, "theta_K": 4.2},
            sweep={"kind": "omega", "min": 1.0e12, "max": 1.0e15, "points": 12,
                   "scale": "log"},
        )
        cfg = self.write_config(tmp_path, doc)
        out = tmp_path / "cold.csv"
        assert cli.main(["--config", cfg, "--output", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        values = [float(row["K_per_cm"]) for row in rows]
        assert all(math.isfinite(k) and k > 0.0 for k in values)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_usage() -> str:
    """The command block of the README's CLI section."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("\n```", 1)[0]


class TestCliArgv:
    @pytest.fixture
    def cfg(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        return str(path)

    @staticmethod
    def header(path) -> list[str]:
        return path.read_text().split("\n", 1)[0].split(",")

    def test_flag_value_and_flag_equals_value(self, tmp_path, cfg):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert cli.main(["--config", cfg, "--output", str(spaced), "--observable", "both"]) == 0
        assert cli.main([f"--config={cfg}", f"--output={joined}", "--observable=both"]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert self.header(joined)[2:4] == ["K_per_cm", "dW_dOmega_cgs"]

    def test_last_repeat_wins(self, tmp_path, cfg):
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        assert cli.main(["--config", cfg, "--observable", "both", "--output", str(first),
                         "--observable=emission", f"--output={last}", "--workers", "0",
                         "--workers", "2"]) == 0
        assert not first.exists()
        assert self.header(last)[2] == "dW_dOmega_cgs" and "K_per_cm" not in self.header(last)

    def test_reads_sys_argv(self, tmp_path, cfg, monkeypatch):
        out = tmp_path / "argv.csv"
        monkeypatch.setattr(sys, "argv", ["multivalley", "--config", cfg, "--output", str(out)])
        assert cli.main() == 0 and out.exists()

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_readme_usage(self, capsys, flag):
        assert cli.main(["--config", "nope.json", flag]) == 0
        captured = capsys.readouterr()
        assert readme_usage() in captured.out and captured.err == ""

    @pytest.mark.parametrize("argv", [
        pytest.param(["--bogus", "1"], id="unknown-flag"),
        pytest.param(["--out", "{out}"], id="flag-prefix"),
        pytest.param(["stray"], id="positional"),
        pytest.param(["--output"], id="no-value-at-end"),
        pytest.param(["--output", "--observable", "both"], id="flag-as-value"),
        pytest.param(["--regime="], id="empty-value"),
        pytest.param(["--regime", "general", "--output=--regime"], id="flag-as-joined-value"),
        pytest.param(["--workers", "two"], id="non-integer-workers"),
        pytest.param(["--workers=1.5"], id="fractional-workers"),
        pytest.param(["--workers", "-1"], id="negative-workers"),
    ])
    def test_usage_error_exit_two(self, tmp_path, cfg, capsys, argv):
        out = tmp_path / "x.csv"
        argv = ["--config", cfg, "--output", str(out)] + [a.format(out=out) for a in argv]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv,key", [(["--mechanism", "phonon"], "mechanism"),
                                          (["--observable=all"], "observable")])
    def test_selector_outside_choices_exit_two(self, tmp_path, cfg, capsys, argv, key):
        # the RunConfig checks the selectors, flag or config key alike
        out = tmp_path / "x.csv"
        assert cli.main(["--config", cfg, "--output", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: expected ")
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_missing_config_flag_exit_two(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["--output", str(out)]) == 2
        assert capsys.readouterr().err == "usage error: --config is required (see multivalley --help)\n"
        assert not out.exists()

    def test_usage_error_in_a_process(self, tmp_path, checkout_env, cfg):
        proc = subprocess.run([sys.executable, "-m", "multivalley.cli", "--config", cfg, "--bogus"],
                              env=checkout_env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.mark.parametrize("name", ["config_ge4_spectrum.json", "config_si6_hot_polarization.json"])
def test_cli_process_matches_in_process_csv(tmp_path, checkout_env, name):
    # the Si6 config is acoustic general, the Ge4 config impurity general
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "multivalley.cli", "--config", str(DOCS / name),
         "--output", str(out)],
        env=checkout_env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = tmp_path / "in_process.csv"
    write_csv(run_sweep(parse_config((DOCS / name).read_text())), str(expected))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("name", ["config_ge4_spectrum.json", "config_si6_hot_polarization.json"])
def test_cli_runs_without_scipy(tmp_path, checkout_env, name):
    # scipy is a test dependency only: with every scipy import made to fail,
    # the CLI still writes the same bytes
    out = tmp_path / "cli.csv"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from multivalley.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "--config", str(DOCS / name), "--output", str(out)],
        env=checkout_env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = tmp_path / "in_process.csv"
    write_csv(run_sweep(parse_config((DOCS / name).read_text())), str(expected))
    assert out.read_bytes() == expected.read_bytes()


# -- CLI exit-code fuzz --------------------------------------------------------

# Among this seed's draws are a non-string valleys.preset and populations too
# thin for a Debye radius, both of which once ended in a traceback.
FUZZ_SEED = 5
FUZZ_DRAWS = 200
FUZZ_MAX_POINTS = 4  # keeps each draw a few milliseconds
# Replacements of any JSON type, and extreme numbers for numeric fields.
FUZZ_VALUES = (
    [], [1.0, 2.0], ["a"], {}, {"x": 1.0}, "x", "", "classical", "quantum", "acoustic",
    "both", True, False, None,
)
FUZZ_NUMBERS = (
    1e308, -1e308, 1e200, -1.0, -3.0e16, 0.0, 5e-324, 1e-320, 2.2e-308,
    10**400, -(10**400), math.inf, -math.inf, math.nan,
)


def _json_paths(node, prefix=()):
    """Key paths of every value below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _json_paths(value, prefix + (key,))


def _fuzz_doc(doc, rng):
    """``doc`` with one to three random drops or value swaps, and
    ``sweep.points`` clamped small."""
    for _ in range(rng.randint(1, 3)):
        paths = list(_json_paths(doc))
        if not paths:
            break
        *parents, key = rng.choice(paths)
        container = doc
        for part in parents:
            container = container[part]
        value = container[key]
        numeric = isinstance(value, (int, float, list)) and not isinstance(value, bool)
        roll = rng.random()
        if roll < 0.2:
            del container[key]
        elif roll < 0.4 or not numeric:
            container[key] = copy.deepcopy(rng.choice(FUZZ_VALUES + FUZZ_NUMBERS))
        else:
            container[key] = rng.choice(FUZZ_NUMBERS)
    sweep = doc.get("sweep")
    if isinstance(sweep, dict):
        points = sweep.get("points")
        if type(points) is int and 2 <= points < 10**6:
            sweep["points"] = min(points, FUZZ_MAX_POINTS)
    return doc


def test_cli_fuzz_exits_with_documented_codes(tmp_path):
    rng = random.Random(FUZZ_SEED)
    docs = [json.loads((DOCS / name).read_text()) for name in
            ("config_ge4_spectrum.json", "config_si6_hot_polarization.json")]
    cfg, out = tmp_path / "fuzz.json", tmp_path / "fuzz.csv"
    codes, failures = [], []
    for draw in range(FUZZ_DRAWS):
        doc = _fuzz_doc(json.loads(json.dumps(rng.choice(docs))), rng)
        cfg.write_text(json.dumps(doc))  # non-finite numbers as NaN/Infinity, which json reads
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", str(cfg), "--output", str(out)])
        except Exception:
            code, stderr = None, traceback.format_exc()
        else:
            stderr = err.getvalue()
        codes.append(code)
        if code not in (0, 2, 3, 4) or "Traceback" in stderr:
            failures.append((draw, code, json.dumps(doc)[:400], stderr[-600:]))
    assert not failures, failures[:3]
    # the draws exercise runs as well as refusals
    assert codes.count(0) >= 10 and codes.count(2) >= 10, codes
