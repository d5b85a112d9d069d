import csv
import json
import math

import pytest

import multivalley as mv
from multivalley import cli
from multivalley.config import SweepResult, parse_config, run_sweep, write_csv
from multivalley.errors import ConfigError, QuadratureError


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
        expected = mv.debye_radius(16.0, theta, 4.0e16)  # four populated valleys
        assert config.material.r_D == pytest.approx(expected, rel=1e-14)
        assert len(config.valleys) == 4
        assert config.material.m_perp == pytest.approx(0.082 * mv.M_ELECTRON)

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
            assert a.theta == pytest.approx(b.theta, rel=1e-15)

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

    @pytest.mark.parametrize("sweep", [
        {"kind": "omega", "min": 1.0e12, "max": 1.0e200, "points": 3},
        {"kind": "phi", "min": 0.0, "max": 3.0, "points": 3, "omega": 1.0e300},
    ])
    def test_overflowing_frequency_exit_two(self, tmp_path, capsys, sweep):
        cfg = self.write_config(tmp_path, base_config(regime="general", sweep=sweep))
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_non_finite_number_exit_two(self, tmp_path, capsys):
        doc = base_config()
        doc["material"]["n_a"] = math.inf  # JSON "Infinity", which json.loads accepts
        cfg = self.write_config(tmp_path, doc)
        assert cli.main(["--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2
        assert "material.n_a: must be finite" in capsys.readouterr().err

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
