"""Command-line surface: parsing, schemas, exit codes, reproducibility."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confmech.cli import (
    main,
    parse_config,
    read_trajectory_csv,
    trajectory_csv,
)
from confmech.errors import UsageError
from confmech.phase import Trajectory


class TestParseConfig:
    def test_verify_algebra_flags(self):
        cfg = parse_config(["verify-algebra", "--model", "inverse-square",
                            "--kappa", "1", "--dim", "3",
                            "--samples", "200", "--tol", "1e-8"])
        assert cfg.command == "verify-algebra"
        assert cfg.model == "inverse-square"
        assert cfg.kappa == 1.0 and cfg.dim == 3
        assert cfg.samples == 200 and cfg.tol == 1e-8
        assert cfg.seed == 0  # default

    def test_simulate_flags(self):
        cfg = parse_config(["simulate", "--model", "calogero",
                            "--particles", "3", "--g", "1",
                            "--dt", "1e-3", "--t-end", "10",
                            "--output", "traj.csv"])
        assert cfg.dt == 1e-3 and cfg.t_end == 10.0
        assert cfg.particles == 3 and cfg.output == "traj.csv"
        assert cfg.format == "csv"

    def test_negative_dt_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["simulate", "--model", "free", "--dim", "2",
                          "--dt", "-1"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["simulate", "--model", "free", "--frobnicate", "1"])

    def test_missing_model_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["simulate"])

    def test_config_file_merges(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model = inverse-square\nkappa = 1\n"
                            "dim = 2\nsamples = 50\n# comment\n")
        cfg = parse_config(["verify-algebra", "--config", str(cfg_file),
                            "--samples", "75"])
        assert cfg.model == "inverse-square"
        assert cfg.dim == 2
        assert cfg.samples == 75  # flag beats file

    def test_config_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("turbo = yes\n")
        with pytest.raises(UsageError):
            parse_config(["simulate", "--model", "free", "--dim", "2",
                          "--config", str(cfg_file)])


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["simulate", "--model", "free", "--dim", "2",
                     "--dt", "-1"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_verification_pass_is_0(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify-algebra", "--model", "inverse-square",
                     "--kappa", "1", "--dim", "3", "--samples", "25",
                     "--output", str(out)])
        assert code == 0

    def test_t_end_not_a_multiple_of_dt_is_2(self, capsys):
        argv = ["simulate", "--model", "inverse-square", "--dim", "2",
                "--kappa", "1", "--dt", "0.4", "--t-end", "1"]
        with pytest.raises(UsageError, match="multiple of --dt"):
            parse_config(argv)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--t-end must be a whole multiple of --dt" in captured.err

    def test_singular_start_is_3(self, tmp_path):
        out = tmp_path / "diag.json"
        code = main(["simulate", "--model", "calogero", "--particles", "3",
                     "--g", "1", "--state", "0,1,0,0",
                     "--t-end", "1", "--output", str(out)])
        assert code == 3
        diag = json.loads(out.read_text())
        assert diag["error"] == "SingularityApproachError"
        assert diag["last_good_time"] == 0.0

    def test_unwritable_output_is_3(self):
        code = main(["verify-algebra", "--model", "free", "--dim", "2",
                     "--samples", "5",
                     "--output", "/no/such/dir/report.json"])
        assert code == 3

    def test_unwritable_diagnostic_is_3(self, capsys):
        # a numeric failure whose diagnostic document cannot be written
        code = main(["simulate", "--model", "calogero", "--particles", "3",
                     "--state", "0,1,0,0", "--t-end", "1",
                     "--output", "/no/such/dir/diag.json"])
        assert code == 3
        assert capsys.readouterr().err.startswith("io error: ")

    @pytest.mark.parametrize("flags,message", [
        (["--model", "inverse-square", "--dim", "1", "--kappa", "1"],
         "usage error: inverse_square has no reference state at d = 1; "
         "pass an initial state"),
        (["--model", "higgs", "--dim", "3", "--omega", "1", "--kappa", "5"],
         "usage error: conformal_higgs takes no parameter 'kappa'"),
        (["--model", "calogero", "--particles", "4", "--dim", "9"],
         "usage error: calogero dimension is n - 1"),
    ], ids=["no-reference-state", "unused-parameter", "calogero-dimension"])
    def test_model_input_errors_are_2(self, capsys, flags, message):
        assert main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("flags", [
        ["--model", "free", "--dim", "1"],  # I = 0 everywhere
        ["--model", "inverse-square", "--dim", "1", "--kappa", "-1"],  # I < 0
    ], ids=["free-d1", "attractive-d1"])
    def test_no_admissible_state_is_3(self, tmp_path, flags):
        out = tmp_path / "diag.json"
        code = main(["verify-decoupling", *flags, "--samples", "5",
                     "--output", str(out)])
        assert code == 3
        diag = json.loads(out.read_text())
        assert diag["error"] == "IncompleteResultError"
        assert "attempt budget" in diag["message"]

    def test_verification_failure_is_1_report_written(self, tmp_path):
        # an absurd tolerance fails verification but still writes a report
        out = tmp_path / "r.json"
        code = main(["verify-algebra", "--model", "calogero",
                     "--particles", "3", "--g", "1",
                     "--samples", "10", "--tol", "1e-18",
                     "--output", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["pass"] is False


class TestTrajectoryCsv:
    def test_schema_and_length(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--model", "inverse-square", "--kappa",
                     "0.5", "--dim", "1", "--state", "1.0,0.0",
                     "--dt", "0.01", "--t-end", "0.03",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "t,q1,p1,H,D,K,I"
        assert len([ln for ln in lines if ln]) == 5  # header + 4 samples
        assert out.read_bytes().count(b"\r") == 0  # LF endings

    def test_round_trip_bit_exact(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["simulate", "--model", "inverse-square", "--kappa", "1",
              "--dim", "2", "--dt", "1e-3", "--t-end", "0.2",
              "--output", str(out)])
        ts, qs, ps, mons = read_trajectory_csv(str(out))
        from confmech import models
        from confmech.phase import integrate_verlet
        ms = models.spec("inverse-square", d=2, kappa=1.0)
        traj = integrate_verlet(models.build(ms),
                                models.reference_state(ms), 1e-3, 0.2)
        assert np.array_equal(ts, traj.times)
        assert np.array_equal(qs, traj.qs)
        assert np.array_equal(ps, traj.ps)
        for k in "HDKI":
            assert np.array_equal(mons[k], traj.monitors[k])


class TestReports:
    def test_algebra_report_keys(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify-algebra", "--model", "inverse-square", "--kappa", "1",
              "--dim", "3", "--samples", "25", "--output", str(out)])
        doc = json.loads(out.read_text())
        for key in ("relations", "residuals", "samples", "tol", "seed",
                    "pass", "version", "config"):
            assert key in doc
        assert doc["pass"] is True
        assert all(v < 1e-8 for v in doc["residuals"].values())

    def test_decoupling_verdicts(self, tmp_path):
        out = tmp_path / "d1.json"
        code = main(["verify-decoupling", "--model", "inverse-square",
                     "--kappa", "0.5", "--dim", "1", "--samples", "30",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "canonical"

    def test_decoupling_default_model(self, tmp_path):
        # bare --dim 1 defaults to the inverse-square system
        out = tmp_path / "d1.json"
        code = main(["verify-decoupling", "--dim", "1", "--samples", "20",
                     "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "canonical"

        out2 = tmp_path / "d2.json"
        code = main(["verify-decoupling", "--model", "free", "--dim", "2",
                     "--samples", "30", "--output", str(out2)])
        assert code == 0
        doc = json.loads(out2.read_text())
        assert doc["verdict"] == "non-canonical"
        assert doc["dimension"] == 2
        assert "brackets" in doc and "sign_notes" in doc

    def test_reports_byte_identical_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-algebra", "--model", "calogero", "--particles", "3",
                "--g", "1", "--samples", "40", "--seed", "7"]
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-algebra", "--model", "calogero", "--particles", "3",
                "--g", "1", "--samples", "40"]
        main(args + ["--seed", "1", "--output", str(a)])
        main(args + ["--seed", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestOtherCommands:
    def test_models_listing(self, capsys):
        assert main(["models"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in doc["models"]}
        assert names == {"free", "inverse_square", "conformal_higgs",
                         "conformal_coulomb", "calogero_relative"}

    def test_reduce_round_trip(self, capsys):
        assert main(["reduce", "--model", "free", "--dim", "3",
                     "--state", "2,0,0,0,1,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r"] == pytest.approx(2.0)
        assert doc["phi"] == pytest.approx([np.pi / 2, 0.0])
        assert doc["pi"] == pytest.approx([0.0, 2.0])
        assert doc["round_trip_error"] < 1e-10

    def test_reduce_pole_is_3(self, capsys):
        assert main(["reduce", "--model", "free", "--dim", "3",
                     "--state", "0,0,2,0,0,0"]) == 3

    def test_exact_report(self, capsys):
        assert main(["exact", "--model", "inverse-square", "--kappa", "0.5",
                     "--dim", "1", "--state", "1,0", "--t-end", "2",
                     "--num", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["E"] == pytest.approx(0.5)
        assert doc["I0"] == pytest.approx(0.5)
        assert doc["fall_time"] is None
        assert len(doc["samples"]) == 5
        assert doc["samples"][1]["r_squared"] == pytest.approx(
            2 * 0.5 * 0.5 ** 2 + 1.0)

    def test_exact_csv(self, tmp_path):
        out = tmp_path / "exact.csv"
        assert main(["exact", "--model", "inverse-square", "--kappa", "0.5",
                     "--dim", "1", "--state", "1,0", "--t-end", "1",
                     "--num", "3", "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,r_squared,T"
        assert len(lines) == 4

    def test_simulate_json_format(self, capsys):
        assert main(["simulate", "--model", "free", "--dim", "2",
                     "--state", "1,0,0,1", "--dt", "0.01", "--t-end", "0.02",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["times"]) == 3
        assert doc["monitors"]["H"][0] == pytest.approx(0.5)

    def test_reconstruct_csv(self, tmp_path):
        out = tmp_path / "rec.csv"
        assert main(["reconstruct", "--model", "inverse-square",
                     "--kappa", "1", "--dim", "2", "--t-end", "1",
                     "--num", "11", "--output", str(out)]) == 0
        ts, qs, ps, mons = read_trajectory_csv(str(out))
        assert len(ts) == 11
        H = mons["H"]
        assert np.max(np.abs(H - H[0])) < 1e-7


def test_trajectory_csv_17_digits():
    from confmech.phase import Trajectory
    tr = Trajectory([0.0, 1.0 / 3.0], np.array([[0.1], [0.2]]),
                    np.array([[0.3], [0.4]]),
                    {k: np.array([np.pi, np.e]) for k in "HDKI"})
    text = trajectory_csv(tr)
    row = text.split("\n")[2].split(",")
    assert float(row[0]) == 1.0 / 3.0  # 17 significant digits round-trip
    assert float(row[3]) == np.e


def _per_value_csv(traj):
    """The per-value formatter the whole-table one replaced."""
    d = traj.qs.shape[1]
    cols = (["t"] + [f"q{i + 1}" for i in range(d)]
            + [f"p{i + 1}" for i in range(d)] + ["H", "D", "K", "I"])
    lines = [",".join(cols)]
    mon = [traj.monitors[k] for k in ("H", "D", "K", "I")]
    for i in range(len(traj)):
        row = ([traj.times[i]] + list(traj.qs[i]) + list(traj.ps[i])
               + [m[i] for m in mon])
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _first_difference(text, want):
    """None, or (line number, line, wanted line) at the first difference;
    keeps a failure report short on long tables."""
    got, ref = text.split("\n"), want.split("\n")
    for i in range(max(len(got), len(ref))):
        a = got[i] if i < len(got) else None
        b = ref[i] if i < len(ref) else None
        if a != b:
            return i, a, b
    return None


def _table_trajectory(values):
    """A trajectory whose q, p and monitor columns hold ``values``
    (shape (n, 2 d + 4)); the times are 0, 1, 2, ..."""
    n, width = values.shape
    d = (width - 4) // 2
    mons = {k: values[:, 2 * d + j] for j, k in enumerate("HDKI")}
    return Trajectory(np.arange(float(n)), values[:, :d],
                      values[:, d:2 * d], mons)


class TestRowFormatter:
    EDGES = [-0.0, 5e-324, 1e308, 1.0 / 3.0, 1.0, -2.5e-310, np.nan,
             np.inf, -np.inf, -1e-5]

    def test_edge_values_over_several_chunks(self):
        # 2,600 rows: two full 1,024-row chunks and a partial one
        n, d = 2600, 3
        values = np.resize(np.array(self.EDGES), (n, 2 * d + 4))
        traj = _table_trajectory(values)
        text = trajectory_csv(traj)
        assert _first_difference(text, _per_value_csv(traj)) is None
        assert text.count("\n") == n + 1
        assert text.split("\n")[1].startswith("0,-0,4.9406564584124654e-324,")

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64,
                      st.tuples(st.integers(1, 12),
                                st.integers(1, 4).map(lambda d: 2 * d + 4)),
                      elements=st.floats(width=64)))
    def test_matches_per_value_formatter(self, values):
        traj = _table_trajectory(values)
        assert _first_difference(trajectory_csv(traj),
                                 _per_value_csv(traj)) is None
