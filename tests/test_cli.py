"""Command-line surface: parsing, schemas, exit codes, reproducibility."""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confmech.cli import (
    _csv,
    main,
    parse_config,
    read_trajectory_csv,
    trajectory_csv,
)
from confmech.errors import UsageError
from confmech.phase import Trajectory


def _reject_constant(name):
    """json.loads hook: Infinity, -Infinity and NaN are not strict JSON."""
    raise ValueError(f"non-finite JSON constant {name}")


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

    def test_flags_do_not_leak_between_calls(self):
        first = parse_config(["verify-algebra", "--model", "inverse-square",
                              "--kappa", "2", "--dim", "3", "--seed", "7",
                              "--samples", "9", "--format", "json"])
        assert (first.seed, first.samples, first.kappa) == (7, 9, 2.0)
        second = parse_config(["simulate", "--model", "free", "--dim", "2"])
        assert second.seed == 0 and second.samples == 200
        assert second.kappa is None and second.format == "csv"
        assert second.echo == {"command": "simulate", "model": "free",
                               "dim": 2}


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

    @pytest.mark.parametrize("argv", [
        ["models"],
        ["verify-algebra", "--model", "free", "--dim", "2"],
        ["verify-decoupling", "--dim", "2"],
        ["reduce", "--model", "free", "--dim", "2", "--state", "1,0,0,1"],
    ])
    def test_csv_on_a_json_only_command_is_2(self, argv, capsys):
        assert main([*argv, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "writes JSON only" in captured.err
        assert main([*argv, "--format", "json"]) == 0

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

    @pytest.mark.parametrize("argv,config,flag", [
        (["reconstruct", "--model", "free", "--dim", "3", "--t-end", "nan"],
         None, "--t-end"),
        (["reconstruct", "--model", "free", "--dim", "3", "--t-end", "inf"],
         None, "--t-end"),
        (["exact", "--model", "free", "--dim", "3", "--t-end", "inf"],
         None, "--t-end"),
        (["verify-algebra", "--model", "free", "--dim", "3", "--tol", "nan"],
         None, "--tol"),
        (["simulate", "--model", "higgs", "--dim", "3", "--omega", "nan"],
         None, "--omega"),
        (["simulate", "--model", "higgs", "--dim", "3", "--omega=-inf"],
         None, "--omega"),
        (["exact", "--model", "free", "--dim", "3"], "t_end = inf\n",
         "'t_end'"),
        (["simulate", "--model", "free", "--dim", "3",
          "--state", "nan,1,1,1,1,1"], None, "--state"),
    ], ids=["reconstruct-nan", "reconstruct-inf", "exact-inf", "tol-nan",
            "omega-nan", "omega-minus-inf", "config-file-inf", "state-nan"])
    def test_non_finite_float_is_2(self, tmp_path, capsys, argv, config,
                                   flag):
        if config is not None:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(config)
            argv = [*argv, "--config", str(cfg_file)]
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert flag in captured.err

    def test_config_file_value_outside_choices_is_2(self, tmp_path, capsys):
        # a config-file value meets the same choices as its flag
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# formats\nformat = xml\n")
        out = tmp_path / "out"
        argv = ["verify-algebra", "--model", "free", "--dim", "2",
                "--samples", "5", "--output", str(out)]
        assert main([*argv, "--config", str(cfg_file)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: {cfg_file}:2: bad value for "
                                "'format'\n")
        assert main([*argv, "--format", "xml"]) == 2
        cfg_file.write_text("format = json\n")
        assert main([*argv, "--config", str(cfg_file)]) == 0

    @pytest.mark.parametrize("command", ["verify-algebra",
                                         "verify-decoupling"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_2(self, tmp_path, capsys, command, source):
        argv = [command, "--model", "free", "--dim", "2", "--samples", "5"]
        if source == "flag":
            argv.append("--seed=-1")
        else:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text("seed = -1\n")
            argv += ["--config", str(cfg_file)]
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --seed must be >= 0\n"

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

    def test_unreachable_reconstruct_grid_is_3(self, tmp_path):
        # the grid [0, 1e-15] asks the angular flow for a time it cannot
        # reach in one step
        out = tmp_path / "diag.json"
        code = main(["reconstruct", "--model", "coulomb", "--dim", "3",
                     "--gamma", "1", "--t-end", "1e-15", "--num", "2",
                     "--output", str(out)])
        assert code == 3
        diag = json.loads(out.read_text())
        assert diag["error"] == "IncompleteResultError"
        # the message names the grid time asked for, not its reparametrized
        # time (9.17431192661e-16)
        assert "t=1e-15" in diag["message"]
        assert "e-16" not in diag["message"]

    @pytest.mark.parametrize("command", ["reconstruct", "exact"])
    def test_far_grid_is_0_with_finite_rows(self, tmp_path, command):
        # at t = 1e14 neighbouring grid times share one reparametrized time
        out = tmp_path / "out.json"
        code = main([command, "--model", "inverse-square", "--dim", "3",
                     "--kappa", "1", "--t-end", "1e14", "--num", "101",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        rows = doc["times"] if command == "reconstruct" else doc["samples"]
        assert len(rows) == 101

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["reconstruct", "exact"])
    def test_overflowing_radius_is_3(self, tmp_path, command, fmt):
        # r^2 overflows at t = 1e200; it was once written out as Infinity
        out = tmp_path / "out"
        code = main([command, "--model", "inverse-square", "--dim", "3",
                     "--kappa", "1", "--t-end", "1e200", "--num", "3",
                     "--format", fmt, "--output", str(out)])
        assert code == 3
        diag = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert diag["error"] == "NonFiniteError"

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
        # 2,600 rows: ten full 256-row chunks and a partial one
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

    @staticmethod
    def _matches(values, width=10):
        """``values`` laid out row by row in a table of ``width`` columns
        (zero-padded) write as the per-value formatter writes them."""
        values = np.asarray(values, dtype=np.float64).ravel()
        values = np.resize(values, -(-len(values) // width) * width)
        traj = _table_trajectory(values.reshape(-1, width))
        return _first_difference(trajectory_csv(traj),
                                 _per_value_csv(traj)) is None

    def test_ties_at_the_17th_digit(self):
        # 1 + j 2**-17 has 18 significant digits, the last a 5: a tie that
        # rounds to even
        ones = 1.0 + np.arange(1, 4001) * 2.0 ** -17
        assert self._matches(np.concatenate([ones, -ones]))
        assert self._matches(np.arange(1, 20001) * 2.0 ** -20)

    def test_neighbours_of_the_fixed_notation_ends(self):
        tens = 10.0 ** np.arange(-4, 18)
        near = [np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf),
                [9.9999999999999991e-05, 1e16 - 2, 1e17 - 16]]
        values = np.concatenate(near)
        assert self._matches(np.concatenate([values, -values]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                            endpoint=False).view(np.float64)
        assert self._matches(bits[np.isfinite(bits)])
        # the fixed-notation range, where the numpy path does the work
        mid = rng.uniform(-1.0, 1.0, 50_000) * 10.0 ** rng.integers(
            -5, 18, 50_000)
        assert self._matches(mid)

    @pytest.mark.parametrize("rows", [255, 256, 257, 1025])
    def test_chunk_edges(self, rows):
        rng = np.random.default_rng(rows)
        assert self._matches(rng.standard_normal(rows * 10))

    def test_one_value_table(self):
        for v in (0.1, -2.5, 1e-7, np.nan):
            assert _csv(["x"], [np.array([v])]) == f"x\n{v:.17g}\n"

    def test_special_values_raise_no_warning(self):
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.225073858507201e-308, -1e-310, 1.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self._matches(values)


# the catalog (models.catalog()) as command-line flags
_CATALOG_FLAGS = [
    ["--model", "free", "--dim", "3"],
    ["--model", "inverse-square", "--dim", "2", "--kappa", "1"],
    ["--model", "inverse-square", "--dim", "3", "--kappa", "1"],
    ["--model", "higgs", "--dim", "3", "--omega", "1"],
    ["--model", "coulomb", "--dim", "3", "--gamma", "1"],
    ["--model", "calogero", "--particles", "2", "--g", "1"],
    ["--model", "calogero", "--particles", "3", "--g", "1"],
    ["--model", "calogero", "--particles", "4", "--g", "1"],
]

# (command line before the model flags, SHA-256 over the exit code and
# standard output of every catalog model in turn)
_PINNED = {
    "simulate": (
        ["simulate", "--dt", "1e-3", "--t-end", "0.5"],
        "92819ae1415c72c5579cb695439bb52b782da2fcbe2b0602b29ec2ac0ee9cbc3"),
    "simulate-json": (
        ["simulate", "--dt", "1e-3", "--t-end", "0.5", "--format", "json"],
        "a4167f03f65a02c88e5a5c56b008ed25697adec64fd350cdce011318241c413a"),
    "reconstruct": (
        ["reconstruct", "--t-end", "5", "--num", "51"],
        "7a7bf16da859b083242977b58ab575e23a6dbb497f14c1ae27119972706f2df4"),
    "verify-algebra": (
        ["verify-algebra", "--samples", "200"],
        "69b865bc98183f73dc546c818ed14ca5492ba890da0238d9439b370bc0dbf68a"),
    "verify-decoupling": (
        ["verify-decoupling", "--samples", "200"],
        "ca5078b7b9ecad87613aa2ea63c32dac02b7eb49defbf9c4be9bf87d35b412eb"),
    "reduce": (
        ["reduce"],
        "9fc210404b78b0f199334864a825b9d0ab60cdb75e33822e63527950e70a0d11"),
    "exact": (
        ["exact", "--t-end", "2", "--num", "11"],
        "20b28b9b6556915c9c9a23ca981e7324d406ed3a0ba463f56a0239d73ba01d5d"),
}


class TestPinnedOutput:
    """Every command's bytes on the catalog, pinned: a change to any
    monitor, report, chart or radial value shows here."""

    @pytest.mark.parametrize("name", list(_PINNED))
    def test_catalog_bytes(self, name, capsys):
        argv, digest = _PINNED[name]
        h = hashlib.sha256()
        for flags in _CATALOG_FLAGS:
            code = main(argv + flags)
            h.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert h.hexdigest() == digest


def test_reconstruct_calls_match_their_manifest():
    # tests/identity_corpus.py checks all 240 pinned reconstruct calls;
    # this recomputes the full-size inputs of seeds 0 and 1 at rtol 1e-8
    # and 1e-12, which hold every workload model: the I0 < 0 state at
    # d = 2 and calogero n = 4 among them
    import identity_corpus as corpus

    pinned = json.loads(corpus.MANIFEST.read_text())["reconstruct"]
    table = corpus.workload_runs(
        "reconstruct", range(8),
        lambda key: key.startswith(("seed 0 full ", "seed 1 full "))
        and not key.endswith(" 1e-10"), rtols=corpus.RTOLS)
    assert len(table) == 20
    assert sum("inverse_square(d=2, kappa=-0.5)" in key for key in table) == 4
    assert sum("calogero_relative(d=3, g=1, n=4)" in key for key in table) == 4
    assert table == {key: pinned[key] for key in table}


@pytest.mark.parametrize("flags", _CATALOG_FLAGS, ids=lambda f: " ".join(f))
def test_decoupling_builds_its_system_once(flags, monkeypatch, capsys):
    # run builds the system and hands it to canonicity_report, which
    # builds one only when given a ModelSpec
    from confmech import lobachevsky, models

    calls = []
    build = models.build

    def counted(ms):
        calls.append(ms)
        return build(ms)

    for module in (models, lobachevsky):
        monkeypatch.setattr(module, "build", counted)
    assert main(["verify-decoupling", *flags, "--samples", "5"]) == 0
    assert len(calls) == 1


def test_verify_reports_match_their_manifest():
    # tests/identity_corpus.py checks all pinned verification reports;
    # this recomputes the workload's full size at seed 1 and smoke size at
    # seed 0 (its refused command among them), every library report at
    # seed 0 and the bracket lines of seed 0's states
    import identity_corpus as corpus

    pinned = json.loads(corpus.MANIFEST.read_text())["verify"]
    table = corpus.workload_runs(
        "verification", range(6),
        lambda key: key.startswith(("workload seed 0 smoke ",
                                    "workload seed 1 full ")))
    table.update(corpus.library_reports(lambda key: key.endswith(" seed 0")))
    table.update(corpus.bracket_runs(lambda key: " seed 0 state " in key))
    assert len(table) == 8 + 7 + 17 * 2 * 3 + 17 * 3
    assert table == {key: pinned[key] for key in table}


def test_simulate_runs_match_their_manifest():
    # tests/identity_corpus.py checks all pinned Verlet runs; this
    # recomputes the smoke-size workload of seed 0 (its refused command
    # among them), one attractive system's runs that stop at step 1, at
    # both edges of a 256-step block and at the final step, and the
    # unguarded escapes that overflow at such steps
    import identity_corpus as corpus

    pinned = json.loads(corpus.MANIFEST.read_text())["simulate"]
    base = "library inverse_square(d=1, kappa=-0.5) state 0 dt 0.0001"
    table = corpus.workload_runs(
        "trajectory", range(8),
        lambda key: key.startswith("workload seed 0 smoke "))
    with np.errstate(all="ignore"):
        runs = corpus.library_runs(
            lambda key: key.startswith((base, "library escape ")))
    stops = corpus.stop_steps(runs)
    assert sorted(stops) == [1, 255, 256, 257, 511, 512, 513, 915, 915]
    table.update((key, digest) for key, (digest, _) in runs.items())
    assert len(table) == 5 + 9 + 4
    assert table == {key: pinned[key] for key in table}
