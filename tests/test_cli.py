"""CLI plumbing tests: argument parsing, file round trips, reproducibility,
and exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvlearn import cli
from cvlearn.cli import main, parse_complex, parse_cvector
from cvlearn.errors import ValidationError
from cvlearn.measurements import MeasurementRecord
from cvlearn.numerics import make_rng, random_symmetric_unitary
from cvlearn.states import PeakState, char_fn, classicality_smax, make_three_peak


class TestComplexParsing:
    def test_literals(self):
        assert parse_complex("1+0.5i") == 1 + 0.5j
        assert parse_complex("-2i") == -2j
        assert parse_complex("0.7") == 0.7
        assert parse_complex("1 - 0.5i") == 1 - 0.5j
        assert parse_complex("0.3j") == 0.3j

    def test_round_trip_vector(self):
        v = parse_cvector("1+2i,-0.5i,3", 3)
        assert np.array_equal(v, np.array([1 + 2j, -0.5j, 3.0]))

    def test_bad_literal(self):
        with pytest.raises(ValidationError):
            parse_complex("one+i")


class TestParser:
    def test_main_builds_one_parser_per_process(self, tmp_path):
        for _ in range(2):
            assert main(["state", "classicality", "--nu", "0.5", "--eps0", "0.2",
                         "--gamma", "0.8", "--out", str(tmp_path / "c.json")]) == 0
        assert cli._parser.cache_info().misses == 1
        assert cli.build_parser() is not cli.build_parser()


class TestStateCommands:
    def test_eval_writes_grid_and_summary(self, tmp_path):
        out = tmp_path / "state"
        rc = main(["state", "eval", "--family", "three-peak", "--nu", "0.6",
                   "--eps0", "0.2", "--gamma", "1+0.5i", "--grid", "32",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "state.json").read_text())
        assert summary["s_max"] == pytest.approx(
            classicality_smax(0.6, 0.2, np.array([1 + 0.5j])).s_max)
        assert summary["tail_bound_margin"] <= 1e-12
        rows = (tmp_path / "state.csv").read_text().strip().splitlines()
        assert rows[0] == "beta_re,beta_im,chi_re,chi_im,wigner,husimi"
        assert len(rows) == 32 * 32 + 1

    def test_classicality_matches_library(self, tmp_path, capsys):
        rc = main(["state", "classicality", "--nu", "0.7", "--eps0", "0.1",
                   "--gamma", "1.2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_max"] == pytest.approx(
            classicality_smax(0.7, 0.1, np.array([1.2])).s_max)

    def test_state_file_round_trip(self, tmp_path):
        st = make_three_peak(1, 0.6, 0.2, np.array([0.8 - 0.1j]))
        path = tmp_path / "st.json"
        path.write_text(st.to_json())
        out = tmp_path / "re"
        rc = main(["state", "eval", "--state", str(path), "--grid", "16",
                   "--out", str(out)])
        assert rc == 0
        back = PeakState.from_json_dict(
            json.loads((tmp_path / "re.json").read_text())["state"])
        assert back.peak_multiset_equal(st, tol=1e-15)
        emitted = PeakState.from_json((tmp_path / "re.state.json").read_text())
        assert emitted.peak_multiset_equal(st, tol=1e-15)

    def test_eval_sample_estimate_pipeline(self, tmp_path):
        # The emitted .state.json feeds sample and estimate directly.
        out = tmp_path / "st"
        assert main(["state", "eval", "--family", "three-peak", "--nu", "0.6",
                     "--eps0", "0.2", "--gamma", "0.9", "--grid", "8",
                     "--out", str(out)]) == 0
        rec = tmp_path / "rec.jsonl"
        assert main(["sample", "--state", str(tmp_path / "st.state.json"),
                     "--scheme", "heterodyne", "--count", "20000",
                     "--seed", "3", "--out", str(rec)]) == 0
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[{"re": 0.5, "im": 0.0}]]))
        est = tmp_path / "est.json"
        assert main(["estimate", "--record", str(rec), "--points", str(pts),
                     "--scheme", "heterodyne", "--out", str(est)]) == 0
        st = make_three_peak(1, 0.6, 0.2, np.array([0.9]))
        got = complex(*json.loads(est.read_text())["estimates"][0]["estimate"])
        assert abs(got - complex(char_fn(st, np.array([0.5])))) < 0.05


class TestSampleEstimate:
    def test_bell_sample_then_estimate(self, tmp_path):
        st = make_three_peak(1, 0.6, 0.2, np.array([1.0]))
        spath = tmp_path / "st.json"
        spath.write_text(st.to_json())
        rec_path = tmp_path / "rec.jsonl"
        rc = main(["sample", "--state", str(spath), "--scheme", "bell",
                   "--u-seed", "3", "--count", "30000", "--seed", "11",
                   "--out", str(rec_path)])
        assert rc == 0
        rec = MeasurementRecord.read_jsonl(rec_path)
        assert rec.scheme == "bell" and rec.count == 30000

        pts_path = tmp_path / "pts.json"
        pts_path.write_text(json.dumps([[{"re": 1.0, "im": 0.0}],
                                        [{"re": 0.0, "im": 0.0}]]))
        est_path = tmp_path / "est.json"
        rc = main(["estimate", "--record", str(rec_path), "--points", str(pts_path),
                   "--scheme", "bell-chi", "--epsilon", "0.15",
                   "--out", str(est_path)])
        assert rc == 0
        payload = json.loads(est_path.read_text())
        assert len(payload["estimates"]) == 2
        chi_true = complex(char_fn(st, np.array([1.0])))
        est = payload["estimates"][0]["estimate"]
        err = min(abs(complex(*est) - chi_true), abs(complex(*est) + chi_true))
        assert err <= 0.15
        origin = complex(*payload["estimates"][1]["estimate"])
        assert origin == pytest.approx(1.0, abs=1e-12)

    def test_bell_record_independent_of_unitary(self, tmp_path):
        # the Bell partner is the conjugate state for every U
        spath = tmp_path / "st.json"
        spath.write_text(make_three_peak(2, 0.6, 0.2, np.array([1.0 + 0.5j, -0.3])).to_json())
        recs = [tmp_path / f"{k}.jsonl" for k in (3, 4)]
        for k, path in zip((3, 4), recs):
            assert main(["sample", "--state", str(spath), "--scheme", "bell",
                         "--u-seed", str(k), "--count", "200", "--seed", "5",
                         "--out", str(path)]) == 0
        assert recs[0].read_bytes() == recs[1].read_bytes()

    def test_sampling_reproducible_bytes(self, tmp_path):
        st = make_three_peak(1, 0.5, 0.2, np.array([0.5]))
        spath = tmp_path / "st.json"
        spath.write_text(st.to_json())
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            assert main(["sample", "--state", str(spath), "--scheme", "heterodyne",
                         "--count", "500", "--seed", "9", "--out", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestBoundsGameChannelOracle:
    def test_bounds_curve_overflow_is_a_gap(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["bounds", "curve", "--axis", "n", "--families", "lb_ef",
                   "--grid-min", "8", "--grid-max", "1000", "--points", "5",
                   "--epsilon", "0.09", "--kappa", "2", "--out", str(out)])
        assert rc == 0
        gaps = json.loads((tmp_path / "c.csv.json").read_text())["gaps"]
        assert gaps == [{"family": "lb_ef", "n": n, "hypothesis": "value overflows"}
                        for n in (752.0, 1000.0)]
        rows = out.read_text().strip().splitlines()
        assert rows[-2:] == ["752.0,", "1000.0,"]

    def test_bounds_curve_fig3_shape(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["bounds", "curve", "--axis", "kappa",
                   "--families", "lb_ef,ub_hd,ub_bm",
                   "--grid-min", "0.5", "--grid-max", "3.0", "--points", "6",
                   "--n", "50", "--epsilon", "0.09", "--delta", "0.3333",
                   "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "kappa,lb_ef,ub_hd,ub_bm"
        assert len(rows) == 7
        meta = json.loads((tmp_path / "curve.csv.json").read_text())
        assert meta["inputs"]["epsilon"] == 0.09
        # BM column is kappa-independent; lb_ef strictly increases.
        bm = [float(r.split(",")[3]) for r in rows[1:]]
        assert len(set(bm)) == 1
        lb = [float(r.split(",")[1]) for r in rows[1:] if r.split(",")[1]]
        assert all(b > a for a, b in zip(lb, lb[1:]))

    def test_game_run_byte_identical(self, tmp_path):
        cfg = {"family": "three_peak", "n": 1, "nu": 0.9, "eps0": 0.25,
               "kappa": 2.0, "copies": 200, "trials": 40, "bob": "ea_bell",
               "seed": 13, "u": {"seed": 5}, "estimate_tvd": False}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        outs = []
        for name in ["r1.json", "r2.json"]:
            opath = tmp_path / name
            rc = main(["game", "run", "--config", str(cpath), "--out", str(opath),
                       "--log", str(tmp_path / (name + ".log"))])
            assert rc == 0
            outs.append(opath.read_bytes())
        assert outs[0] == outs[1]
        assert (tmp_path / "r1.json.log").read_bytes() \
            == (tmp_path / "r2.json.log").read_bytes()
        payload = json.loads(outs[0])
        assert 0.0 <= payload["success_rate"] <= 1.0
        log_lines = (tmp_path / "r1.json.log").read_text().strip().splitlines()
        assert len(log_lines) == 40

    def test_channel_check(self, tmp_path):
        st = make_three_peak(1, 0.4, 0.1, np.array([1.0]))
        spath = tmp_path / "st.json"
        spath.write_text(st.to_json())
        out = tmp_path / "chan.json"
        rc = main(["channel", "check", "--state", str(spath), "--r", "1.0",
                   "--sets", "20", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"].startswith("valid")
        assert payload["c_channel"] == pytest.approx(1 - np.exp(-2.0))

    def test_oracle_check(self, tmp_path):
        st = make_three_peak(1, 0.5, 0.2, np.array([0.8]))
        spath = tmp_path / "st.json"
        spath.write_text(st.to_json())
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "check", "--state", str(spath), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["char_max_abs_error"] < 1e-6
        assert payload["min_eigenvalue"] >= -1e-9

    def test_oracle_check_says_what_it_checked(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "check", "--family", "five-peak", "--n", "2", "--nu", "0.5",
                   "--eps0", "0.2", "--gamma", "0.8+0.4i,-0.5i", "--u-seed", "3",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == payload["cutoff"] ** 2
        assert 0 < payload["kept_rows"] <= payload["dim"]
        assert 0.0 <= payload["dropped_norm_bound"] <= 1e-13
        assert payload["min_eigenvalue"] >= -1e-9


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        rc = main(["state", "eval", "--family", "three-peak", "--nu", "0.6",
                   "--eps0", "0.9", "--gamma", "1", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_bound_domain_is_2(self, tmp_path):
        rc = main(["bounds", "curve", "--axis", "kappa", "--families", "nope",
                   "--grid-min", "0.5", "--grid-max", "1.0", "--epsilon", "0.1",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    @pytest.mark.parametrize("nu", ["0.9", "0.85"])
    def test_oracle_above_dimension_cap_is_2(self, tmp_path, capsys, monkeypatch, nu):
        # default cutoffs 102 and 66: dimensions 10404 and 4356, refused before
        # any one-mode factor, let alone a dense matrix, is built
        from cvlearn import fock_oracle

        def refuse(*args):
            raise AssertionError("dense oracle work started")
        monkeypatch.setattr(fock_oracle, "_displacements_1mode", refuse)
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "check", "--family", "thermal", "--nu", nu, "--n", "2",
                   "--out", str(out)])
        assert rc == 2
        assert "exceeds the oracle cap 4096" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", ["five-peak", "three-peak", "thermal"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_mode_count_below_one_is_2(self, tmp_path, capsys, family, n):
        rc = main(["sample", "--family", family, "--nu", "0.5", "--eps0", "0.2", "--n", n,
                   "--scheme", "heterodyne", "--count", "10", "--seed", "1",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "mode count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["sample", "--family", "thermal", "--nu", "0.5", "--scheme", "heterodyne",
         "--count", "10", "--seed", "-1"],
        ["oracle", "check", "--family", "thermal", "--nu", "0.5", "--seed", "-2"]])
    def test_negative_seed_is_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(command + ["--out", str(out)]) == 2
        assert "seed and stream must be integers >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [
        (["bounds", "curve", "--axis", "kappa", "--families", "lb_ef,ub_bm,ub_hd",
          "--grid-min", "0.5", "--grid-max", "1.0", "--epsilon", "0.1"], "--points"),
        (["bounds", "curve", "--axis", "kappa", "--families", "ub_bm,ub_hd",
          "--grid-min", "0.5", "--grid-max", "1.0", "--epsilon", "0.1"], "--m-points"),
        (["state", "eval", "--family", "three-peak", "--nu", "0.6", "--eps0", "0.2",
          "--gamma", "1"], "--grid"),
        (["channel", "check", "--family", "thermal", "--nu", "0.6", "--r", "0.5"], "--sets")])
    @pytest.mark.parametrize("value", ["0", "-1", "-2", "2.5", "x"])
    def test_count_option_below_one_is_usage_error(self, tmp_path, capsys, command, option,
                                                   value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(command + [option, value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected an integer >= 1, got '{value}'" in err
        assert not any(tmp_path.iterdir())

    def test_module_entrypoint(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cvlearn.cli", "state", "classicality",
             "--nu", "0.6", "--eps0", "0.2", "--gamma", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["s_max"] > 0


# Runs in a fresh interpreter: the CLI round trips of both schemes, then the
# three SciPy-backed routines, each of which imports SciPy on first call.
# orjson, the record codec, must load with the first record and not before.
COLD_START = """
import json, sys
import cvlearn, cvlearn.cli
from cvlearn import fock_oracle, numerics, states

orjson_on_import = "orjson" in sys.modules
for args in ROUND_TRIPS:
    assert cvlearn.cli.main(args) == 0, args
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
orjson_after_round_trips = "orjson" in sys.modules
u = numerics.random_symmetric_unitary(2, numerics.make_rng(5))
v = numerics.takagi_decompose(u).v
state = states.make_three_peak(1, 0.5, 0.2, [0.8])
print(json.dumps({
    "scipy_loaded": loaded,
    "orjson_on_import": orjson_on_import,
    "orjson_after_round_trips": orjson_after_round_trips,
    "q": numerics.regularized_upper_gamma(2.5, 1.3),
    "v": [[z.real, z.imag] for z in v.ravel().tolist()],
    "oracle": fock_oracle.oracle_check(state, rng=numerics.make_rng(0)),
}))
"""


# Runs in a fresh interpreter: `cvlearn game run` on each (config, out) pair of GAMES,
# then prints the SciPy modules loaded.
GAME_COLD_START = """
import json, sys
import cvlearn.cli

for config, out in GAMES:
    assert cvlearn.cli.main(["game", "run", "--config", config, "--out", out]) == 0, config
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _round_trips(directory):
    """CLI arguments for a Bell and a heterodyne sample -> estimate round trip."""
    d = str(directory)
    state = ["--family", "three-peak", "--nu", "0.6", "--eps0", "0.2", "--gamma", "1"]
    return [
        ["sample", *state, "--scheme", "bell", "--u-seed", "3", "--count", "2000",
         "--seed", "11", "--out", f"{d}/bell.jsonl"],
        ["estimate", "--record", f"{d}/bell.jsonl", "--points", f"{d}/pts.json",
         "--scheme", "bell-chi2", "--epsilon", "0.2", "--out", f"{d}/bell_est.json"],
        ["sample", *state, "--scheme", "heterodyne", "--count", "2000", "--seed", "12",
         "--out", f"{d}/het.jsonl"],
        ["estimate", "--record", f"{d}/het.jsonl", "--points", f"{d}/pts.json",
         "--scheme", "heterodyne", "--out", f"{d}/het_est.json"],
    ]


class TestColdStart:
    def test_cli_round_trips_load_no_scipy(self, tmp_path):
        import cvlearn
        from cvlearn import fock_oracle
        from cvlearn.numerics import regularized_upper_gamma, takagi_decompose

        cold, warm = tmp_path / "cold", tmp_path / "warm"
        for d in (cold, warm):
            d.mkdir()
            (d / "pts.json").write_text(json.dumps([[{"re": 0.5, "im": 0.25}],
                                                    [{"re": -1.0, "im": 0.0}]]))
        src = str(Path(cvlearn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        script = f"ROUND_TRIPS = {_round_trips(cold)!r}\n" + COLD_START
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["scipy_loaded"] == []
        # the record codec loads orjson on first use, not on import
        assert not got["orjson_on_import"] and got["orjson_after_round_trips"]

        # the same commands in this process, where SciPy is loaded, write the same bytes
        for args in _round_trips(warm):
            assert main(args) == 0
        for name in ("bell.jsonl", "het.jsonl"):
            assert (cold / name).read_bytes() == (warm / name).read_bytes()
        for name in ("bell_est.json", "het_est.json"):
            assert json.loads((cold / name).read_text())["estimates"] \
                == json.loads((warm / name).read_text())["estimates"]

        # first calls in the fresh interpreter import SciPy and give the usual values
        assert got["q"] == regularized_upper_gamma(2.5, 1.3)
        v = takagi_decompose(random_symmetric_unitary(2, make_rng(5))).v
        assert np.allclose(np.array([complex(*z) for z in got["v"]]).reshape(2, 2), v,
                           rtol=0, atol=1e-14)
        want = fock_oracle.oracle_check(make_three_peak(1, 0.5, 0.2, [0.8]), rng=make_rng(0))
        assert got["oracle"]["cutoff"] == want["cutoff"]
        assert got["oracle"] == pytest.approx(want, rel=1e-9, abs=1e-14)
        assert got["oracle"]["char_max_abs_error"] < 1e-6
        assert got["oracle"]["min_eigenvalue"] >= -1e-9

    def test_five_peak_games_load_no_scipy(self, tmp_path):
        # the five-peak window reads U itself, so no game needs a Takagi factor
        import cvlearn

        base = {"family": "five_peak", "n": 2, "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
                "trials": 40, "seed": 3, "u": {"seed": 5}, "tvd_gamma_draws": 4,
                "tvd_mc_samples": 20}
        games = []
        for name, extra in (("bell", {"bob": "ea_bell", "copies": 20}),
                            ("het", {"bob": "ef_heterodyne", "order": "or", "copies": 9})):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(base | extra))
            games.append((str(config), str(tmp_path / f"{name}_out.json")))
        src = str(Path(cvlearn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", f"GAMES = {games!r}\n" + GAME_COLD_START],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        for _, out in games:
            res = json.loads(Path(out).read_text())
            assert 0 < res["window_hit_rate"] <= 1 and 0 <= res["success_rate"] <= 1


class TestInputErrors:
    def _record_and_points(self, tmp_path):
        rec = tmp_path / "rec.jsonl"
        assert main(["sample", "--family", "thermal", "--nu", "0.5", "--scheme",
                     "heterodyne", "--count", "10", "--seed", "1", "--out", str(rec)]) == 0
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[{"re": 0.5, "im": 0.0}]]))
        return rec, pts

    def test_numeric_failure_is_3(self, tmp_path, capsys, monkeypatch):
        from cvlearn import fock_oracle
        from cvlearn.errors import NumericFailure

        def fail(*args, **kwargs):
            raise NumericFailure("forced for the test")

        monkeypatch.setattr(fock_oracle, "oracle_check", fail)
        rc = main(["oracle", "check", "--family", "thermal", "--nu", "0.5",
                   "--out", str(tmp_path / "oracle.json")])
        assert rc == 3
        assert "numeric failure: forced for the test" in capsys.readouterr().err

    def test_missing_record_is_2(self, tmp_path, capsys):
        _, pts = self._record_and_points(tmp_path)
        rc = main(["estimate", "--record", str(tmp_path / "nope.jsonl"), "--points",
                   str(pts), "--scheme", "heterodyne", "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_missing_points_is_2(self, tmp_path):
        rec, _ = self._record_and_points(tmp_path)
        rc = main(["estimate", "--record", str(rec), "--points", str(tmp_path / "nope"),
                   "--scheme", "heterodyne", "--out", str(tmp_path / "e.json")])
        assert rc == 2

    def test_malformed_points_is_2(self, tmp_path):
        rec, pts = self._record_and_points(tmp_path)
        pts.write_text("[[{")
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(tmp_path / "e.json")])
        assert rc == 2

    def test_truncated_record_is_2(self, tmp_path):
        rec, pts = self._record_and_points(tmp_path)
        rec.write_text("".join(rec.read_text().splitlines(keepends=True)[:-1]))
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(tmp_path / "e.json")])
        assert rc == 2

    @pytest.mark.parametrize("line", [0, 4])   # the header, then a row
    def test_record_not_utf8_is_2(self, tmp_path, capsys, line):
        rec, pts = self._record_and_points(tmp_path)
        lines = rec.read_bytes().splitlines(keepends=True)
        lines[line] = lines[line][:4] + b"\xff" + lines[line][4:]
        rec.write_bytes(b"".join(lines))
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(out)])
        assert rc == 2
        assert "malformed measurement record" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_state_is_2(self, tmp_path):
        rc = main(["sample", "--state", str(tmp_path / "nope.json"), "--scheme", "bell",
                   "--count", "10", "--seed", "1", "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2

    def test_missing_config_is_2(self, tmp_path):
        rc = main(["game", "run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "g.json")])
        assert rc == 2

    def _game(self, tmp_path, cfg):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        return main(["game", "run", "--config", str(cpath), "--out", str(tmp_path / "g.json")])

    @pytest.mark.parametrize("key, value", [("nu", 0.0), ("nu", 1.0), ("eps0", float("nan")),
                                            ("eps0", -0.5), ("eps0", float("inf"))])
    def test_out_of_range_game_nu_or_eps0_is_2(self, tmp_path, capsys, key, value):
        cfg = {"family": "three_peak", "n": 1, "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
               "copies": 10, "trials": 2, key: value}
        assert self._game(tmp_path, cfg) == 2
        assert f"{key} must lie in" in capsys.readouterr().err

    def test_unknown_game_key_is_2(self, tmp_path, capsys):
        cfg = {"family": "three_peak", "n": 1, "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
               "copies": 10, "trials": 2, "estimate_tvd": False, "colour": "red"}
        assert self._game(tmp_path, cfg) == 2
        assert "colour" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", [float("inf"), float("nan"), 0.0])
    def test_non_finite_or_non_positive_kappa_is_2(self, tmp_path, capsys, kappa):
        cfg = {"family": "three_peak", "n": 1, "nu": 0.9, "eps0": 0.25, "kappa": kappa,
               "copies": 10, "trials": 2}
        assert self._game(tmp_path, cfg) == 2
        assert "kappa must be a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [[[{"re": 1}]], [[1.0, 2.0]], [[{"re": 1, "im": 0}] * 2],
                                        {"re": 1, "im": 0}, [[{"re": 1, "im": 0}], []]])
    def test_malformed_point_rows_are_2(self, tmp_path, capsys, points):
        rec, pts = self._record_and_points(tmp_path)
        pts.write_text(json.dumps(points))
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err

    def test_empty_points_give_no_estimates(self, tmp_path):
        rec, pts = self._record_and_points(tmp_path)
        pts.write_text("[]")
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["estimates"] == []

    @pytest.mark.parametrize("eps", ["0", "1.5"])
    def test_classicality_aware_epsilon_outside_unit_interval_is_2(self, tmp_path, capsys,
                                                                   eps):
        rec, pts = self._record_and_points(tmp_path)
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "classicality-aware", "--classicality", "0.5",
                   "--epsilon", eps, "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "epsilon must lie in (0,1)" in capsys.readouterr().err

    @pytest.mark.parametrize("u", ["abc", 5, {"sed": 3}, {"seed": 3, "n": 1}, {"seed": -1},
                                   {"seed": 2.5}, {"seed": True}])
    def test_malformed_game_unitary_is_2(self, tmp_path, capsys, u):
        cfg = {"family": "three_peak", "n": 1, "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
               "copies": 10, "trials": 2, "estimate_tvd": False, "u": u}
        assert self._game(tmp_path, cfg) == 2
        assert "config key u" in capsys.readouterr().err

    def test_game_unitary_seed_and_matrix_agree(self, tmp_path):
        # {"seed": k} and the matrix it names, written out, give the same bytes.
        outs = []
        m = random_symmetric_unitary(2, make_rng(5)).matrix
        for u in [{"seed": 5}, [[{"re": z.real, "im": z.imag} for z in row] for row in m]]:
            cfg = {"family": "five_peak", "n": 2, "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
                   "copies": 20, "trials": 30, "seed": 13, "u": u, "estimate_tvd": False}
            assert self._game(tmp_path, cfg) == 0
            outs.append((tmp_path / "g.json").read_bytes())
        assert outs[0] == outs[1]

    def test_u_file_seed_spec(self, tmp_path):
        # a --u-file holds the same spec as a game config's "u"
        ufile = tmp_path / "u.json"
        ufile.write_text(json.dumps({"seed": 4}))
        args = ["sample", "--family", "five-peak", "--nu", "0.5", "--eps0", "0.2",
                "--gamma", "0.5", "--n", "1", "--scheme", "heterodyne", "--count", "10",
                "--seed", "1"]
        assert main(args + ["--u-file", str(ufile), "--out", str(tmp_path / "a.jsonl")]) == 0
        assert main(args + ["--u-seed", "4", "--out", str(tmp_path / "b.jsonl")]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_malformed_u_file_is_2(self, tmp_path):
        ufile = tmp_path / "u.json"
        ufile.write_text(json.dumps([[1, 2]]))
        rc = main(["sample", "--family", "five-peak", "--nu", "0.5", "--eps0", "0.2",
                   "--gamma", "0.5", "--u-file", str(ufile), "--scheme", "heterodyne",
                   "--count", "10", "--seed", "1", "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("flags,missing", [(["--eps0", "0.2"], "--nu"),
                                               (["--nu", "0.5"], "--eps0")])
    def test_three_peak_without_nu_or_eps0_is_2(self, tmp_path, capsys, flags, missing):
        rc = main(["sample", "--family", "three-peak", *flags, "--gamma", "0.5",
                   "--scheme", "heterodyne", "--count", "10", "--seed", "1",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert missing in capsys.readouterr().err

    def test_state_center_length_mismatch_is_2(self, tmp_path):
        d = make_three_peak(1, 0.5, 0.2, np.array([0.5])).to_json_dict()
        d["n"] = 2
        spath = tmp_path / "st.json"
        spath.write_text(json.dumps(d))
        rc = main(["sample", "--state", str(spath), "--scheme", "heterodyne",
                   "--count", "10", "--seed", "1", "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("key, value", [("copies", 2.5), ("trials", 2.5), ("n", 1.0),
                                            ("seed", 1.5), ("tvd_gamma_draws", 0),
                                            ("tvd_mc_samples", 0), ("tvd_mc_samples", 2.5)])
    def test_non_integer_or_empty_game_counts_are_2(self, tmp_path, capsys, key, value):
        cfg = {"family": "three_peak", "n": 1, "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
               "copies": 10, "trials": 2, key: value}
        assert self._game(tmp_path, cfg) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("n", 1.5), ("n", True), ("count", 2.9),
                                            ("count", 2.0), ("seed", 2.7), ("seed", "3")])
    def test_non_integer_record_header_field_is_2(self, tmp_path, capsys, key, value):
        rec, pts = self._record_and_points(tmp_path)
        lines = rec.read_text().splitlines(keepends=True)
        header = {**json.loads(lines[0]), key: value}
        rec.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(out)])
        assert rc == 2
        assert f"record header {key} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_state_mode_count_is_2(self, tmp_path, capsys):
        d = make_three_peak(1, 0.5, 0.2, np.array([0.8])).to_json_dict()
        d["n"] = 1.7
        spath = tmp_path / "st.json"
        spath.write_text(json.dumps(d))
        out = tmp_path / "oracle.json"
        assert main(["oracle", "check", "--state", str(spath), "--out", str(out)]) == 2
        assert "mode count n must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, -1])
    def test_record_mode_count_below_one_is_2(self, tmp_path, capsys, n):
        rec, pts = self._record_and_points(tmp_path)
        lines = rec.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["n"] = n
        rec.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "validation error" in capsys.readouterr().err

    def test_game_config_without_n_is_2(self, tmp_path, capsys):
        cfg = {"family": "three_peak", "nu": 0.9, "eps0": 0.25, "kappa": 2.0,
               "copies": 10, "trials": 2}
        assert self._game(tmp_path, cfg) == 2
        assert "lacks 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1000, 10 ** 11])
    def test_record_header_n_sizes_nothing_before_rows_are_read(self, tmp_path, capsys, n):
        # no array may be sized from the header before a row of its width is
        # parsed: a first block of min(count, RECORD_BLOCK) rows of 2n floats
        # is 262 MB at n = 1000, and at n = 1e11 no allocation can succeed
        _, pts = self._record_and_points(tmp_path)
        rec, out = tmp_path / "big_n.jsonl", tmp_path / "e.json"
        header = {"scheme": "heterodyne", "n": n, "seed": 2, "count": 20000}
        rec.write_text(json.dumps(header) + "\n[0.1, 0.2]\n")
        tracemalloc.start()
        try:
            rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                       "--scheme", "heterodyne", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and peak < 10 ** 7
        assert "malformed measurement record" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [["--family", "three-peak"], ["--nu", "0.9"],
                                       ["--eps0", "0.1"], ["--gamma", "1"],
                                       ["--family", "thermal", "--nu", "0.5"]],
                             ids=["family", "nu", "eps0", "gamma", "family-and-nu"])
    def test_state_file_with_family_options_is_2(self, tmp_path, capsys, extra):
        # one source per input: a state file with family options is refused,
        # not read with the options ignored
        spath, out = tmp_path / "st.json", tmp_path / "r.jsonl"
        spath.write_text(make_three_peak(1, 0.6, 0.2, np.array([0.5])).to_json())
        rc = main(["sample", "--state", str(spath), *extra, "--scheme", "bell",
                   "--count", "10", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert f"--state excludes {extra[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_u_file_with_u_seed_is_usage_error(self, tmp_path, capsys):
        # one source per unitary: argparse refuses the pair before any work
        ufile, out = tmp_path / "u.json", tmp_path / "r.jsonl"
        ufile.write_text(json.dumps({"seed": 4}))
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--family", "five-peak", "--nu", "0.5", "--eps0", "0.2",
                  "--gamma", "0.5", "--u-file", str(ufile), "--u-seed", "9",
                  "--scheme", "bell", "--count", "10", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument --u-file" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInputs:
    """NaN and +-inf exit 2 as input errors wherever they enter, and no output
    holds a NaN or an infinity: a mean that overflows exits 3."""

    def _record_and_points(self, tmp_path):
        return TestInputErrors()._record_and_points(tmp_path)

    @pytest.mark.parametrize("command", [
        ["channel", "check", "--family", "thermal", "--nu", "0.6", "--r"],
        ["estimate", "--record", "r.jsonl", "--points", "p.json", "--scheme",
         "classicality-aware", "--epsilon", "0.1", "--classicality"],
        ["state", "eval", "--family", "thermal", "--nu", "0.6", "--eps0"],
        ["bounds", "curve", "--axis", "n", "--families", "lb_ef", "--grid-min", "8",
         "--grid-max", "20", "--epsilon", "0.09", "--kappa"]])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_option_is_usage_error(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:   # --r=-inf: "-inf" alone reads as an option
            main(command[:-1] + [f"{command[-1]}={value}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"expected a finite number, got '{value}'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("gamma", ["nan", "0.5,nan+1i"])
    def test_classicality_nan_gamma_is_2(self, capsys, gamma):
        # a NaN gamma is an input error (2), not a NaN in the output (3)
        rc = main(["state", "classicality", "--nu", "0.5", "--eps0", "0.2", f"--gamma={gamma}"])
        assert rc == 2
        assert "center vector has non-finite entries" in capsys.readouterr().err

    def test_nan_u_file_is_2(self, tmp_path, capsys):
        # NaN passed both unitary checks (nan > tol is False), and the
        # reflected peaks' NaN centers merged into the anchor
        ufile = tmp_path / "u.json"
        ufile.write_text('[[{"re": NaN, "im": 0.0}]]')
        out = tmp_path / "r.jsonl"
        rc = main(["sample", "--family", "five-peak", "--nu", "0.5", "--eps0", "0.2",
                   "--gamma", "0.5", "--u-file", str(ufile), "--scheme", "heterodyne",
                   "--count", "10", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert "--u-file has non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", [
        ["sample", "--scheme", "heterodyne", "--count", "10", "--seed", "1"],
        ["oracle", "check"]])
    def test_non_finite_state_center_is_2(self, tmp_path, capsys, value, command):
        # a NaN center merged into the anchor, and +-inf ones made the state thermal
        text = make_three_peak(1, 0.5, 0.2, np.array([0.8])).to_json()
        spath = tmp_path / "st.json"
        spath.write_text(text.replace('"re": 0.8', f'"re": {value}', 1))
        assert value in spath.read_text()
        out = tmp_path / "out"
        assert main(command + ["--state", str(spath), "--out", str(out)]) == 2
        assert "center vector has non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_query_point_is_2(self, tmp_path, capsys, value):
        rec, pts = self._record_and_points(tmp_path)
        pts.write_text(f'[[{{"re": 0.5, "im": {value}}}]]')
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(out)])
        assert rc == 2
        assert "--points has non-finite entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["heterodyne", "bell-chi2"])
    def test_epsilon_outside_unit_interval_is_2_for_every_scheme(self, tmp_path, capsys,
                                                                   scheme):
        # the epsilon a report carries was written unchecked for these schemes
        rec, pts = self._record_and_points(tmp_path)
        if scheme == "bell-chi2":
            rec = tmp_path / "bell.jsonl"
            assert main(["sample", "--family", "thermal", "--nu", "0.5", "--scheme", "bell",
                         "--count", "10", "--seed", "1", "--out", str(rec)]) == 0
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts), "--scheme", scheme,
                   "--epsilon", "5", "--out", str(out)])
        assert rc == 2
        assert "epsilon must lie in (0,1), got 5.0" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_heterodyne_mean_is_3(self, tmp_path, capsys):
        # |alpha|^2 = 1600: e^{|alpha|^2/2} overflows, and the estimate was [NaN, NaN]
        rec, pts = self._record_and_points(tmp_path)
        pts.write_text(json.dumps([[{"re": 0.5, "im": 0.0}], [{"re": 40.0, "im": 0.0}]]))
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(out)])
        assert rc == 3
        assert "the mean at query point [40.+0.j] overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_output_is_3(self, tmp_path, capsys, monkeypatch):
        from cvlearn import fock_oracle

        monkeypatch.setattr(fock_oracle, "oracle_check",
                            lambda *args, **kwargs: {"min_eigenvalue": float("nan")})
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "check", "--family", "thermal", "--nu", "0.5", "--out", str(out)])
        assert rc == 3
        assert "numeric failure: output holds a number JSON cannot write" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ['["0.1", "0.2"]', "[true, false]", '[1e3, "5"]',
                                     "[null, 0.2]", "[0.1, NaN]", "[-Infinity, 0.2]"])
    def test_record_value_that_is_not_a_number_is_2(self, tmp_path, capsys, row):
        rec, pts = self._record_and_points(tmp_path)
        lines = rec.read_text().splitlines(keepends=True)
        rec.write_text("".join(lines[:-1]) + row + "\n")
        out = tmp_path / "e.json"
        rc = main(["estimate", "--record", str(rec), "--points", str(pts),
                   "--scheme", "heterodyne", "--out", str(out)])
        assert rc == 2
        assert "malformed measurement record" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("file", ["points", "u-file", "state"])
    def test_json_bool_component_is_2(self, tmp_path, capsys, file, value):
        # re + 1j * im read JSON true as 1 and false as 0, so each file below,
        # true where a 1 belongs and false where a 0 does, exited 0
        rec, _ = self._record_and_points(tmp_path)
        z = {"re": True, "im": 0.0} if value else {"re": 1.0, "im": False}
        bad, out, what = tmp_path / "bad.json", tmp_path / "out", f"--{file}"
        sample = ["sample", "--scheme", "heterodyne", "--count", "10", "--seed", "1"]
        if file == "points":
            command = ["estimate", "--record", str(rec), "--points", str(bad),
                       "--scheme", "heterodyne"]
        elif file == "u-file":
            command = sample + ["--family", "five-peak", "--nu", "0.5", "--eps0", "0.2",
                                "--gamma", "0.5", "--u-file", str(bad)]
        else:   # the anchor peak (1, 0): its weight, or its center
            state = make_three_peak(1, 0.5, 0.2, np.array([0.8])).to_json_dict()
            if value:
                state["peaks"][0]["w_re"], what = True, "weight vector"
            else:
                state["peaks"][0]["center"], what = [{"re": 0.0, "im": False}], "center vector"
            command = sample + ["--state", str(bad)]
        bad.write_text(json.dumps(state if file == "state" else [[z]]))
        assert main(command + ["--out", str(out)]) == 2
        assert f"{what} has non-finite entries or parts that are not numbers, got {value}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps0", ['"abc"', "true", "NaN", "0.3"])
    def test_state_file_eps0_outside_its_range_is_2(self, tmp_path, capsys, eps0):
        # the descriptor copied an unchecked eps0 into the record
        text = make_three_peak(1, 0.5, 0.2, np.array([0.8])).to_json()
        spath = tmp_path / "st.json"
        spath.write_text(text.replace('"eps0": 0.2', f'"eps0": {eps0}'))
        assert f'"eps0": {eps0}' in spath.read_text()
        out = tmp_path / "r.jsonl"
        assert main(["sample", "--state", str(spath), "--scheme", "heterodyne",
                     "--count", "10", "--seed", "1", "--out", str(out)]) == 2
        assert "eps0 must lie in (0, 1/4]" in capsys.readouterr().err
        assert not out.exists()
