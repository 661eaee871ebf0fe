"""Tests for the command-line front end: config parsing, commands,
exit codes and determinism."""

import csv
import io
import json
import os
import pickle
import time

import pytest

from sfi import cli
from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import normalize as nz
from sfi import spherebasis as sb


AVAILABLE_CPUS = cli._available_cpus


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = """\
[space]
K = -1
n = 3
rho = 0.9

[grid]
basis_degree = 5

[weight]
kind = affine
"""

PERTURB_RANDOM = """
[perturbation]
mode = random
degrees = 2,3
directions = 2
seed = 11
epsilon = 0.004
"""

CASE_STAB = """
[case:main]
theorem = sigmak-quermass-hyperbolic
k = 1
j = 0
"""


@pytest.fixture(autouse=True)
def cpus(monkeypatch):
    """Two CPUs available, so --threads 2 forks on any host; call with n
    to make n available."""
    def make_available(n):
        monkeypatch.setattr(cli, "_available_cpus", lambda: n)
    make_available(2)
    return make_available


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls, each passed on to the real os.fork."""
    real_fork = os.fork
    calls = []

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


class TestConfigParsing:
    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE + "\n[mystery]\nx = 1\n")
        with pytest.raises(cli.ConfigError, match="mystery"):
            cli.load_config(path)

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = write_config(tmp_path, BASE + "\n[output]\nbogus = 1\n")
        with pytest.raises(cli.ConfigError, match="output.bogus"):
            cli.load_config(path)

    def test_missing_required_key_named(self, tmp_path):
        path = write_config(tmp_path, "[space]\nK = 0\nn = 3\n\n"
                                      "[weight]\nkind = affine\n")
        with pytest.raises(cli.ConfigError, match="space.rho"):
            cli.load_config(path)

    def test_type_errors_name_the_key(self, tmp_path):
        path = write_config(tmp_path, BASE.replace("n = 3", "n = three"))
        with pytest.raises(cli.ConfigError, match="space.n"):
            cli.load_config(path)

    def test_case_sections_preserve_order(self, tmp_path):
        body = BASE + """
[case:second]
theorem = sigmak-quermass-euclidean
[case:first]
theorem = H-volume
"""
        _, cases = cli.load_config(write_config(tmp_path, body))
        assert [name for name, _ in cases] == ["case:second", "case:first"]

    def test_typed_lists(self, tmp_path):
        body = BASE + "\n[perturbation]\ndegrees = 2, 3,4\n" \
                      "epsilon = 0.01,0.02\n"
        sections, _ = cli.load_config(write_config(tmp_path, body))
        assert sections["perturbation"]["degrees"] == (2, 3, 4)
        assert sections["perturbation"]["epsilon"] == (0.01, 0.02)

    def test_case_insensitive_keys_not_collapsed(self, tmp_path):
        # K and k are distinct names; the parser must not lowercase keys
        sections, _ = cli.load_config(write_config(tmp_path, BASE))
        assert sections["space"]["K"] == -1


class TestBuildHelpers:
    def test_weight_kinds(self, tmp_path):
        assert cli.build_weight({"kind": "constant", "value": 2.0})(0.3) \
            == 2.0
        assert cli.build_weight({"kind": "power", "alpha": 1.0})(0.3) \
            == pytest.approx(0.3)
        assert cli.build_weight({"kind": "affine"})(0.3) \
            == pytest.approx(1.3)
        assert cli.build_weight({"kind": "shifted_power",
                                 "alpha": 2.0})(0.3) \
            == pytest.approx(1.69)
        scaled = cli.build_weight({"kind": "affine", "scale": 10.0})
        assert scaled(0.3) == pytest.approx(13.0)
        with pytest.raises(cli.ConfigError, match="weight.kind"):
            cli.build_weight({"kind": "nope"})

    def test_bad_case_parameters_become_config_errors(self, tmp_path):
        from sfi.spaceform import SpaceForm, WeightFunction
        sf = SpaceForm(K=-1, n=3)
        w = WeightFunction.affine()
        with pytest.raises(cli.ConfigError, match="case:x"):
            cli.build_cases([("case:x", {"theorem": "no-such"})], sf, w, 0.9)

    def test_out_dir_env(self, monkeypatch):
        monkeypatch.setenv("SFI_OUT_DIR", "/some/dir")
        assert cli.resolve_out_path("rows.csv") == "/some/dir/rows.csv"
        assert cli.resolve_out_path("/abs/rows.csv") == "/abs/rows.csv"
        monkeypatch.delenv("SFI_OUT_DIR")
        assert cli.resolve_out_path("rows.csv") == "rows.csv"
        assert cli.resolve_out_path(None) is None


class TestEvalCommand:
    def test_round_ball_matches_closed_forms(self, tmp_path, capsys):
        from math import comb

        from sfi.spaceform import SpaceForm, WeightFunction

        path = write_config(tmp_path, BASE)
        code = cli.main(["eval", "--config", path])
        captured = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(captured)))
        assert len(rows) == 1
        got = rows[0]
        sf = SpaceForm(K=-1, n=3)
        vol = sf.sphere_area * sf.volume_primitive(0.9)
        assert float(got["volume"]) == pytest.approx(vol, rel=1e-10)
        ph, dp = sf.phi(0.9), sf.dphi(0.9)
        for k in range(4):
            want = comb(3, k) * sf.sphere_area * ph ** (3 - k) * dp ** k
            assert float(got[f"sigma_int_{k}"]) == pytest.approx(
                want, rel=1e-10), k
        assert got["mean_convex"] == "true"
        assert float(got["vol_err"]) < 1e-8
        # the finer-grid error fields, on the ball and on a perturbed
        # surface
        path = write_config(tmp_path, BASE + PERTURB_RANDOM)
        assert cli.main(["eval", "--config", path]) == 0
        perturbed = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        for row in (got, perturbed):
            assert float(row["vol_err"]) < 1e-9 * float(row["volume"])
            assert float(row["area_err"]) < 1e-9 * float(row["area"])

    def test_node_dump(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        dump = tmp_path / "nodes.csv"
        code = cli.main(["eval", "--config", path, "--out",
                         str(tmp_path / "report.txt"), "--dump-nodes",
                         str(dump)])
        assert code == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0].startswith("node,r,H,kappa1")
        assert len(lines) > 100

    def test_one_geometry_on_the_working_grid(self, tmp_path, monkeypatch):
        from sfi import graphgeom as gg
        from sfi import spherebasis as sb

        node_counts = []
        build = gg.surface_geometry

        def counted(graph, grid, *args, **kwargs):
            node_counts.append(grid.node_count)
            return build(graph, grid, *args, **kwargs)

        monkeypatch.setattr(gg, "surface_geometry", counted)
        path = write_config(tmp_path, BASE + PERTURB_RANDOM)
        assert cli.main(["eval", "--config", path, "--out",
                         str(tmp_path / "e.csv")]) == 0
        working = sb.build_grid(3, sb.default_resolution(5)).node_count
        assert node_counts.count(working) == 1

    def test_spherical_domain_far_past_the_equator(self, tmp_path, capsys):
        # K = +1, rho = 2.8: the barycenter converges, so the report is
        # written instead of a numerical failure
        body = BASE.replace("K = -1", "K = 1").replace(
            "rho = 0.9", "rho = 2.8").replace(
            "basis_degree = 5", "basis_degree = 5\nresolution = 20")
        path = write_config(tmp_path, body + (
            "\n[perturbation]\nmode = random\nseed = 4\nepsilon = 0.01\n"))
        assert cli.main(["eval", "--config", path]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert 1e-5 < float(rows[0]["barycenter_displacement"]) < 1e-3

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + "\n[space]\n")
        assert cli.main(["eval", "--config", path]) == 2
        path2 = write_config(
            tmp_path,
            BASE.replace("basis_degree = 5",
                         "basis_degree = 5\nresolution = 4"),
            name="lowres.ini")
        assert cli.main(["eval", "--config", path2]) == 2
        err = capsys.readouterr().err
        assert "grid.resolution" in err

    def test_missing_file_is_config_error(self, capsys):
        assert cli.main(["eval", "--config", "/no/such/file.ini"]) == 2

    def test_eval_section_is_unknown(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + "\n[eval]\nrefine = false\n")
        assert cli.main(["eval", "--config", path]) == 2
        assert "unknown config section 'eval'" in capsys.readouterr().err

    def test_invalid_case_section_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + "\n[case:bad]\n"
                                             "theorem = no-such\n")
        assert cli.main(["eval", "--config", path]) == 2
        assert "case:bad" in capsys.readouterr().err


class TestGridAndAmplitudeSettings:
    @pytest.mark.parametrize("grid, argv, key", [
        ("basis_degree = -1", [], "grid.basis_degree"),
        ("basis_degree = 1\nresolution = 3", [], "grid.resolution"),
        ("basis_degree = 1\nresolution = 2", [], "grid.resolution"),
        ("basis_degree = 5\nresolution = 0", [], "grid.resolution"),
        ("basis_degree = 5", ["--resolution", "0"], "grid.resolution"),
        ("basis_degree = 1", ["--resolution", "3"], "grid.resolution"),
    ], ids=["negative-degree", "resolution-3", "resolution-2", "resolution-0",
            "override-0", "override-3"])
    def test_bad_grid_settings_name_the_key(self, tmp_path, capsys, grid,
                                            argv, key):
        path = write_config(tmp_path, BASE.replace("basis_degree = 5", grid))
        assert cli.main(["eval", "--config", path, *argv]) == 2
        assert f"config error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify", "sweep"])
    def test_empty_epsilon_names_the_key(self, tmp_path, capsys, command):
        body = BASE + PERTURB_RANDOM.replace("epsilon = 0.004", "epsilon =") \
            + CASE_STAB
        path = write_config(tmp_path, body)
        assert cli.main([command, "--config", path]) == 2
        assert "config error: perturbation.epsilon" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify", "sweep"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "0.004, nan"])
    def test_non_finite_epsilon_names_the_key(self, tmp_path, capsys,
                                              command, eps):
        body = BASE + PERTURB_RANDOM.replace("epsilon = 0.004",
                                             f"epsilon = {eps}") + CASE_STAB
        path = write_config(tmp_path, body)
        assert cli.main([command, "--config", path]) == 2
        assert "config error: perturbation.epsilon" \
            in capsys.readouterr().err


class TestSpaceAndWeightSettings:
    # values the library rejects are config errors naming their key
    @pytest.mark.parametrize("edits, key", [
        ({"kind = affine": "kind = power\nalpha = 0.5"}, "weight.alpha"),
        ({"kind = affine": "kind = shifted_power\nalpha = 0.5"},
         "weight.alpha"),
        ({"K = -1": "K = 2"}, "space.K"),
        ({"n = 3": "n = 5"}, "space.n"),
        ({"rho = 0.9": "rho = 0"}, "space.rho"),
        ({"K = -1": "K = 1", "rho = 0.9": "rho = 3.5"}, "space.rho"),
        ({"kind = affine": "kind = power\nvalue = 2"}, "weight.value"),
        ({"kind = affine": "kind = affine\nalpha = 3"}, "weight.alpha"),
        ({"kind = affine": "kind = affine\nscale = nan"}, "weight.scale"),
        ({"kind = affine": "kind = constant\nvalue = nan"}, "weight.value"),
        ({"kind = affine": "kind = affine\nscale = inf"}, "weight.scale"),
    ], ids=["power-alpha", "shifted-power-alpha", "curvature-2",
            "dimension-5", "rho-0", "rho-past-antipode", "power-value",
            "affine-alpha", "scale-nan", "value-nan", "scale-inf"])
    def test_rejected_value_names_the_key(self, tmp_path, capsys, edits,
                                          key):
        body = BASE
        for old, new in edits.items():
            body = body.replace(old, new)
        path = write_config(tmp_path, body)
        assert cli.main(["eval", "--config", path]) == 2
        assert f"config error: {key}" in capsys.readouterr().err


class TestOutputSection:
    def test_output_format_json_is_the_default(self, tmp_path):
        out = tmp_path / "r.json"
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB
                            + f"\n[output]\nformat = json\npath = {out}\n")
        assert cli.main(["verify", "--config", path]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 2
        # the flags take precedence over the section
        flagged = tmp_path / "r.csv"
        assert cli.main(["verify", "--config", path, "--format", "csv",
                         "--out", str(flagged)]) == 0
        assert flagged.read_text().startswith(",".join(lab.CSV_COLUMNS))

    def test_invalid_output_format_names_the_key(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + "\n[output]\nformat = xml\n")
        assert cli.main(["eval", "--config", path]) == 2
        assert "output.format" in capsys.readouterr().err


def unwritable(tmp_path, kind):
    """A report path in a missing directory, or an existing directory."""
    return str(tmp_path / "missing" / "x.csv" if kind == "missing-dir"
               else tmp_path)


@pytest.fixture
def no_rows(monkeypatch):
    """Fail the test if a verify row or a surface geometry is computed."""
    def boom(*args, **kwargs):
        raise AssertionError("a row ran before the output path was checked")
    monkeypatch.setattr(lab, "verify", boom)
    monkeypatch.setattr(gg, "surface_geometry", boom)


class TestUnwritableOutputPath:
    # exit 1 means a failed inequality, so a report path that cannot be
    # written is a config error naming its flag or key and the path,
    # found before any row runs
    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_out_flag(self, tmp_path, capsys, no_rows, kind):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        out = unwritable(tmp_path, kind)
        assert cli.main(["verify", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error: --out" in err and repr(out) in err

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_output_path_key(self, tmp_path, capsys, no_rows, kind):
        out = unwritable(tmp_path, kind)
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB
                            + f"\n[output]\npath = {out}\n")
        assert cli.main(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: output.path" in err and repr(out) in err

    def test_out_dir_env_is_applied_first(self, tmp_path, capsys, no_rows,
                                          monkeypatch):
        missing = tmp_path / "missing"
        monkeypatch.setenv("SFI_OUT_DIR", str(missing))
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        assert cli.main(["verify", "--config", path, "--out", "x.csv"]) == 2
        assert repr(str(missing / "x.csv")) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_dump_nodes_flag(self, tmp_path, capsys, no_rows, kind):
        path = write_config(tmp_path, BASE)
        dump = unwritable(tmp_path, kind)
        assert cli.main(["eval", "--config", path, "--dump-nodes",
                         dump]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: --dump-nodes" in captured.err
        assert repr(dump) in captured.err


class TestSeedRange:
    # the direction generator's Philox key is (seed << 64) | stream, so
    # a seed outside [0, 2**64) is a config error naming its source
    @pytest.mark.parametrize("command", ["verify", "sweep", "expand"])
    @pytest.mark.parametrize("source", ["--seed", "perturbation.seed"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_names_its_source(self, tmp_path, capsys,
                                                no_rows, command, source,
                                                seed):
        body = (TestExpandCommand.EXPAND_BODY if command == "expand"
                else BASE + PERTURB_RANDOM + CASE_STAB)
        argv = [command, "--config", None]
        if source == "--seed":
            argv += ["--seed", str(seed)]
        else:
            body = body.replace("seed = 4" if command == "expand"
                                else "seed = 11", f"seed = {seed}")
        argv[2] = write_config(tmp_path, body)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {source}: {seed} is outside [0, 2**64)" \
            in err

    def test_largest_seed_is_accepted(self, tmp_path):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        assert cli.main(["verify", "--config", path, "--seed",
                         str(2 ** 64 - 1), "--out",
                         str(tmp_path / "r.csv")]) == 0


class TestVerifyCommand:
    def test_zero_perturbation_single_row(self, tmp_path, capsys):
        body = BASE + "\n[perturbation]\nmode = zero\n" + """
[case:t]
theorem = sigmak-weighted-volume
k = 2
"""
        path = write_config(tmp_path, body)
        code = cli.main(["verify", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        row = dict(zip(lab.CSV_COLUMNS, lines[1].split(",")))
        assert row["pass"] == "pass"
        assert abs(float(row["deficit"])) < 1e-8
        assert row["epsilon"] == ""
        assert row["direction_id"] == "zero"

    def test_random_rows_and_json_format(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        out_csv = tmp_path / "r.csv"
        code = cli.main(["verify", "--config", path, "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 directions x 1 epsilon
        code = cli.main(["verify", "--config", path, "--format", "json",
                         "--out", str(tmp_path / "r.json")])
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["budget_c1"] == lab.C1_BUDGET
        assert len(doc["rows"]) == 2
        assert list(doc["rows"][0]) == list(lab.CSV_COLUMNS)

    def test_hypothesis_unmet_rows_exit_zero(self, tmp_path, capsys):
        body = BASE.replace("kind = affine", "kind = constant") \
            + PERTURB_RANDOM + CASE_STAB
        path = write_config(tmp_path, body)
        code = cli.main(["verify", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert line.split(",")[lab.CSV_COLUMNS.index("pass")] \
                == "hypothesis_unmet"

    def test_failing_row_exit_one(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)

        real_verify = lab.verify

        def sour(case, graph, grid, **kw):
            rep = real_verify(case, graph, grid, **kw)
            return lab.DeficitReport(**{**rep.__dict__, "status": "fail"})

        monkeypatch.setattr(lab, "verify", sour)
        assert cli.main(["verify", "--config", path,
                         "--out", str(tmp_path / "f.csv")]) == 1

    def test_raising_row_is_exit_three_and_rest_reported(
            self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        real_verify = lab.verify

        def breaks_on_d001(case, graph, grid, **kw):
            if kw["direction_id"] == "d001":
                raise RuntimeError("forced row failure")
            return real_verify(case, graph, grid, **kw)

        monkeypatch.setattr(lab, "verify", breaks_on_d001)
        for threads in ("1", "2"):
            out = tmp_path / f"v{threads}.csv"
            code = cli.main(["verify", "--config", path, "--out", str(out),
                             "--threads", threads])
            err = capsys.readouterr().err
            assert code == 3
            assert ("numerical failure: case:main: d001 eps=0.004 error: "
                    "forced row failure") in err
            lines = out.read_text().strip().split("\n")
            assert len(lines) == 2  # header + the d000 row
            assert ",d000," in lines[1]

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["verify", "--config", path, "--out", str(a)]) == 0
        assert cli.main(["verify", "--config", path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["verify", "--config", path, "--out", str(a)])
        cli.main(["verify", "--config", path, "--seed", "99", "--out",
                  str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path, cpus, forks):
        cpus(8)
        # (directions, --threads, workers forked): more workers asked for
        # than rows, then 5 rows split 3 + 2 and 2 + 2 + 1
        for directions, threads, workers in ((2, 3, 2), (5, 2, 2),
                                             (5, 3, 3)):
            path = write_config(tmp_path, BASE + CASE_STAB
                                + PERTURB_RANDOM.replace(
                                    "directions = 2",
                                    f"directions = {directions}"))
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert cli.main(["verify", "--config", path, "--out",
                             str(a)]) == 0
            forks.clear()
            assert cli.main(["verify", "--config", path, "--threads",
                             str(threads), "--out", str(b)]) == 0
            assert len(forks) == workers
            assert len(a.read_text().strip().split("\n")) == directions + 1
            assert a.read_bytes() == b.read_bytes()

    def test_threads_default_to_one(self, tmp_path, monkeypatch):
        # --threads is the only thread setting; the environment has none
        assert cli.parse_args(["verify", "--config", "x"]).threads == 1
        monkeypatch.setenv("SFI_THREADS", "zero")
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        assert cli.main(["verify", "--config", path, "--out",
                         str(tmp_path / "a.csv")]) == 0


class TestExpandCommand:
    EXPAND_BODY = BASE + """
[perturbation]
mode = random
degrees = 0,1,2,3
directions = 1
seed = 4
epsilon = 0.002, 0.0032, 0.005, 0.008, 0.0126, 0.02

[case:fit]
theorem = sigmak-weighted-volume
k = 2
"""

    def test_coefficient_table(self, tmp_path, capsys):
        path = write_config(tmp_path, self.EXPAND_BODY)
        code = cli.main(["expand", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(cli.EXPAND_COLUMNS)
        row = dict(zip(cli.EXPAND_COLUMNS, lines[1].split(",")))
        assert row["target"] == "sigma2"
        for col in ("rel_c0", "rel_c1", "rel_c2"):
            assert float(row[col]) < 1e-4
        assert float(row["residual_slope"]) >= 2.9

    @pytest.mark.parametrize("theorem", ["H-volume", "H-weighted-volume"])
    def test_mean_curvature_table(self, tmp_path, capsys, theorem):
        # an H family's row is labelled H; its closed coefficients are
        # the k = 1 blocks
        body = self.EXPAND_BODY.replace(
            "theorem = sigmak-weighted-volume\nk = 2",
            f"theorem = {theorem}")
        path = write_config(tmp_path, body)
        assert cli.main(["expand", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        row = dict(zip(cli.EXPAND_COLUMNS, lines[1].split(",")))
        assert row["target"] == "H"
        for col in ("rel_c0", "rel_c1", "rel_c2"):
            assert float(row[col]) < 1e-4

    def test_short_epsilon_list_rejected(self, tmp_path, capsys):
        body = self.EXPAND_BODY.replace(
            "epsilon = 0.002, 0.0032, 0.005, 0.008, 0.0126, 0.02",
            "epsilon = 0.01, 0.02")
        path = write_config(tmp_path, body)
        assert cli.main(["expand", "--config", path]) == 2
        assert "perturbation.epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, why", [
        ("0.01, 0.02, 0.04, 0.08, 0.16, 0.32", "[1e-4, 1e-1]"),
        ("0.01, 0.01, 0.01, 0.01, 0.01, 0.01", "6 distinct"),
        ("0.002, 0.0032, 0.005, 0.008, 0.0126, nan", "not finite")])
    def test_bad_epsilon_is_config_error(self, tmp_path, capsys, eps, why):
        body = self.EXPAND_BODY.replace(
            "epsilon = 0.002, 0.0032, 0.005, 0.008, 0.0126, 0.02",
            f"epsilon = {eps}")
        path = write_config(tmp_path, body)
        assert cli.main(["expand", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: perturbation.epsilon" in err
        assert why in err

    def test_threads_identical_csv(self, tmp_path, monkeypatch, forks):
        body = self.EXPAND_BODY.replace("directions = 1", "directions = 3")
        path = write_config(tmp_path, body)
        pools = []
        run_tasks = cli._run_tasks

        def spy(tasks, runner, threads):
            pools.append((len(tasks), threads))
            return run_tasks(tasks, runner, threads)

        monkeypatch.setattr(cli, "_run_tasks", spy)
        # 3 fits: inline, split 2 + 1, and on 64 threads asked for, capped
        # at the 2 CPUs available
        outs = []
        for threads, workers in (("1", 0), ("2", 2), ("64", 2)):
            outs.append(tmp_path / f"t{threads}.csv")
            forks.clear()
            assert cli.main(["expand", "--config", path, "--threads",
                             threads, "--out", str(outs[-1])]) == 0
            assert len(forks) == workers
        assert pools == [(3, 1), (3, 2), (3, 64)]
        assert outs[0].read_bytes() == outs[1].read_bytes() \
            == outs[2].read_bytes()
        assert len(outs[0].read_text().strip().split("\n")) == 4

    def test_duplicate_run_identical(self, tmp_path):
        path = write_config(tmp_path, self.EXPAND_BODY)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["expand", "--config", path, "--out", str(a)]) == 0
        assert cli.main(["expand", "--config", path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_direction_rejected(self, tmp_path):
        body = self.EXPAND_BODY.replace("mode = random", "mode = zero")
        path = write_config(tmp_path, body)
        assert cli.main(["expand", "--config", path]) == 2


class TestSweepCommand:
    def test_rows_and_summary(self, tmp_path, capsys):
        body = BASE + """
[perturbation]
mode = random
degrees = 2,3
directions = 2
seed = 11
epsilon = 0.004, 0.008
""" + CASE_STAB
        path = write_config(tmp_path, body)
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2 directions x 2 amplitudes
        assert "case:main" in err
        assert "min_deficit_over_alpha_sq" in err

    def test_vanishing_deficit_summary_is_not_negative(self, tmp_path,
                                                       capsys):
        # sigma_3 under W_2 at K = 0 with a constant weight: C = 0, and
        # the deficit vanishes identically (the integral of sigma_n is
        # the sphere's area), so each row's deficit is quadrature and
        # rounding noise within its pass tolerance and counts as 0
        body = BASE.replace("K = -1", "K = 0").replace(
            "rho = 0.9", "rho = 1.0").replace("kind = affine",
                                              "kind = constant") + """
[perturbation]
mode = random
degrees = 2,3,4
directions = 3
seed = 7
epsilon = 0.004, 0.01

[case:main]
theorem = sigmak-quermass-euclidean
k = 3
j = 2
"""
        path = write_config(tmp_path, body)
        code = cli.main(["sweep", "--config", path,
                         "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 0
        value = err.split("min_deficit_over_alpha_sq=")[1].split()[0]
        assert float(value) >= 0.0, err

    def test_shared_basis_keeps_report_bytes(self, tmp_path):
        # a sweep on a freshly built basis and one on the basis an earlier
        # call left in the cache write the same bytes
        from sfi import spherebasis as sb

        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sb._shared_basis.cache_clear()
        assert cli.main(["sweep", "--config", path, "--out", str(a)]) == 0
        basis = sb.build_basis(3, 5)
        assert cli.main(["sweep", "--config", path, "--out", str(b)]) == 0
        assert sb.build_basis(3, 5) is basis
        assert a.read_bytes() == b.read_bytes()

    def test_raising_row_is_exit_three_and_rest_reported(
            self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        real_verify = lab.verify

        def breaks_on_d001(case, graph, grid, **kw):
            if kw["direction_id"] == "d001":
                raise RuntimeError("forced row failure")
            return real_verify(case, graph, grid, **kw)

        monkeypatch.setattr(lab, "verify", breaks_on_d001)
        out = tmp_path / "s.csv"
        code = cli.main(["sweep", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "d001 eps=0.004 error: forced row failure" in err
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header + the d000 row
        assert ",d000," in lines[1]


    @pytest.mark.parametrize("setting, key", [
        ("degrees = 9", "perturbation.degrees"),
        ("degrees =", "perturbation.degrees"),
        ("directions = 0", "perturbation.directions")])
    def test_bad_perturbation_is_config_error(self, tmp_path, capsys,
                                              setting, key):
        # as in verify: exit 2 naming the key, no report written
        body = BASE + PERTURB_RANDOM + CASE_STAB
        body = body.replace("degrees = 2,3" if key.endswith("degrees")
                            else "directions = 2", setting)
        path = write_config(tmp_path, body)
        for command in ("verify", "sweep"):
            out = tmp_path / f"{command}.csv"
            assert cli.main([command, "--config", path, "--out",
                             str(out)]) == 2
            assert f"config error: {key}" in capsys.readouterr().err
            assert not out.exists()

    def test_one_case_rows_split_over_threads(self, tmp_path, monkeypatch,
                                              cpus, forks):
        # degrees 2, 3 run the raw profile's kernels below the basis
        # degree 5; degrees 2, 5 run them through it
        pools = []
        run_tasks = cli._run_tasks

        def spy(tasks, runner, threads):
            pools.append((len(tasks), threads))
            return run_tasks(tasks, runner, threads)

        monkeypatch.setattr(cli, "_run_tasks", spy)
        cpus(3)
        for degrees in ("2,3", "2,5"):
            pools.clear()
            path = write_config(tmp_path, BASE + CASE_STAB
                                + PERTURB_RANDOM.replace("2,3", degrees))
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            for out, threads in ((a, "1"), (b, "2")):
                assert cli.main(["sweep", "--config", path, "--threads",
                                 threads, "--out", str(out)]) == 0
            # 2 directions x 1 amplitude of the one case, one task per row
            assert pools == [(2, 1), (2, 2)]
            assert a.read_bytes() == b.read_bytes()
        # 5 directions x 1 amplitude split 3 + 2 and 2 + 2 + 1
        path = write_config(tmp_path, BASE + CASE_STAB
                            + PERTURB_RANDOM.replace("directions = 2",
                                                     "directions = 5"))
        outs = []
        for threads, workers in (("1", 0), ("2", 2), ("3", 3)):
            outs.append(tmp_path / f"t{threads}.csv")
            forks.clear()
            assert cli.main(["sweep", "--config", path, "--threads",
                             threads, "--out", str(outs[-1])]) == 0
            assert len(forks) == workers
        assert len(outs[0].read_text().strip().split("\n")) == 6
        assert outs[0].read_bytes() == outs[1].read_bytes() \
            == outs[2].read_bytes()

    def test_sweep_writes_verify_bytes(self, tmp_path):
        body = BASE + PERTURB_RANDOM.replace("epsilon = 0.004",
                                             "epsilon = 0.004, 0.008") \
            + CASE_STAB + CASE_STAB.replace("main", "second").replace(
                "j = 0", "j = -1")
        path = write_config(tmp_path, body)
        a, b = tmp_path / "verify.csv", tmp_path / "sweep.csv"
        assert cli.main(["verify", "--config", path, "--out", str(a)]) == 0
        assert cli.main(["sweep", "--config", path, "--out", str(b),
                         "--threads", "2"]) == 0
        assert len(a.read_text().strip().split("\n")) == 9
        assert a.read_bytes() == b.read_bytes()

    def test_random_directions_whatever_the_mode(self, tmp_path, capsys):
        # sweep's defaults: 10 random directions at eps 0.003 and 0.01
        body = BASE + "\n[perturbation]\nmode = zero\ndegrees = 2\n" \
            "seed = 11\n" + CASE_STAB
        path = write_config(tmp_path, body)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["direction_id"], float(r["epsilon"])) for r in rows] \
            == [(f"d{i:03d}", e) for i in range(10) for e in (0.003, 0.01)]
        assert "case:main: rows=20 failures=0" in capsys.readouterr().err

    def test_sweep_command_is_lab_sweep(self, tmp_path, capsys, forks):
        # one sampler, one set of defaults and one SweepResult: left to
        # the defaults, sfi sweep writes lab.sweep's rows at any thread
        # count and prints that result's counts and constant
        path = write_config(tmp_path, BASE + "\n[perturbation]\n"
                            "degrees = 2,3\nseed = 11\n" + CASE_STAB)
        args = cli.parse_args(["sweep", "--config", path])
        ctx = cli.build_run_context(*cli.load_config(path), args)
        res = lab.sweep(ctx.cases[0][1], ctx.grid, ctx.basis, seed=11,
                        degrees=(2, 3))
        assert len(res.reports) == 20 and res.empirical_constant is not None
        summary = (f"case:main: rows={len(res.reports)} "
                   f"failures={len(res.failures)} "
                   f"min_deficit_over_alpha_sq="
                   f"{res.empirical_constant:.6g}\n")
        for threads, workers in (("1", 0), ("2", 2)):
            out = tmp_path / f"t{threads}.csv"
            forks.clear()
            assert cli.main(["sweep", "--config", path, "--threads",
                             threads, "--out", str(out)]) == 0
            assert len(forks) == workers
            assert out.read_text() == lab.csv_text(res.reports)
            assert capsys.readouterr().err == summary


class TestWorkerProcesses:
    def test_available_cpus(self):
        assert 1 <= AVAILABLE_CPUS() <= os.cpu_count()

    def test_dead_worker_is_exit_four_and_no_report(
            self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        real_verify = lab.verify

        def dies_on_d001(case, graph, grid, **kw):
            if kw["direction_id"] == "d001":
                os._exit(9)
            return real_verify(case, graph, grid, **kw)

        monkeypatch.setattr(lab, "verify", dies_on_d001)
        out = tmp_path / "v.csv"
        for command in ("verify", "sweep"):
            assert cli.main([command, "--config", path, "--out", str(out),
                             "--threads", "2"]) == 4
            err = capsys.readouterr().err
            assert "worker failure: worker 1 exited with status 9" in err
            assert "numerical failure" not in err
            assert not out.exists()

    def test_row_type_error_keeps_its_type(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        real_verify = lab.verify

        def breaks_on_d001(case, graph, grid, **kw):
            if kw["direction_id"] == "d001":
                raise TypeError("forced type error")
            return real_verify(case, graph, grid, **kw)

        monkeypatch.setattr(lab, "verify", breaks_on_d001)
        for threads in ("1", "2"):
            with pytest.raises(TypeError, match="forced type error") as info:
                cli.main(["verify", "--config", path, "--threads", threads,
                          "--out", str(tmp_path / "v.csv")])
        # at --threads 2 the worker's traceback is the cause
        cause = str(info.value.__cause__)
        assert "in breaks_on_d001" in cause
        assert "TypeError: forced type error" in cause
        assert not (tmp_path / "v.csv").exists()

    def test_threads_need_fork(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, BASE + PERTURB_RANDOM + CASE_STAB)
        monkeypatch.delattr(os, "fork")
        out = tmp_path / "v.csv"
        assert cli.main(["verify", "--config", path, "--threads", "2",
                         "--out", str(out)]) == 2
        assert "config error: --threads" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["verify", "--config", path, "--threads", "1",
                         "--out", str(out)]) == 0

    def test_first_raising_task_in_task_order(self):
        # over 2 workers, task 2 is worker 0's second task and task 3 its
        # third; task 1, which worker 1 runs, is the first to raise
        def runner(t):
            if t >= 1:
                raise ValueError(f"task {t}")
            return t

        with pytest.raises(ValueError, match="task 1"):
            cli._run_tasks(list(range(5)), runner, 2)

    def test_rows_come_back_in_task_order(self, cpus, forks):
        cpus(3)
        tasks = list(range(7))
        rows = cli._run_tasks(tasks, lambda t: (t, os.getpid()), 3)
        assert [t for t, _ in rows] == tasks
        pids = [pid for _, pid in rows]
        assert len(forks) == len(set(pids)) == 3
        assert os.getpid() not in pids
        # worker 0 ran tasks 0, 3 and 6
        assert pids[::3] == [pids[0]] * 3

    def test_dead_worker_stops_the_others(self):
        def runner(t):
            if t == 0:
                os._exit(9)
            time.sleep(60)

        t0 = time.perf_counter()
        with pytest.raises(cli.WorkerFailure, match="worker 0 exited"):
            cli._run_tasks([0, 1], runner, 2)
        assert time.perf_counter() - t0 < 30

    def test_interrupted_parent_reaps_workers(self, monkeypatch):
        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_read_to_eof", interrupted)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            cli._run_tasks([0, 1], lambda t: time.sleep(60), 2)
        assert time.perf_counter() - t0 < 30

    def test_unpicklable_result_is_worker_failure(self):
        with pytest.raises(cli.WorkerFailure, match="exited with status 1"):
            cli._run_tasks([0, 1], lambda t: lambda: t, 2)

    def test_truncated_result_is_worker_failure(self):
        data = pickle.dumps((None, [1.0, 2.0]))
        assert cli._worker_output(0, data, 0, 2) == (None, [1.0, 2.0])
        with pytest.raises(cli.WorkerFailure, match="truncated result"):
            cli._worker_output(0, data[:-3], 0, 2)
        with pytest.raises(cli.WorkerFailure, match="truncated result"):
            cli._worker_output(0, data, 0, 3)


class TestNumericalFailureExit:
    def test_surface_breakdown_is_exit_three(self, tmp_path, capsys):
        # amplitude 5 pushes radii far outside the admissible band
        body = BASE + """
[perturbation]
mode = random
degrees = 2,3
directions = 1
seed = 11
epsilon = 5.0
""" + CASE_STAB
        path = write_config(tmp_path, body)
        assert cli.main(["verify", "--config", path]) == 3
        assert "admissible band" in capsys.readouterr().err


# one volume-, one weighted-volume- and one W0-constrained case, two
# validity theorems and one stability theorem, all at K = -1
MULTI_CASES = {
    "wv": "theorem = sigmak-weighted-volume\nk = 2\n",
    "vol": "theorem = H-volume\n",
    "stab": "theorem = sigmak-quermass-hyperbolic\nk = 1\nj = 0\n",
}


def multi_case_config(tmp_path, names, eps="0.004, 0.008", name="run.ini"):
    """BASE with 2 directions at the amplitudes eps and the named cases of
    MULTI_CASES, in that order."""
    body = BASE + PERTURB_RANDOM.replace("epsilon = 0.004",
                                         f"epsilon = {eps}")
    body += "".join(f"\n[case:{n}]\n{MULTI_CASES[n]}" for n in names)
    return write_config(tmp_path, body, name)


def run_command(capsys, argv):
    """(exit code, report text or None, stderr) of one cli.main call."""
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
        os.remove(out)
    code = cli.main(argv)
    report = open(out).read() if os.path.exists(out) else None
    return code, report, capsys.readouterr().err


def per_case_runs(tmp_path, capsys, names, command, eps="0.004, 0.008"):
    """(exit codes, report, stderr) of one run per named case, each with
    its one [case:*] section: the report is the runs' rows after one
    header, the stderr their lines, in case order."""
    codes, header, rows, err = [], None, [], ""
    for n in names:
        path = multi_case_config(tmp_path, [n], eps, name=f"{n}.ini")
        code, report, e = run_command(
            capsys, [command, "--config", path, "--out",
                     str(tmp_path / f"{n}.csv")])
        codes.append(code)
        header, *lines = report.splitlines(keepends=True)
        rows += lines
        err += e
    return codes, header + "".join(rows), err


def failure_lines(err, failures=True):
    """The numerical failure lines of err, or with failures False its
    other lines."""
    return [line for line in err.splitlines()
            if line.startswith("numerical failure:") == failures]


def breaks_weighted_volume(ball_radius):
    """Constraint.ball_radius that raises for the weighted volume."""
    def ball_radius_or_raise(self, sf, value, start=1.0):
        if self.kind == "weighted_volume":
            raise ValueError("forced match failure")
        return ball_radius(self, sf, value, start=start)
    return ball_radius_or_raise


class TestOneTaskPerSampledGraph:
    NAMES = ["wv", "vol", "stab"]

    def test_shared_stage_runs_once_per_graph(self, tmp_path, monkeypatch,
                                              capsys, cpus):
        calls = {"barycenter": 0, "asymmetry": 0, "geometry": []}
        barycenter, geometry = dm.barycenter, gg.surface_geometry
        asymmetry = dm.fraenkel_asymmetry

        def counting_barycenter(*args):
            calls["barycenter"] += 1
            return barycenter(*args)

        def counting_geometry(graph, grid):
            calls["geometry"].append(grid.d_exact)
            return geometry(graph, grid)

        def counting_asymmetry(*args):
            calls["asymmetry"] += 1
            return asymmetry(*args)

        monkeypatch.setattr(dm, "barycenter", counting_barycenter)
        monkeypatch.setattr(gg, "surface_geometry", counting_geometry)
        monkeypatch.setattr(dm, "fraenkel_asymmetry", counting_asymmetry)
        pools = []
        run_tasks = cli._run_tasks

        def spy(tasks, runner, threads):
            pools.append((len(tasks), threads))
            return run_tasks(tasks, runner, threads)

        monkeypatch.setattr(cli, "_run_tasks", spy)
        cpus(3)
        path = multi_case_config(tmp_path, self.NAMES)
        out = str(tmp_path / "v.csv")
        reports = []
        for threads in ("1", "2", "3"):
            code, report, err = run_command(
                capsys, ["verify", "--config", path, "--out", out,
                         "--threads", threads])
            assert code == 0 and err == ""
            reports.append(report)
            if threads == "1":
                # 2 directions x 2 amplitudes, whatever the 3 cases
                row_grid = sb.default_resolution(5)
                assert calls["barycenter"] == 4
                assert calls["asymmetry"] == 4
                assert calls["geometry"].count(row_grid) == 4
                # the coarse geometry of err_quad is one per graph too
                assert len(calls["geometry"]) == 4 + 4
        # one task per sampled graph, at every --threads
        assert pools == [(4, 1), (4, 2), (4, 3)]
        codes, expected, err = per_case_runs(tmp_path, capsys, self.NAMES,
                                             "verify")
        assert codes == [0, 0, 0] and err == ""
        assert len(expected.splitlines()) == 1 + 12
        assert reports == [expected] * 3

    def test_sweep_writes_the_per_case_rows(self, tmp_path, capsys):
        path = multi_case_config(tmp_path, self.NAMES)
        out = str(tmp_path / "s.csv")
        codes, expected, summaries = per_case_runs(tmp_path, capsys,
                                                   self.NAMES, "sweep")
        assert codes == [0, 0, 0]
        assert [line.split(":")[1] for line in summaries.splitlines()] \
            == self.NAMES
        for threads in ("1", "2"):
            code, report, err = run_command(
                capsys, ["sweep", "--config", path, "--out", out,
                         "--threads", threads])
            assert code == 0
            assert report == expected
            assert err == summaries

    def test_case_raise_fails_only_that_case(self, tmp_path, monkeypatch,
                                             capsys):
        # the weighted-volume case fails in matching; the other cases'
        # rows are their per-case rows
        monkeypatch.setattr(nz.Constraint, "ball_radius",
                            breaks_weighted_volume(nz.Constraint.ball_radius))
        path = multi_case_config(tmp_path, self.NAMES)
        _, expected, _ = per_case_runs(tmp_path, capsys, ["vol", "stab"],
                                       "verify")
        for threads in ("1", "2"):
            code, report, err = run_command(
                capsys, ["verify", "--config", path, "--out",
                         str(tmp_path / "v.csv"), "--threads", threads])
            assert code == 3
            assert report == expected
            assert err.splitlines() == [
                f"numerical failure: case:wv: d00{d} eps={e} error: "
                f"forced match failure"
                for d in (0, 1) for e in (0.004, 0.008)]

    def test_case_raise_comes_before_the_asymmetry(self, tmp_path,
                                                   monkeypatch, capsys):
        # the asymmetry is searched on first use, after the first case
        # has matched its constraint, so the weighted-volume case (first)
        # still reports its own error; a raising search runs once per
        # graph, and every later case that reaches it gets its error
        searches = []

        def breaks_search(*args):
            searches.append(1)
            raise RuntimeError("forced search failure")

        monkeypatch.setattr(nz.Constraint, "ball_radius",
                            breaks_weighted_volume(nz.Constraint.ball_radius))
        monkeypatch.setattr(dm, "fraenkel_asymmetry", breaks_search)
        path = multi_case_config(tmp_path, self.NAMES, eps="0.004")
        code, report, err = run_command(
            capsys, ["verify", "--config", path, "--out",
                     str(tmp_path / "v.csv")])
        assert code == 3
        assert report == ",".join(lab.CSV_COLUMNS) + "\n"
        assert err.splitlines() == [
            f"numerical failure: case:{n}: d00{d} eps=0.004 error: "
            f"forced {'match' if n == 'wv' else 'search'} failure"
            for n in self.NAMES for d in (0, 1)]
        assert len(searches) == 2

    def test_shared_raise_fails_every_case(self, tmp_path, monkeypatch,
                                           capsys):
        # at amplitude 5 the radii go negative: the sampled geometry
        # raises on both directions, for every case, with the per-case
        # run's message, and the failure lines stay in case order; each
        # of the 4 graphs builds its row-grid geometry once, raising or
        # not
        built = []
        geometry = gg.surface_geometry

        def counting_geometry(graph, grid):
            built.append(grid.d_exact)
            return geometry(graph, grid)

        monkeypatch.setattr(gg, "surface_geometry", counting_geometry)
        path = multi_case_config(tmp_path, self.NAMES, eps="0.004, 5.0")
        for command in ("verify", "sweep"):
            codes, expected, per_case_err = per_case_runs(
                tmp_path, capsys, self.NAMES, command, eps="0.004, 5.0")
            assert codes == [3, 3, 3]
            failures = failure_lines(per_case_err)
            assert [f.split(":")[2] for f in failures] \
                == [n for n in self.NAMES for _ in (0, 1)]
            assert all("eps=5 error: graph radii leave the admissible band"
                       in f for f in failures)
            summaries = failure_lines(per_case_err, False)
            for threads in ("1", "2", "3"):
                built.clear()
                code, report, err = run_command(
                    capsys, [command, "--config", path, "--out",
                             str(tmp_path / "v.csv"), "--threads", threads])
                if threads == "1":
                    assert built.count(sb.default_resolution(5)) == 4
                assert code == 3
                assert report == expected
                assert failure_lines(err) == failures
                assert failure_lines(err, False) == summaries
