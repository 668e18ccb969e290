"""Experiment harness: config parsing, result tables, runners, CLI contract."""

import csv
import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from conical_lab import vericli
from conical_lab.vericli import ConfigError, ExperimentConfig, ResultTable


def make(text="", **overrides):
    body = "seed = 21\n" + text
    return ExperimentConfig.parse(
        body, [f"{k}={v}" for k, v in overrides.items()]
    )


def csv_body(table):
    """The table's CSV below its timestamp line."""
    return table.to_csv().split("\n", 1)[1]


class TestConfig:
    def test_comments_and_blanks(self):
        cfg = ExperimentConfig.parse(
            "# header\n\nseed = 3   # trailing\n  p = 2.5\n"
        )
        assert cfg.seed == 3
        assert cfg.p == 2.5

    def test_overrides_win(self):
        cfg = ExperimentConfig.parse("seed = 3\np = 2", ["p=4", "seed=9"])
        assert (cfg.seed, cfg.p) == (9, 4.0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            ExperimentConfig.parse("seed = 1\nbogus = 2")

    def test_typed_keys_parse_to_their_annotation(self):
        # every int, float and tuple field parses a sample value to its
        # annotated type; a key the parser missed would stay a string
        samples = {int: ("3", 3), float: ("2.5", 2.5), tuple: ("1.5, 2", (1.5, 2.0))}
        seen = {kind: 0 for kind in samples}
        for f in fields(ExperimentConfig):
            for kind, (text, want) in samples.items():
                if f.type in (kind, kind | None):
                    value = getattr(make(**{f.name: text}), f.name)
                    assert type(value) is kind and value == want, f.name
                    if kind is tuple:
                        assert all(type(v) is float for v in value), f.name
                    seen[kind] += 1
        assert seen == {int: 6, float: 12, tuple: 4}
        assert make(family="2").family == "2"

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed is mandatory"):
            ExperimentConfig.parse("p = 2")

    def test_malformed_line_numbered(self):
        with pytest.raises(ConfigError, match="line 2: expected key = value"):
            ExperimentConfig.parse("seed = 1\nnonsense\n")

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="--set needs key=value"):
            ExperimentConfig.parse("seed = 1", ["oops"])

    def test_bad_scalar(self):
        with pytest.raises(ConfigError, match="cannot parse n"):
            ExperimentConfig.parse("seed = 1\nn = two")

    def test_tuple_keys(self):
        cfg = make("apertures = 1, 2, 4\nseparations = 0.1,0.2")
        assert cfg.apertures == (1.0, 2.0, 4.0)
        assert cfg.separations == (0.1, 0.2)

    def test_custom_time_grid(self):
        cfg = make("t0 = 0.05\nratio = 2\nlevels = 3\nN = 32\nn = 1")
        tg = cfg.build_tgrid(cfg.build_grid())
        assert tg.levels == pytest.approx((0.05, 0.1, 0.2))

    def test_partial_time_grid(self):
        cfg = make("t0 = 0.05")
        with pytest.raises(ConfigError, match="t0, ratio, and levels"):
            cfg.build_tgrid(cfg.build_grid())

    def test_theta_at_least_n(self):
        cfg = make("theta = 1.0\nn = 1")
        with pytest.raises(ConfigError, match="below n"):
            cfg.build_weight(cfg.build_grid())

    def test_coeff_file_grid_mismatch(self, tmp_path):
        from conical_lab.elliptic import CoefficientField
        from conical_lab.grid import Grid

        path = tmp_path / "a.coeff"
        CoefficientField.preset(Grid(1, 16), "laplace").to_file(path)
        cfg = make(f"coeff_file = {path}\nN = 32\nn = 1")
        with pytest.raises(ConfigError, match="sampled at n=1, N=16"):
            cfg.build_operator(cfg.build_grid())


class TestResultTable:
    def test_verdict_and_provenance_validated(self):
        t = ResultTable()
        with pytest.raises(ValueError, match="verdict"):
            t.add("x", {}, 1.0, 1.0, "paper", 0.1, "maybe")
        with pytest.raises(ValueError, match="provenance"):
            t.add("x", {}, 1.0, 1.0, "guess", 0.1, "pass")

    def test_counts_and_all_pass(self):
        t = ResultTable()
        t.add("x", {}, 1.0, 1.0, "paper", 0.1, "pass")
        t.info("x", {}, 2.0)
        assert t.counts == {"pass": 1, "fail": 0, "info": 1}
        assert t.all_pass
        t.add("x", {}, 9.0, 1.0, "paper", 0.1, "fail")
        assert not t.all_pass

    def test_csv_schema(self):
        t = ResultTable()
        t.add("exp", {"b": 2, "a": 1}, 1.5, 2.5, "derived", 0.1, "pass")
        rows = list(csv.reader(io.StringIO(csv_body(t))))
        assert rows[0] == list(vericli.CSV_COLUMNS)
        assert rows[1][0] == "exp"
        assert json.loads(rows[1][1]) == {"a": 1, "b": 2}
        assert float(rows[1][2]) == 1.5
        assert rows[1][6] == "pass"

    def test_param_json_key_order_is_sorted(self):
        t = ResultTable()
        t.add("exp", {"z": 1, "a": 2}, 0, 0, "paper", 0, "info")
        line = csv_body(t).splitlines()[1]
        assert '""a"": 2, ""z"": 1' in line

    def test_timestamp_header(self, tmp_path):
        t = ResultTable()
        t.info("exp", {}, 0.0)
        path = tmp_path / "t.csv"
        t.write(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == '"' + '","'.join(vericli.CSV_COLUMNS) + '"'

    def test_nan_reference_round_trips(self):
        t = ResultTable()
        t.info("exp", {}, 1.0)
        row = list(csv.reader(io.StringIO(csv_body(t))))[1]
        assert math.isnan(float(row[3]))


class TestDriftRows:
    def rows(self, fine, coarse, certain=True):
        t = ResultTable()
        vericli._drift_rows(t, "x", {"stat": "s"}, 32, fine, coarse, 1.25,
                            certain)
        return t.rows

    def test_row_pair(self):
        coarse, fine = self.rows(1.2, 1.0)
        assert (coarse.params, coarse.verdict) == ({"stat": "s", "N": 16}, "info")
        assert coarse.measured == 1.0
        assert fine.params == {"stat": "s", "N": 32}
        assert (fine.measured, fine.reference, fine.tolerance) == (1.2, 1.0, 1.25)
        assert fine.verdict == "pass"

    @pytest.mark.parametrize("fine, coarse", [
        (1.3, 1.0), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan),
        (math.nan, math.nan),
    ])
    def test_beyond_drift_or_not_finite_fails(self, fine, coarse):
        assert self.rows(fine, coarse)[1].verdict == "fail"

    @pytest.mark.parametrize("fine", [1.0, 1.3, math.inf])
    def test_uncertain_class_is_info(self, fine):
        assert [r.verdict for r in self.rows(fine, 1.0, certain=False)] == [
            "info", "info"]


class TestSharpness:
    def test_slope_row(self):
        t = vericli.run_sharpness(make("n = 2\ntheta = 0.5\np = 2"))
        slope = [r for r in t.rows if r.params.get("stat") == "loglog_slope"]
        assert len(slope) == 1
        assert slope[0].provenance == "paper"
        assert slope[0].reference == pytest.approx(0.75)
        assert slope[0].verdict == "pass"
        infos = [r for r in t.rows if r.verdict == "info"]
        assert len(infos) == 5

    def test_exact_scaling_at_theta_zero(self):
        t = vericli.run_sharpness(make("n = 2\ntheta = 0\ntol = 1e-9"))
        assert t.all_pass

    def test_bad_dimension(self):
        with pytest.raises(ConfigError, match="n in"):
            vericli.run_sharpness(make("n = 3"))

    def test_theta_out_of_range(self):
        with pytest.raises(ConfigError, match="below n"):
            vericli.run_sharpness(make("n = 1\ntheta = 1.0"))

    def test_single_aperture_rejected(self):
        with pytest.raises(ConfigError, match="two apertures"):
            vericli.run_sharpness(make("apertures = 2"))


class TestAngles:
    def test_branch_required(self):
        with pytest.raises(ConfigError, match="branch"):
            vericli.run_change_of_angle(make())

    def test_growth_branch(self):
        cfg = make("branch = i\ntheta = -1\nr = 2\np = 2\nN = 16\nsamples = 6")
        t = vericli.run_change_of_angle(cfg)
        assert t.all_pass
        assert t.counts["pass"] == 1

    def test_decay_branch(self):
        cfg = make("branch = ii\ntheta = 1\ns = 4\np = 2\nN = 16\nsamples = 6")
        t = vericli.run_change_of_angle(cfg)
        assert t.all_pass

    def test_weight_class_mismatch(self):
        cfg = make("branch = i\ntheta = -5\nr = 1.5\nN = 16")
        with pytest.raises(ConfigError, match="not in A_"):
            vericli.run_change_of_angle(cfg)

    def test_exponent_precondition(self):
        cfg = make("branch = i\nr = 1.0\np = 3\nN = 16")
        with pytest.raises(ConfigError, match="p <= 2r"):
            vericli.run_change_of_angle(cfg)
        cfg = make("branch = ii\ns = 1.0\np = 0.5\nN = 16")
        with pytest.raises(ConfigError, match="p >= 2/s"):
            vericli.run_change_of_angle(cfg)

    def test_wrapping_aperture(self):
        cfg = make("branch = i\napertures = 0.5, 1.5\nN = 16")
        with pytest.raises(ConfigError, match="wraps the torus"):
            vericli.run_change_of_angle(cfg)

    def test_fit_splits_on_a_sample_boundary(self, monkeypatch):
        # each sample gives one ratio per aperture pair; at an odd count the
        # fit still takes whole samples, the first two of five, so no
        # sample's field lies on both sides of the split
        batches = []
        real = vericli.tent.fitted_bound_report

        def spy(fit, hold, margin):
            batches.append((list(fit), list(hold)))
            return real(fit, hold, margin=margin)

        monkeypatch.setattr(vericli.tent, "fitted_bound_report", spy)
        vericli.run_change_of_angle(make("branch = i\nN = 16\nsamples = 2"))
        vericli.run_change_of_angle(make("branch = i\nN = 16\nsamples = 5"))
        (first, second), (fit, hold) = batches
        # sample i draws the same field at every count
        assert len(first) == len(second) == 3
        assert fit == first + second
        assert len(hold) == 3 * 3


class TestCarleson:
    def test_order_of_exponents(self):
        with pytest.raises(ConfigError, match="p0 < p"):
            vericli.run_carleson_suite(make("p0 = 2\np = 2"))

    def test_suite_passes(self):
        cfg = make("N = 16\nsamples = 8\np0 = 1.2\np = 2")
        t = vericli.run_carleson_suite(cfg)
        assert t.all_pass
        zero = [r for r in t.rows if r.params.get("stat") == "zero_field"]
        assert zero[0].measured == 0.0
        brackets = [r for r in t.rows
                    if r.params.get("stat", "").startswith("ratio")
                    and r.verdict != "info"]
        assert len(brackets) == 2
        for row in brackets:
            assert row.measured <= 1.25 * row.reference

    def test_weight_outside_class_reports_info(self):
        cfg = make("N = 16\nsamples = 4\np0 = 1.2\np = 2\ntheta = -3")
        t = vericli.run_carleson_suite(cfg)
        directions = [r for r in t.rows if "direction" in r.params]
        assert len(directions) == 2
        assert all(r.verdict == "info" for r in directions)
        assert t.all_pass


class TestCpMaximal:
    def test_in_range_passes(self):
        t = vericli.run_cp_vs_maximal(make("N = 16\nsamples = 6"))
        assert t.all_pass
        assert t.counts["pass"] == 6
        const = [r for r in t.rows if r.params.get("stat") == "constant_input"]
        assert const[0].measured < 1e-12

    def test_p0_outside_certain_range_is_info(self):
        t = vericli.run_cp_vs_maximal(make("N = 16\nsamples = 4\np0 = 2.5"))
        assert t.counts["pass"] == 0
        assert t.counts["fail"] == 0

    def test_generic_coefficients_only_trust_p0_two(self):
        t = vericli.run_cp_vs_maximal(
            make("N = 16\nsamples = 4\npreset = perturbed\np0 = 1.5"))
        assert t.counts["pass"] == 0
        t = vericli.run_cp_vs_maximal(
            make("N = 16\nsamples = 4\npreset = perturbed\np0 = 2.0"))
        assert t.counts["pass"] == 6
        assert t.all_pass


class TestOffdiagonal:
    def test_model_verdicts(self):
        cfg = make("N = 32\nseparations = 0.12, 0.2, 0.28, 0.36")
        t = vericli.run_offdiagonal(cfg)
        assert t.all_pass
        stats = {r.params["family"]: r for r in t.rows
                 if r.params.get("stat") in ("exp_slope", "poly_order")}
        assert stats["heat"].params["stat"] == "exp_slope"
        assert stats["heat"].measured <= -0.125
        assert stats["poisson"].params["stat"] == "poly_order"
        assert stats["poisson"].measured >= stats["poisson"].reference - 0.5
        prefs = {r.params["family"]: r.params["prefers"] for r in t.rows
                 if r.params.get("stat") == "model_preference"}
        assert prefs["heat"] == "exp"
        assert prefs["heat_gradient"] == "exp"
        assert prefs["poisson"] == "poly"
        assert prefs["poisson_gradient"] == "poly"

    def test_one_ladder_call_per_family(self, monkeypatch):
        # every separation's norm comes from the one ladder call of its
        # family: four calls in all, one per entry of _OFFDIAG_FAMILIES
        from conical_lab.elliptic import EllipticOperator
        calls = []
        real = EllipticOperator.ladders

        def ladders(op, family, members, levels, f):
            calls.append((family, tuple(members)))
            return real(op, family, members, levels, f)

        monkeypatch.setattr(EllipticOperator, "ladders", ladders)
        vericli.run_offdiagonal(make())
        want = [(family, ((0, derivative),))
                for _, family, derivative in vericli._OFFDIAG_FAMILIES]
        assert calls == want and len(calls) == 4

    def test_overlapping_sets_rejected(self):
        cfg = make("N = 32\nseparations = 0.05, 0.2, 0.3")
        with pytest.raises(ConfigError, match="disjoint"):
            vericli.run_offdiagonal(cfg)

    def test_too_few_separations(self):
        cfg = make("N = 32\nseparations = 0.2, 0.3")
        with pytest.raises(ConfigError, match="three separations"):
            vericli.run_offdiagonal(cfg)

    def test_radius_below_mesh(self):
        cfg = make("N = 8\nradius = 0.001\nseparations = 0.2, 0.3, 0.4")
        with pytest.raises(ConfigError, match="captures no cell"):
            vericli.run_offdiagonal(cfg)


class TestBoundedness:
    def test_identity_coefficients_assert_everywhere(self):
        cfg = make("samples = 6\ntheta = 0.5\nn = 1")
        t = vericli.run_boundedness(cfg)
        assert t.all_pass
        verdicts = [r for r in t.rows if r.params.get("N") == 32]
        assert len(verdicts) == 18
        assert all(r.verdict == "pass" for r in verdicts)

    def test_generic_coefficients_assert_only_p2_flat(self):
        cfg = make("samples = 4\npreset = perturbed\nN = 16")
        t = vericli.run_boundedness(cfg)
        checked = [r for r in t.rows
                   if r.params.get("N") == 16 and r.verdict != "info"]
        assert {(r.params["family"], r.params["p"]) for r in checked} == {
            ("s_h", 2.0), ("g_h", 2.0), ("gcal_h", 2.0)}

    def test_single_family(self):
        cfg = make("samples = 4\nfamily = s_h\nN = 16\np_list = 2")
        t = vericli.run_boundedness(cfg)
        assert {r.params["family"] for r in t.rows} == {"s_h"}

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown square function family"):
            vericli.run_boundedness(make("family = s_x"))

    def test_p_at_most_one_is_info(self, tmp_path):
        # A_p needs p >= 1 and the range is open at p_-(L) = 1: such a p
        # is reported, not asserted, and the run still writes its table
        code = vericli.main(["boundedness", "--set", "seed=1", "--set", "N=16",
                             "--set", "samples=2", "--set", "p_list=0.5,1,2",
                             "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "boundedness.csv").read_text().split("\n", 1)[1]
        rows = list(csv.DictReader(io.StringIO(body)))
        by_p = {}
        for row in rows:
            by_p.setdefault(json.loads(row["param_json"])["p"], []).append(row["verdict"])
        assert len(by_p[0.5]) == len(by_p[1.0]) == 2 * 6
        assert set(by_p[0.5]) == set(by_p[1.0]) == {"info"}
        assert "pass" in by_p[2.0]


class TestComparisons:
    def test_identity_coefficients_pass(self):
        t = vericli.run_comparisons(make("samples = 6"))
        assert t.all_pass
        assert t.counts["pass"] == 4
        pairs = {r.params["pair"] for r in t.rows}
        assert pairs == {"s_h2_vs_s_h1", "gcal_h2_vs_s_h1",
                         "s_p1_vs_s_h1", "gcal_p_vs_gcal_h"}

    def test_each_square_function_once_per_field(self, monkeypatch):
        # the four pairs share six distinct square functions, all on the
        # same seeded fields: the fft tier evaluates each on one field per
        # call, the dense tier those of each semigroup on the whole batch in
        # one call
        calls = []
        real = vericli.squarefn.integrand_field

        def integrand_field(op, specs, fields):
            calls.append(([(s.family, s.order) for s in specs],
                          [f.tobytes() for f in fields]))
            return real(op, specs, fields)

        monkeypatch.setattr(vericli.squarefn, "integrand_field", integrand_field)
        vericli.run_comparisons(make("samples = 4\nN = 8"))
        assert len(calls) == 6 * 4
        assert all(len(specs) == len(fields) == 1 for specs, fields in calls)
        assert len({specs[0] for specs, _ in calls}) == 6
        batch = {fields[0] for _, fields in calls}
        assert len(batch) == 4

        calls.clear()
        vericli.run_comparisons(make("samples = 4\nN = 8\npreset = perturbed"))
        assert [sorted(specs) for specs, _ in calls] == [
            [("gcal_h", 0), ("gcal_h", 2), ("s_h", 1), ("s_h", 2)],
            [("gcal_p", 0), ("s_p", 1)]]
        # the same seeded fields on either tier
        for _, fields in calls:
            assert set(fields) == batch and len(fields) == 4

    def test_generic_coefficients_report_only(self):
        t = vericli.run_comparisons(
            make("samples = 4\npreset = perturbed\nN = 8"))
        assert t.counts["pass"] == 0
        assert t.counts["fail"] == 0
        assert t.counts["info"] == 4


class TestDeterminism:
    @pytest.mark.parametrize("run, text", [
        (vericli.run_carleson_suite, "N = 16\nsamples = 6\np0 = 1.2"),
        # the perturbed preset runs the dense route and its cached exponentials
        (vericli.run_comparisons, "preset = perturbed\nN = 16\nsamples = 4"),
    ], ids=["carleson", "comparisons-perturbed"])
    def test_same_seed_same_bytes(self, run, text):
        cfg = make(text)
        a = csv_body(run(cfg))
        b = csv_body(run(cfg))
        assert a == b

    def test_seed_changes_results(self):
        a = csv_body(vericli.run_carleson_suite(make("N = 16\nsamples = 4")))
        b = csv_body(vericli.run_carleson_suite(
            ExperimentConfig.parse("seed = 99\nN = 16\nsamples = 4")))
        assert a != b


class TestBatch:
    # the experiments draw every sample's field first and evaluate each
    # square function once on the batch, which on the dense tier is one walk
    # per semigroup; the reference evaluates one spec on one field per call

    @staticmethod
    def _per_sample(op, specs, fields):
        for i, spec in enumerate(specs):
            for b in range(len(fields)):
                yield i, b, vericli.squarefn.integrand_field(op, [spec], fields[b:b + 1])[0][0]

    @pytest.mark.parametrize("run, text", [
        (vericli.run_comparisons, "N = 8\nsamples = 4"),
        (vericli.run_boundedness, "N = 16\nsamples = 4"),
        (vericli.run_cp_vs_maximal, "N = 16\nsamples = 4"),
    ], ids=["comparisons", "boundedness", "cp-maximal"])
    def test_batch_matches_per_sample(self, run, text, monkeypatch):
        cfg = make(text + "\npreset = perturbed")
        batched = run(cfg).rows
        monkeypatch.setattr(vericli.squarefn, "integrands", self._per_sample)
        single = run(cfg).rows
        assert len(batched) == len(single) > 0
        for a, b in zip(batched, single):
            assert (a.experiment, a.params, a.provenance, a.verdict) == (
                b.experiment, b.params, b.provenance, b.verdict)
            for x, y in ((a.measured, b.measured), (a.reference, b.reference)):
                assert (math.isnan(x) and math.isnan(y)) or abs(x - y) <= 1e-12 * abs(y), (
                    a.params, x, y)


class TestMain:
    @pytest.fixture()
    def base_cfg(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text("seed = 21\nsamples = 6\n")
        return path

    def test_exit_zero_and_csv(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = vericli.main(["sharpness", "--config", str(base_cfg),
                             "--out", str(out)])
        assert code == 0
        lines = (out / "sharpness.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert "pass" in capsys.readouterr().out

    def test_exit_one_on_failure(self, base_cfg, tmp_path):
        code = vericli.main([
            "sharpness", "--config", str(base_cfg),
            "--set", "theta=0.5", "--set", "tol=1e-6",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 1

    def test_exit_two_on_config_error(self, base_cfg, tmp_path, capsys):
        code = vericli.main(["sharpness", "--config", str(base_cfg),
                             "--set", "bogus=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed 21\n")
        assert vericli.main(["sharpness", "--config", str(bad)]) == 2
        assert vericli.main(
            ["sharpness", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_retired_exponent_key_rejected(self, tmp_path, capsys):
        # no experiment reads a key q, so it is unknown rather than ignored
        code = vericli.main(["sharpness", "--set", "seed=1", "--set", "q=3",
                             "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config key 'q'" in capsys.readouterr().err
        assert not (tmp_path / "sharpness.csv").exists()

    @pytest.mark.parametrize("experiment, key, value", [
        ("carleson", "N", 8),
        ("carleson", "n", 4),
        ("boundedness", "N", 8),
        ("boundedness", "n", 5),
        ("cp-maximal", "N", 12),
    ])
    def test_bad_grid_size_is_config_error(self, experiment, key, value,
                                           tmp_path, capsys):
        code = vericli.main([experiment, "--set", "seed=1",
                             "--set", f"{key}={value}", "--out", str(tmp_path)])
        assert code == 2
        assert f"{key} = {value}" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    def test_time_grid_keys_only_for_angles(self, tmp_path, capsys):
        code = vericli.main(["sharpness", "--set", "seed=1", "--set", "t0=0.3",
                             "--set", "ratio=1.1", "--set", "levels=3",
                             "--out", str(tmp_path)])
        assert code == 2
        assert "t0, ratio, levels only apply to angles" in capsys.readouterr().err
        assert not (tmp_path / "sharpness.csv").exists()

    @pytest.mark.parametrize("experiment, bad, extra", [
        ("comparisons", "samples=1", []),
        ("carleson", "samples=1", []),
        ("cp-maximal", "samples=1", []),
        ("boundedness", "samples=0", ["N=16"]),
        ("sharpness", "p=0", []),
        ("angles", "p=0", ["branch=i"]),
        ("cp-maximal", "p0=0", []),
        ("carleson", "p0=-1", []),
        ("offdiag", "t=-0.1", []),
        ("offdiag", "order=-1", []),
        ("boundedness", "p_list=0", ["N=16"]),
        ("sharpness", "apertures=-1,2", []),
        ("carleson", "drift=-1", ["N=16", "samples=4"]),
        ("comparisons", "margin=-1", []),
        ("sharpness", "tol=-0.1", []),
        ("angles", "r=0.5", ["branch=i"]),
        ("angles", "s=0.5", ["branch=ii"]),
        # rejected as out of range, not as a ball that captures no cell
        ("offdiag", "radius=0", []),
        ("angles", "seed=-1", ["branch=i"]),
    ])
    def test_out_of_range_key_is_config_error(self, experiment, bad, extra,
                                              tmp_path, capsys):
        argv = [experiment, "--out", str(tmp_path)]
        for item in ("seed=1", bad, *extra):
            argv += ["--set", item]
        assert vericli.main(argv) == 2
        key = bad.split("=")[0]
        assert f"config error: {key} = " in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    @pytest.mark.parametrize("experiment, items, message", [
        ("offdiag", ["separations=0.12,0.18,0.98"], "separation 0.98 is outside"),
        ("offdiag", ["radius=0.3", "separations=0.7,0.8,0.9"], "separation 0.7 is outside"),
        ("offdiag", ["separations=0.12,0.12,0.12"], "three separations that differ"),
        ("offdiag", ["separations=0.12,0.18,1.24"], "separation 1.24 is outside"),
        ("angles", ["branch=i", "apertures=0.25"], "two apertures that differ"),
        ("sharpness", ["apertures=2,2"], "two apertures that differ"),
        ("boundedness", ["p_list="], "p_list needs at least one entry"),
        ("angles", ["branch=i", "center=0.1,0.2,0.3"], "center (0.1, 0.2, 0.3) does not have n = 2"),
        ("angles", ["branch=i", "center=0.5"], "center (0.5,) does not have n = 2"),
        ("angles", ["branch=i", "n=1", "center=0.1,0.2"], "center (0.1, 0.2) does not have n = 1"),
        ("boundedness", ["p_list=1.5,inf"], "p_list = inf must be finite"),
        ("carleson", ["drift=inf"], "drift = inf must be finite"),
        ("carleson", ["margin=inf"], "margin = inf must be finite"),
        ("sharpness", ["tol=inf"], "tol = inf must be finite"),
        ("angles", ["branch=ii", "s=inf"], "s = inf must be finite"),
        ("angles", ["branch=i", "theta=nan"], "theta = nan must be finite"),
        ("offdiag", ["separations=0.12,-inf,0.3"], "separations = -inf must be finite"),
    ])
    def test_degenerate_geometry_is_config_error(self, experiment, items, message,
                                                 tmp_path, capsys):
        # separations that wrap the torus or repeat, and a lone aperture,
        # leave nothing to compare; a number that is not finite passes
        # every range check and would turn verdicts into passes
        argv = [experiment, "--out", str(tmp_path)]
        for item in ("seed=1", *items):
            argv += ["--set", item]
        assert vericli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.csv").exists()

    def test_unreadable_coeff_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.coef"
        bad.write_bytes(b"NOPE" + b"\x00" * 28)
        for path, message in ((bad, "not a coefficient file"),
                              (tmp_path / "missing.coef", "missing.coef")):
            code = vericli.main(["offdiag", "--set", "seed=1",
                                 "--set", f"coeff_file={path}",
                                 "--out", str(tmp_path)])
            assert code == 2
            err = capsys.readouterr().err
            assert "config error" in err and message in err
        assert not (tmp_path / "offdiag.csv").exists()

    def test_experiment_mismatch(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("seed = 1\nexperiment = angles\n")
        assert vericli.main(["sharpness", "--config", str(path)]) == 2

    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            vericli.main(["frobnicate"])
        assert err.value.code == 2

    def test_all_covers_every_experiment(self, base_cfg, tmp_path):
        out = tmp_path / "out"
        code = vericli.main(["all", "--config", str(base_cfg),
                             "--out", str(out)])
        assert code == 0
        with open(out / "all.csv") as fh:
            fh.readline()
            names = {row["experiment"] for row in csv.DictReader(fh)}
        assert names == set(vericli.EXPERIMENTS)

    def test_config_file_optional(self, tmp_path):
        code = vericli.main(["sharpness", "--set", "seed=1",
                             "--out", str(tmp_path)])
        assert code == 0
