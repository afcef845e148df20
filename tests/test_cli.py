import csv
import io
import json
import math
import os
import sys

import pytest

from shatterlab import cli, dimensions
from shatterlab.classes import generate_class
from shatterlab.communication import index_bits
from shatterlab.cli import main
from shatterlab.errors import NonIntegerReciprocal, TooLarge
from shatterlab.online import NOISES


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


with open(os.path.join(os.path.dirname(__file__), "golden", "configs", "stability.json")) as fh:
    GOLDEN_STABILITY = json.load(fh)


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


class TestGenerateClass:
    def test_singleton(self):
        cls = generate_class(1, 1, 1 / 4, seed=0)
        assert len(cls) == 1 and cls.domain_size == 1

    def test_deterministic(self):
        a = generate_class(4, 10, 1 / 4, seed=42)
        b = generate_class(4, 10, 1 / 4, seed=42)
        assert [c.values for c in a.concepts] == [c.values for c in b.concepts]

    def test_values_on_fine_grid(self):
        zeta = 1 / 4
        cls = generate_class(3, 12, zeta, seed=7)
        n = round(5 / zeta)
        mids = {(2 * k + 1) / (2 * n) for k in range(n)}
        for c in cls.concepts:
            assert all(v in mids for v in c.values)

    def test_guards(self):
        with pytest.raises(TooLarge):
            generate_class(9, 4, 1 / 4, seed=0)
        with pytest.raises(TooLarge):
            generate_class(2, 65, 1 / 4, seed=0)

    @pytest.mark.parametrize("zeta", [0.0, -1.0, 0.3, 6.0])
    def test_rejects_a_zeta_off_the_grid(self, zeta):
        with pytest.raises(NonIntegerReciprocal):
            generate_class(2, 4, zeta, seed=0)


class TestCliRuns:
    def test_dims_on_bundled_class(self, tmp_path):
        cfg = write_config(
            tmp_path, {"seed": 7, "zeta": 1 / 6, "class": {"bundled": "four_constants"}}
        )
        out = str(tmp_path / "out")
        assert main(["dims", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["sfat"] == 2
        assert summary["schema"] == 1

    def test_dims_on_documented_limit_corner(self, tmp_path):
        # the largest generated class (8 points, 64 concepts) on the finest
        # grid the benchmark uses, 1/20, at margin 1/10
        cls_cfg = {"domain_size": 8, "n_concepts": 64, "zeta": 1 / 20, "seed": 1}
        cfg = write_config(tmp_path, {"seed": 1, "zeta": 1 / 10, "class": {"generated": cls_cfg}})
        out = str(tmp_path / "corner")
        assert main(["dims", cfg, "--out", out]) == 0
        summary = read_summary(out)
        cls = generate_class(8, 64, 1 / 20, seed=1)
        witness = dimensions.sfat(cls, 1 / 10).witness
        assert summary["witness"] == dimensions.tree_to_dict(witness)
        assert witness.depth() == summary["sfat"]
        dimensions.validate_tree(cls, witness, 1 / 10)

    def test_online_singleton_no_mistakes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "zeta": 1 / 8,
                "T": 30,
                "class": {"inline": {"domain_size": 1, "concepts": [{"id": 0, "values": [0.5]}]}},
            },
        )
        out = str(tmp_path / "o")
        assert main(["online", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["mistakes"] == 0
        assert summary["within_bound"]
        with open(os.path.join(out, "detail.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "round,x,prediction,feedback,mistake,V"
        assert len(lines) == 31

    def test_malformed_zeta_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"seed": 1, "zeta": 0.3, "class": {"bundled": "four_constants"}}
        )
        assert main(["dims", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "zeta" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, {"zeta": 0.25, "class": {"bundled": "four_constants"}}
        )
        assert main(["dims", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "zeta": 1 / 8,
                "T": 10,
                "class": {"generated": {"domain_size": 3, "n_concepts": 8, "zeta": 1 / 8, "seed": 5}},
            },
        )
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["online", cfg, "--seed", "99", "--out", out1]) == 0
        assert main(["online", cfg, "--seed", "99", "--out", out2]) == 0
        assert read_summary(out1)["seed"] == 99

    def test_consecutive_runs_share_no_arguments(self, tmp_path, monkeypatch):
        # the parser is built once; a second call must not see the first's flags
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "zeta": 1 / 8,
                "T": 10,
                "class": {"generated": {"domain_size": 3, "n_concepts": 8, "zeta": 1 / 8, "seed": 5}},
            },
        )
        monkeypatch.chdir(tmp_path)
        first = str(tmp_path / "a")
        assert main(["online", cfg, "--seed", "99", "--out", first]) == 0
        assert main(["online", cfg]) == 0
        assert read_summary(first)["seed"] == 99
        assert read_summary(tmp_path / "out")["seed"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 11,
                "zeta": 1 / 8,
                "T": 25,
                "noise": "uniform_within",
                "class": {"generated": {"domain_size": 4, "n_concepts": 12, "zeta": 1 / 8}},
            },
        )
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["online", cfg, "--out", out1]) == 0
        assert main(["online", cfg, "--out", out2]) == 0
        b1 = open(os.path.join(out1, "summary.json"), "rb").read()
        b2 = open(os.path.join(out2, "summary.json"), "rb").read()
        assert b1 == b2

    def test_adversary_run(self, tmp_path):
        cfg = write_config(
            tmp_path, {"seed": 3, "zeta": 1 / 6, "class": {"bundled": "four_constants"}}
        )
        out = str(tmp_path / "adv")
        assert main(["adversary", cfg, "--out", out]) == 0
        summary = read_summary(out)
        for learner in ("rsoa", "constant_half"):
            info = summary["learners"][learner]
            assert info["claimed_mistakes"] >= summary["sfat"]
            assert info["all_claims_valid"]

    def test_stability_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 5,
                "zeta": 1 / 4,
                "alpha": 0.5,
                "runs": 120,
                "class": {"bundled": "two_constants"},
            },
        )
        out = str(tmp_path / "st")
        assert main(["stability", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["empirical_frequency"] >= summary["theoretical_floor"] - 0.2

    def test_privacy_run(self, tmp_path):
        cfg = write_config(
            tmp_path, {"seed": 9, "zeta": 1 / 2, "epsilon": 1.0, "trials": 10_000}
        )
        out = str(tmp_path / "pv")
        assert main(["privacy", cfg, "--out", out]) == 0
        assert read_summary(out)["verdict"] is True

    def test_comm_validates_the_tree_once(self, tmp_path, monkeypatch):
        original = dimensions.validate_tree
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("shatterlab") and getattr(module, "validate_tree", None) is original:
                monkeypatch.setattr(module, "validate_tree", counting)
        cfg = write_config(
            tmp_path, {"seed": 2, "zeta": 1 / 4, "class": {"bundled": "boolean_cube_3"}}
        )
        out = str(tmp_path / "cm")
        assert main(["comm", cfg, "--out", out]) == 0
        assert read_summary(out)["instances"] == 24
        assert len(calls) == 1

    @pytest.mark.parametrize("kind, payload", [
        ("online", {"seed": 3, "zeta": 1 / 8, "T": 40,
                    "class": {"generated": {"domain_size": 3, "n_concepts": 8, "zeta": 1 / 4}}}),
        ("shadow", {"seed": 19, "epsilon": 0.5, "generated_states": {"dim": 2, "count": 3}}),
        ("stability", {"seed": 5, "zeta": 1 / 4, "runs": 100, "class": {"bundled": "two_constants"}}),
    ])
    def test_one_sfat_cache_per_run(self, tmp_path, monkeypatch, kind, payload):
        # the learner state's cache answers the run's sfat bound too
        original = dimensions.SfatCache.__init__
        builds = []

        def counting(cache, *args, **kwargs):
            builds.append(args)
            original(cache, *args, **kwargs)

        monkeypatch.setattr(dimensions.SfatCache, "__init__", counting)
        out = str(tmp_path / kind)
        assert main([kind, write_config(tmp_path, payload), "--out", out]) == 0
        assert len(builds) == 1

    def test_comm_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 13,
                "zeta": 1 / 4,
                "class": {
                    "generated": {"domain_size": 3, "n_concepts": 8, "zeta": 1 / 4, "boolean": True}
                },
            },
        )
        out = str(tmp_path / "cm")
        rc = main(["comm", cfg, "--out", out])
        assert rc == 0
        summary = read_summary(out)
        assert summary["success_rate"] == 1.0

    def test_quantum_run(self, tmp_path):
        cfg = write_config(
            tmp_path, {"seed": 17, "generated_states": {"dim": 2, "count": 3}}
        )
        out = str(tmp_path / "qm")
        assert main(["quantum", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["chi_star"] >= summary["chi_uniform"] - 1e-6
        assert summary["chi_uniform"] <= summary["audenaert_bound"] + 1e-9

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_quantum_summary_certifies_chi_star(self, tmp_path, tol):
        cfg = write_config(
            tmp_path, {"seed": 5, "tol": tol, "generated_states": {"dim": 4, "count": 6}}
        )
        out = str(tmp_path / "qc")
        assert main(["quantum", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert 0.0 <= summary["gap"] < tol
        assert isinstance(summary["iterations"], int) and summary["iterations"] >= 1

    def test_shadow_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"seed": 19, "epsilon": 0.5, "generated_states": {"dim": 2, "count": 3}, "n_measurements": 4},
        )
        out = str(tmp_path / "sh")
        assert main(["shadow", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["within_bound"]

    @staticmethod
    def capture(monkeypatch, name):
        """Replace cli.<name> by a wrapper recording (args, result) of each call."""
        calls = []
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append((args, original(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(cli, name, wrapper)
        return calls

    @staticmethod
    def csv_bytes(header, rows):
        """What csv.writer makes of the raw, unrendered row values."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()

    @pytest.mark.parametrize("payload", [
        *({"seed": 6, "zeta": 1 / 5, "T": 300, "noise": noise,
           "class": {"generated": {"domain_size": 4, "n_concepts": 14, "zeta": 1 / 10}}}
          for noise in NOISES),
        # 0.0 and -0.0 are one dict key but two csv texts
        {"seed": 2, "zeta": 1 / 8, "T": 30, "noise": "exact",
         "class": {"inline": {"domain_size": 2, "concepts": [{"id": 0, "values": [0.0, -0.0]},
                                                             {"id": 1, "values": [-0.0, 0.0]}]}}},
    ], ids=[*NOISES, "signed-zeros"])
    def test_online_detail_is_csv_of_the_raw_rounds(self, tmp_path, monkeypatch, payload):
        games = self.capture(monkeypatch, "run_online_game")
        out = str(tmp_path / "on")
        assert main(["online", write_config(tmp_path, payload), "--out", out]) == 0
        ((_, tr),) = games
        rows = [[r.t, r.x, r.prediction, r.feedback, r.mistake, r.v_after] for r in tr.rounds]
        header = ["round", "x", "prediction", "feedback", "mistake", "V"]
        with open(os.path.join(out, "detail.csv"), "rb") as fh:
            assert fh.read() == self.csv_bytes(header, rows)

    @pytest.mark.parametrize("payload", [
        {"seed": 19, "epsilon": 0.5, "generated_states": {"dim": 2, "count": 3}},
        {"seed": 7, "epsilon": 0.2, "generated_states": {"dim": 4, "count": 6},
         "n_measurements": 8, "stream_repeats": 3},
    ])
    def test_shadow_detail_is_csv_of_the_raw_stream(self, tmp_path, monkeypatch, payload):
        streams = self.capture(monkeypatch, "run_shadow_stream")
        out = str(tmp_path / "sh")
        assert main(["shadow", write_config(tmp_path, payload), "--out", out]) == 0
        (((cls, target, _, _), tr),) = streams
        truth = cls.by_id(target).values
        rows = [[i, r.x, r.prediction, truth[r.x], r.mistake] for i, r in enumerate(tr.rounds)]
        header = ["position", "measurement", "estimate", "truth", "mistake"]
        with open(os.path.join(out, "detail.csv"), "rb") as fh:
            assert fh.read() == self.csv_bytes(header, rows)

    @pytest.mark.parametrize("payload", [
        {"seed": 3, "zeta": 1 / 6, "class": {"bundled": "four_constants"}},
        {"seed": 4, "zeta": 1 / 8,
         "class": {"generated": {"domain_size": 5, "n_concepts": 24, "zeta": 1 / 8}}},
    ])
    def test_adversary_detail_is_csv_of_the_raw_games(self, tmp_path, monkeypatch, payload):
        games = self.capture(monkeypatch, "run_weak_forcing_game")
        out = str(tmp_path / "adv")
        assert main(["adversary", write_config(tmp_path, payload), "--out", out]) == 0
        rows = [[name, xi, pred, right]
                for name, (_, res) in zip(("rsoa", "constant_half"), games, strict=True)
                for xi, pred, right in res.rounds]
        assert rows
        with open(os.path.join(out, "detail.csv"), "rb") as fh:
            assert fh.read() == self.csv_bytes(["learner", "x", "prediction", "went_right"], rows)

    @pytest.mark.parametrize("payload", [
        {"seed": 9, "zeta": 1 / 2, "epsilon": 1.0, "trials": 10_000},
        {"seed": 4, "zeta": 1 / 2, "epsilon": 0.5, "trials": 10_000, "domain_size": 2, "m": 3},
    ])
    def test_privacy_detail_is_csv_of_the_raw_events(self, tmp_path, monkeypatch, payload):
        tests = self.capture(monkeypatch, "dp_test")
        out = str(tmp_path / "pv")
        assert main(["privacy", write_config(tmp_path, payload), "--out", out]) == 0
        ((_, report),) = tests
        rows = [[e.event, e.freq_s, e.freq_s_prime, e.slack] for e in report.events]
        with open(os.path.join(out, "detail.csv"), "rb") as fh:
            assert fh.read() == self.csv_bytes(["event", "freq_s", "freq_s_prime", "slack"], rows)

    @pytest.mark.parametrize("payload", [
        {"seed": 2, "zeta": 1 / 4, "class": {"bundled": "boolean_cube_3"}},
        {"seed": 13, "zeta": 1 / 8, "failure_rate": 0.2,
         "class": {"generated": {"domain_size": 5, "n_concepts": 20, "zeta": 1 / 8}}},
    ])
    def test_comm_detail_is_csv_of_the_raw_instances(self, tmp_path, monkeypatch, payload):
        runs = self.capture(monkeypatch, "augindex_via_eval")
        out = str(tmp_path / "cm")
        assert main(["comm", write_config(tmp_path, payload), "--out", out]) == 0
        rows = [[inst.x, inst.i, index_bits(cls), success]
                for (cls, _, inst, _, _), success in runs]
        with open(os.path.join(out, "detail.csv"), "rb") as fh:
            assert fh.read() == self.csv_bytes(["x", "i", "bits", "success"], rows)

    def test_quantum_from_state_files(self, tmp_path):
        paths = []
        for name, mat in (
            ("zero.json", [[1, 0], [0, 0]]),
            ("one.json", [[0, 0], [0, 1]]),
        ):
            p = tmp_path / name
            p.write_text(json.dumps({"dim": 2, "re": mat, "im": [[0, 0], [0, 0]]}))
            paths.append(str(p))
        cfg = write_config(tmp_path, {"seed": 23, "states_files": paths})
        out = str(tmp_path / "qf")
        assert main(["quantum", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["chi_star"] == pytest.approx(1.0, abs=1e-5)
        assert summary["chi_uniform"] == pytest.approx(1.0, abs=1e-9)

    def test_oversized_generated_class_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 1,
                "zeta": 0.25,
                "class": {"generated": {"domain_size": 12, "n_concepts": 4, "zeta": 0.25}},
            },
        )
        assert main(["dims", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["dims", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


ONLINE_CFG = {
    "seed": 1,
    "zeta": 1 / 8,
    "T": 10,
    "class": {"generated": {"domain_size": 3, "n_concepts": 8, "zeta": 1 / 8, "seed": 5}},
}


class TestNoStaleReports:
    """A report in --out always belongs to the last run into it."""

    def test_failed_run_leaves_no_report(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["online", write_config(tmp_path, ONLINE_CFG), "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["detail.csv", "summary.json"]
        bad = write_config(tmp_path, {**ONLINE_CFG, "zeta": 0.3}, name="bad.json")
        assert main(["online", bad, "--out", out]) == 2
        assert os.listdir(out) == []
        # an unreadable config fails before any runner, and clears the report too
        assert main(["online", write_config(tmp_path, ONLINE_CFG), "--out", out]) == 0
        assert main(["online", str(tmp_path / "none.json"), "--out", out]) == 2
        assert os.listdir(out) == []

    def test_run_without_detail_removes_an_earlier_detail(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["online", write_config(tmp_path, ONLINE_CFG), "--out", out]) == 0
        quantum = write_config(
            tmp_path, {"seed": 17, "generated_states": {"dim": 2, "count": 3}}, name="q.json"
        )
        assert main(["quantum", quantum, "--out", out]) == 0
        assert os.listdir(out) == ["summary.json"]
        assert read_summary(out)["kind"] == "quantum"

    def test_out_naming_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refuse(cfg, seed):
            raise AssertionError("the runner ran")

        monkeypatch.setitem(cli._RUNNERS, "online", refuse)
        out = tmp_path / "out"
        out.write_text("kept")
        assert main(["online", write_config(tmp_path, ONLINE_CFG), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "output error" in err and str(out) in err
        assert out.read_text() == "kept"


MALFORMED = {
    "privacy_m_zero": ("privacy", {"seed": 1, "zeta": 0.5, "m": 0}),
    "distribution_longer_than_domain": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "distribution": [0.5, 0.5],
         "class": {"bundled": "two_constants"}},
    ),
    "bundled_name_not_a_string": ("dims", {"seed": 1, "zeta": 0.25, "class": {"bundled": ["x"]}}),
    "generated_without_domain_size": (
        "dims",
        {"seed": 1, "zeta": 0.25, "class": {"generated": {"n_concepts": 4}}},
    ),
    "zeta_not_a_number": ("dims", {"seed": 1, "zeta": "abc", "class": {"bundled": "four_constants"}}),
    "zeta_one": ("dims", {"seed": 1, "zeta": 1, "class": {"bundled": "four_constants"}}),
    "T_not_a_number": (
        "online",
        {"seed": 1, "zeta": 0.125, "T": "x", "class": {"bundled": "four_constants"}},
    ),
    # the round count's range rule lives in run_online_game
    "T_zero": (
        "online",
        {"seed": 1, "zeta": 0.125, "T": 0, "class": {"bundled": "four_constants"}},
    ),
    "T_negative": (
        "online",
        {"seed": 1, "zeta": 0.125, "T": -3, "class": {"bundled": "four_constants"}},
    ),
    "missing_states_file": ("quantum", {"seed": 1, "states_files": ["no/such/state.json"]}),
    "zero_tol": ("quantum", {"seed": 1, "tol": 0}),
    # the online learner needs super-bin midpoints, so zeta <= 1/3
    "online_zeta_half": ("online", {"seed": 1, "zeta": 0.5, "class": {"bundled": "two_constants"}}),
    "adversary_zeta_half": (
        "adversary",
        {"seed": 1, "zeta": 0.5, "class": {"bundled": "two_constants"}},
    ),
    "stability_zeta_half": (
        "stability",
        {"seed": 1, "zeta": 0.5, "class": {"bundled": "two_constants"}},
    ),
    "privacy_too_many_hypotheses": ("privacy", {"seed": 1, "zeta": 0.01, "domain_size": 4}),
    # delta outside [0, 1) made the verdict meaningless; e^epsilon overflowed in dp_test
    "privacy_negative_delta": ("privacy", {"seed": 1, "zeta": 0.5, "delta": -1}),
    "privacy_delta_two": ("privacy", {"seed": 1, "zeta": 0.5, "delta": 2}),
    "privacy_epsilon_overflow": ("privacy", {"seed": 1, "zeta": 0.5, "epsilon": 1e308}),
    "shadow_negative_repeats": ("shadow", {"seed": 1, "epsilon": 0.5, "stream_repeats": -1}),
    # range rules the library checks itself: OutOfRange, NonIntegerReciprocal,
    # TooLarge and DimMismatch mean a bad config, not an experiment fault
    "stability_runs_99": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 99, "class": {"bundled": "two_constants"}},
    ),
    "stability_alpha_zero": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "alpha": 0, "class": {"bundled": "two_constants"}},
    ),
    # a tiny alpha made m = d ln(1/zeta) / alpha infinite, and math.ceil
    # raised a bare OverflowError
    "stability_alpha_tiny": ("stability", {**GOLDEN_STABILITY, "alpha": 1e-308}),
    # an infinite alpha gave m = 0 and wrote "alpha": Infinity, which is not JSON
    "stability_alpha_infinite": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "alpha": math.inf,
         "class": {"bundled": "two_constants"}},
    ),
    "privacy_epsilon_zero": ("privacy", {"seed": 1, "zeta": 0.5, "epsilon": 0}),
    "privacy_trials_100": ("privacy", {"seed": 1, "zeta": 0.5, "trials": 100}),
    "comm_negative_failure_rate": (
        "comm",
        {"seed": 1, "zeta": 0.25, "failure_rate": -0.5, "class": {"bundled": "boolean_cube_3"}},
    ),
    "comm_failure_rate_one": (
        "comm",
        {"seed": 1, "zeta": 0.25, "failure_rate": 1, "class": {"bundled": "boolean_cube_3"}},
    ),
    "online_unknown_target": (
        "online",
        {"seed": 1, "zeta": 0.125, "target_id": 7, "class": {"bundled": "two_constants"}},
    ),
    "stability_unknown_target": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "target_id": 7,
         "class": {"bundled": "two_constants"}},
    ),
    "shadow_unknown_target": ("shadow", {"seed": 1, "epsilon": 0.5, "target_id": 7}),
    # epsilon/5 = 0.06 has no integer reciprocal
    "shadow_epsilon_off_grid": ("shadow", {"seed": 1, "epsilon": 0.3}),
    "inline_class_of_65_concepts": (
        "dims",
        {"seed": 1, "zeta": 0.25, "class": {"inline": {
            "domain_size": 1, "concepts": [{"id": i, "values": [0.5]} for i in range(65)]}}},
    ),
    "generated_zeta_zero": (
        "dims",
        {"seed": 1, "zeta": 0.25,
         "class": {"generated": {"domain_size": 2, "n_concepts": 4, "zeta": 0}}},
    ),
    "generated_zeta_negative": (
        "dims",
        {"seed": 1, "zeta": 0.25,
         "class": {"generated": {"domain_size": 2, "n_concepts": 4, "zeta": -1}}},
    ),
    # numpy's SeedSequence raised an uncaught ValueError on a negative seed
    "privacy_negative_seed": ("privacy", {"seed": -3, "zeta": 0.25, "trials": 10_000}),
    # dims and adversary on a bundled or inline class derive no stream from
    # the seed, and wrote "seed": -1 to the report
    "dims_negative_seed": (
        "dims",
        {"seed": -1, "zeta": 1 / 6, "class": {"bundled": "four_constants"}},
    ),
    "adversary_negative_seed": (
        "adversary",
        {"seed": -1, "zeta": 0.25, "class": {"inline": {
            "domain_size": 1, "concepts": [{"id": 0, "values": [0.1]}, {"id": 1, "values": [0.9]}]}}},
    ),
    "generated_negative_seed": (
        "dims",
        {"seed": 1, "zeta": 0.25,
         "class": {"generated": {"domain_size": 2, "n_concepts": 4, "seed": -3}}},
    ),
    # NaN slipped past guards written as `v < 0` and `abs(s - 1) > tol`
    "stability_nan_distribution": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "distribution": [math.nan],
         "class": {"bundled": "two_constants"}},
    ),
    # bool("false") is true, and int(2.5) and int(True) truncate silently
    "generated_boolean_string": (
        "dims",
        {"seed": 1, "zeta": 0.25,
         "class": {"generated": {"domain_size": 2, "n_concepts": 4, "boolean": "false"}}},
    ),
    # an inline class was read with int() and kept as given: ids and
    # domain_size truncated, and a string value accepted
    "inline_fractional_id": (
        "dims",
        {"seed": 1, "zeta": 0.25, "class": {"inline": {
            "domain_size": 1, "concepts": [{"id": 1.7, "values": [0.5]}]}}},
    ),
    "inline_fractional_domain_size": (
        "dims",
        {"seed": 1, "zeta": 0.25, "class": {"inline": {
            "domain_size": 1.9, "concepts": [{"id": 1, "values": [0.5]}]}}},
    ),
    "inline_string_value": (
        "dims",
        {"seed": 1, "zeta": 0.25, "class": {"inline": {
            "domain_size": 1, "concepts": [{"id": 1, "values": ["0.9"]}]}}},
    ),
    "T_fractional": (
        "online",
        {"seed": 1, "zeta": 0.125, "T": 2.5, "class": {"bundled": "four_constants"}},
    ),
    "T_a_bool": (
        "online",
        {"seed": 1, "zeta": 0.125, "T": True, "class": {"bundled": "four_constants"}},
    ),
    # float("0.25") and int("100") read numbers given as strings
    # Distribution() read each probability with float()
    "stability_distribution_string": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "distribution": ["1"],
         "class": {"bundled": "two_constants"}},
    ),
    "stability_distribution_bool": (
        "stability",
        {"seed": 1, "zeta": 0.25, "runs": 100, "distribution": [True],
         "class": {"bundled": "two_constants"}},
    ),
    "stability_numbers_as_strings": (
        "stability",
        {"seed": 5, "zeta": "0.25", "runs": "100", "alpha": "0.5",
         "class": {"bundled": "two_constants"}},
    ),
    "zeta_a_string": ("dims", {"seed": 1, "zeta": "0.25", "class": {"bundled": "four_constants"}}),
    "T_a_string": (
        "online",
        {"seed": 1, "zeta": 0.125, "T": "100", "class": {"bundled": "four_constants"}},
    ),
    "seed_a_string": ("privacy", {"seed": "1", "zeta": 0.5}),
    "generated_n_concepts_a_string": (
        "dims",
        {"seed": 1, "zeta": 0.25,
         "class": {"generated": {"domain_size": 2, "n_concepts": "4"}}},
    ),
    # an infinite tol stopped max_holevo at its first evaluation
    "quantum_infinite_tol": ("quantum", {"seed": 1, "tol": math.inf}),
}


def test_negative_seed_on_the_command_line_exits_2(tmp_path, capsys):
    # dims on a bundled class derives no stream from its seed
    cfg = write_config(tmp_path, {"zeta": 1 / 6, "class": {"bundled": "four_constants"}})
    out = tmp_path / "out"
    assert main(["dims", cfg, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def write_matrix(tmp_path, name, dim, entries):
    """A JSON state or effect file: a dim x dim real matrix with the given diagonal."""
    path = tmp_path / name
    re = [[entries[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    path.write_text(json.dumps({"dim": dim, "re": re, "im": [[0.0] * dim for _ in range(dim)]}))
    return str(path)


def _seventeen_states(tmp_path):
    path = write_matrix(tmp_path, "zero.json", 2, [1.0, 0.0])
    return "quantum", {"seed": 1, "states_files": [path] * 17}


def _mixed_dimension_states(tmp_path):
    paths = [write_matrix(tmp_path, "q1.json", 2, [1.0, 0.0]),
             write_matrix(tmp_path, "q2.json", 4, [1.0, 0.0, 0.0, 0.0])]
    return "quantum", {"seed": 1, "states_files": paths}


def _effect_dimension_off_state(tmp_path):
    state = write_matrix(tmp_path, "state.json", 2, [1.0, 0.0])
    effect = write_matrix(tmp_path, "effect.json", 4, [1.0, 0.0, 0.0, 0.0])
    return "shadow", {"seed": 1, "epsilon": 0.5, "states_files": [state],
                      "measurements_files": [effect]}


def _nan_state(kind):
    # a NaN entry crashed quantum's eigensolver and slipped through shadow
    def build(tmp_path):
        path = write_matrix(tmp_path, "nan.json", 2, [math.nan, 1.0])
        return kind, {"seed": 1, "states_files": [path]}
    return build


#: malformed configs that point at files; each builds its files under tmp_path
MALFORMED_WITH_FILES = {
    "seventeen_states_files": _seventeen_states,
    "mixed_dimension_states_files": _mixed_dimension_states,
    "measurement_dimension_off_state": _effect_dimension_off_state,
    "quantum_nan_state": _nan_state("quantum"),
    "shadow_nan_state": _nan_state("shadow"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(MALFORMED_WITH_FILES))
def test_malformed_config_exits_2(case, tmp_path, capsys):
    if case in MALFORMED:
        kind, payload = MALFORMED[case]
    else:
        kind, payload = MALFORMED_WITH_FILES[case](tmp_path)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([kind, cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
