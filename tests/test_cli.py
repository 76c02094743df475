import json
import os
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from syncround import (
    dump_commuting_strategy,
    load_commuting_strategy,
    load_game,
    load_tracial_strategy,
    save_game,
    tracial_correlation,
    game_value,
    graph_coloring_game,
    cyclic_coloring_strategy,
    perturb_b_side,
)
from syncround import cli
from syncround.cli import main
from syncround.sampling import rng_for

from conftest import diagonal_game_doc
from oracles import VERIFY_INSTANCES, commutator_draw, pair_draw, rounding_instance


@pytest.fixture
def k2_game_file(tmp_path):
    game = graph_coloring_game([("v0", "v1")], 3, "1/2")
    path = tmp_path / "k2.json"
    path.write_text(save_game(game), encoding="utf-8")
    return str(path)


@pytest.fixture
def k2_strategy_file(tmp_path):
    s = cyclic_coloring_strategy(("v0", "v1"), 3)
    path = tmp_path / "strategy.json"
    path.write_text(dump_commuting_strategy(s), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestInspect:
    def test_k2_alpha(self, capsys, k2_game_file):
        code, report, err = run_cli(capsys, ["inspect", "--game", k2_game_file])
        assert code == 0
        assert report["alpha"] == 0.5
        assert report["n_questions"] == 2 and report["n_answers"] == 3
        assert "alpha" in err

    def test_diagonal_game_alpha_one(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        path.write_text(diagonal_game_doc(["q0", "q1"], ["a", "b"]), encoding="utf-8")
        code, report, _ = run_cli(capsys, ["inspect", "--game", str(path)])
        assert code == 0
        assert report["alpha"] == 1.0

    def test_malformed_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, report, err = run_cli(capsys, ["inspect", "--game", str(path)])
        assert code == 2
        assert "error" in err

    def test_string_questions_exit_two(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        doc = dict(json.loads(diagonal_game_doc(["v", "0"], ["a"])), questions="v0")
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_cli(capsys, ["inspect", "--game", str(path)])
        assert code == 2 and report is None
        assert "questions must be a JSON array" in err

    def test_integer_labels_exit_two(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        doc = json.loads(diagonal_game_doc(["v", "0"], ["a"]))
        doc.update(questions=[0, 1], nu=[{"x": 0, "y": 0, "w": 1}])
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_cli(capsys, ["inspect", "--game", str(path)])
        assert code == 2 and report is None
        assert "questions label 0 is not a JSON string" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"default": True}, "predicate default must be the JSON integer 0 or 1, got True"),
            ({"v": False}, "'v': False}"),
            ({"v": 1.0}, "'v': 1.0}"),
        ],
        ids=["default-true", "value-false", "value-float"],
    )
    def test_predicate_values_must_be_json_integers(
        self, capsys, tmp_path, k2_strategy_file, edit, message
    ):
        doc = json.loads(save_game(graph_coloring_game([("v0", "v1")], 3, "1/2")))
        predicate = doc["predicate"]
        if "default" in edit:
            predicate.update(edit)
        else:
            predicate["entries"][0].update(edit)
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (
            ["inspect", "--game", str(path)],
            ["round", "--game", str(path), "--strategy", k2_strategy_file,
             "--out", str(tmp_path / "out.json")],
        ):
            code, report, err = run_cli(capsys, argv)
            assert code == 2 and report is None
            assert message in err
            if "v" in edit:
                assert "predicate value must be the JSON integer 0 or 1 in entry" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["inspect", "--game", str(tmp_path / "missing.json")]
        )
        assert code == 2


class TestRound:
    def test_exact_strategy_preserves_value(
        self, capsys, tmp_path, k2_game_file, k2_strategy_file
    ):
        out = tmp_path / "tracial.json"
        code, report, _ = run_cli(
            capsys,
            [
                "round",
                "--game",
                k2_game_file,
                "--strategy",
                k2_strategy_file,
                "--out",
                str(out),
            ],
        )
        assert code == 0
        cert = report["certificate"]
        assert cert["delta"] <= 1e-10
        assert abs(cert["value_in"] - cert["value_out"]) <= 1e-8
        game = load_game(Path(k2_game_file).read_text(encoding="utf-8"))
        tracial = load_tracial_strategy(out.read_text())
        value = game_value(game, tracial_correlation(tracial, game.questions))
        assert abs(value - cert["value_out"]) <= 1e-9
        # delta = 0 gives zero bounds, which d1_total meets only by slack
        assert cert["holds_by_slack"] is True
        assert cert["vacuous_total"] is False and cert["vacuous_game"] is False

    def test_perturbed_strategy_exit_zero(
        self, capsys, tmp_path, k2_game_file, k2_strategy_file
    ):
        text = Path(k2_strategy_file).read_text(encoding="utf-8")
        s = perturb_b_side(load_commuting_strategy(text), 0.05, 3)
        spath = tmp_path / "perturbed.json"
        spath.write_text(dump_commuting_strategy(s), encoding="utf-8")
        out = tmp_path / "tracial.json"
        code, report, _ = run_cli(
            capsys,
            ["round", "--game", k2_game_file, "--strategy", str(spath), "--out", str(out)],
        )
        assert code == 0
        assert report["certificate"]["delta"] > 0
        assert report["certificate"]["vacuous_total"] is True
        assert report["certificate"]["holds_by_slack"] is False
        assert report["summary"]["pass"] is True

    def test_alpha_zero_game_rejected(self, capsys, tmp_path, k2_strategy_file):
        doc = {
            "questions": ["v0", "v1"],
            "answers": ["0", "1", "2"],
            "nu": [{"x": "v0", "y": "v1", "w": "1/2"}],
            "predicate": {"default": 1, "entries": []},
        }
        gpath = tmp_path / "offdiag.json"
        gpath.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            [
                "round",
                "--game",
                str(gpath),
                "--strategy",
                k2_strategy_file,
                "--out",
                str(tmp_path / "out.json"),
            ],
        )
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("fault", ["not a projection", "2 outcomes", "non-finite entry"])
    def test_faulty_pvm_in_strategy_file_exit_two(
        self, capsys, tmp_path, k2_game_file, k2_strategy_file, fault
    ):
        doc = json.loads(Path(k2_strategy_file).read_text(encoding="utf-8"))
        family = doc["pvmsB"]["v1"]
        if fault == "not a projection":
            family[2] = [[[0.5 * re, im] for re, im in row] for row in family[2]]
        elif fault == "non-finite entry":
            family[2][0][0][0] = float("nan")
        else:
            del family[2]
        spath = tmp_path / "faulty.json"
        spath.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_cli(
            capsys,
            ["round", "--game", k2_game_file, "--strategy", str(spath),
             "--out", str(tmp_path / "out.json")],
        )
        assert code == 2 and report is None
        assert "'v1'" in err and fault in err

    def test_boolean_matrix_exit_two(self, capsys, tmp_path, k2_game_file, k2_strategy_file):
        doc = json.loads(Path(k2_strategy_file).read_text(encoding="utf-8"))
        element = doc["pvmsA"]["v0"][0]
        doc["pvmsA"]["v0"][0] = [[[bool(re), bool(im)] for re, im in row] for row in element]
        spath = tmp_path / "booleans.json"
        spath.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run_cli(
            capsys,
            ["round", "--game", k2_game_file, "--strategy", str(spath),
             "--out", str(tmp_path / "out.json")],
        )
        assert code == 2 and report is None
        assert "malformed complex matrix in pvmsA['v0']" in err and "got bool entries" in err

    @pytest.mark.parametrize(
        "key, value, code, message",
        [
            ("dimA", 3.9, 2, "dimA must be a JSON integer, got 3.9"),
            ("dimB", "x", 2, "dimB must be a JSON integer, got 'x'"),
            # ||xi|| - 1 = 9e-11 puts tr rho 1.8e-10 from 1
            ("xi", 1 + 9e-11, 2, "state is not a unit vector"),
            ("xi", 1 + 4.5e-11, 0, "bounds hold"),
        ],
        ids=["dim-fraction", "dim-string", "mass-outside", "mass-inside"],
    )
    def test_strategy_file_fields(
        self, capsys, tmp_path, k2_game_file, k2_strategy_file, key, value, code, message
    ):
        doc = json.loads(Path(k2_strategy_file).read_text(encoding="utf-8"))
        doc[key] = (np.array(doc["xi"]) * value).tolist() if key == "xi" else value
        spath = tmp_path / "edited.json"
        spath.write_text(json.dumps(doc), encoding="utf-8")
        exit_code, _, err = run_cli(
            capsys,
            ["round", "--game", k2_game_file, "--strategy", str(spath),
             "--out", str(tmp_path / "out.json")],
        )
        assert exit_code == code and message in err


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["connes", "measure", "commutator", "duality", "rounding"]
    )
    def test_suites_pass(self, capsys, suite):
        code, report, _ = run_cli(
            capsys,
            ["verify", "--suite", suite, "--n", "6", "--dims", "5", "--seed", "11"],
        )
        assert code == 0
        assert report["summary"]["pass"] is True
        assert len(report["instances"]) == 6

    def test_zero_instances_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "connes", "--n", "0", "--seed", "1"])
        assert excinfo.value.code == 2

    def test_negative_seed_exit_two(self, capsys):
        code, report, err = run_cli(
            capsys, ["verify", "--suite", "connes", "--n", "3", "--seed", "-1"]
        )
        assert code == 2 and report is None
        assert "expected non-negative integer" in err

    def test_each_slab_seeded_in_one_call(self, capsys, monkeypatch):
        seeded = []

        def recording(seed, *index):
            seeded.append((seed, *(np.asarray(i).tolist() for i in index)))
            return rng_for(seed, *index)

        monkeypatch.setattr("syncround.cli.VERIFY_SLAB", 4)
        monkeypatch.setattr(cli, "rng_for", recording)
        code, _, _ = run_cli(
            capsys, ["verify", "--suite", "measure", "--n", "10", "--dims", "2", "--seed", "6"]
        )
        assert code == 0
        assert seeded == [(6, [0, 1, 2, 3]), (6, [4, 5, 6, 7]), (6, [8, 9])]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "connes", "--n", "3"])
        assert excinfo.value.code == 2

    # rounding is the suite that runs verify_dual_distance
    @pytest.mark.parametrize("suite", ["connes", "rounding"])
    def test_reports_byte_identical_modulo_timings(self, capsys, suite):
        argv = ["verify", "--suite", suite, "--n", "5", "--dims", "4", "--seed", "7"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first) == json.dumps(second)

    @pytest.mark.parametrize("suite", ["measure", "rounding"])
    def test_thread_cap_respected(self, capsys, monkeypatch, suite):
        argv = ["verify", "--suite", suite, "--n", "4", "--dims", "4", "--seed", "3"]
        monkeypatch.setenv("SYNCROUND_THREADS", "1")
        _, serial, _ = run_cli(capsys, argv)
        monkeypatch.setenv("SYNCROUND_THREADS", "2")
        _, pooled, _ = run_cli(capsys, argv)
        serial.pop("timings")
        pooled.pop("timings")
        assert json.dumps(serial) == json.dumps(pooled)

    def test_pool_sized_from_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("SYNCROUND_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._pool_size() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
        assert cli._pool_size() == 8
        monkeypatch.setenv("SYNCROUND_THREADS", "3")
        assert cli._pool_size() == 3
        monkeypatch.delenv("SYNCROUND_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._pool_size() == 8

    def test_invalid_thread_cap_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SYNCROUND_THREADS", "lots")
        code, _, err = run_cli(
            capsys, ["verify", "--suite", "connes", "--n", "2", "--seed", "1"]
        )
        assert code == 2
        assert "SYNCROUND_THREADS" in err


def assert_rows_match(stacked, oracle, path="row"):
    """Same fields in the same order, numbers within 1e-10 (1 + |v|),
    identical flags and integers."""
    if isinstance(oracle, dict):
        assert list(stacked) == list(oracle), path
        for key in oracle:
            assert_rows_match(stacked[key], oracle[key], f"{path}.{key}")
    elif isinstance(oracle, float):
        assert abs(stacked - oracle) <= 1e-10 * (1.0 + abs(oracle)), path
    else:
        assert type(stacked) is type(oracle) and stacked == oracle, path


class TestStackedSuites:
    """Each stacked suite against the per-instance oracle runner."""

    @pytest.mark.parametrize("suite", sorted(VERIFY_INSTANCES))
    @pytest.mark.parametrize(
        "n, dims, seed",
        [
            (12, 1, 4),  # 1x1 matrices, one group
            (3, 8, 5),  # most dimension groups empty
            (10, 3, 14),  # some group holds a single instance
            (500, 8, 7),  # README size: two slabs of VERIFY_SLAB
        ],
    )
    def test_rows_match_per_instance_oracle(self, capsys, suite, n, dims, seed):
        code, report, _ = run_cli(
            capsys,
            ["verify", "--suite", suite, "--n", str(n), "--dims", str(dims),
             "--seed", str(seed)],
        )
        oracle = [VERIFY_INSTANCES[suite](seed, i, dims) for i in range(n)]
        assert code == 0
        assert len(report["instances"]) == n
        for stacked, expected in zip(report["instances"], oracle):
            assert_rows_match(stacked, expected, f"{suite} row {expected['index']}")
        if dims == 3:
            groups = Counter((r["dim"], r.get("n_outcomes")) for r in oracle)
            assert len(groups) > 1 and 1 in groups.values()


    @pytest.mark.parametrize("suite", sorted(VERIFY_INSTANCES))
    def test_slabs_match_per_instance_oracle(self, capsys, monkeypatch, suite):
        monkeypatch.setattr("syncround.cli.VERIFY_SLAB", 4)
        _, report, _ = run_cli(
            capsys, ["verify", "--suite", suite, "--n", "10", "--dims", "2", "--seed", "6"]
        )
        assert [row["index"] for row in report["instances"]] == list(range(10))
        for i, stacked in enumerate(report["instances"]):
            assert_rows_match(stacked, VERIFY_INSTANCES[suite](6, i, 2), f"{suite} row {i}")

    def test_stacked_instances_equal_per_instance_generators(self, capsys, monkeypatch):
        """The instances each runner's transform makes are bitwise the
        per-instance random_psd / random_pvm draws, at every dimension 1..8
        and every outcome count 2..4, zero projections (n_outcomes > dim)
        included."""
        received = {}
        # the runner's group, read by the transform it calls on its thread
        group = threading.local()

        def indexing(runner):
            def run(key, indices, *draws):
                group.key, group.indices = key, indices
                return runner(key, indices, *draws)

            return run

        def recording(suite, transform):
            def record(*draws):
                instances = transform(*draws)
                for i, index in enumerate(group.indices.tolist()):
                    received[suite, index] = (group.key, [stack[i] for stack in instances])
                return instances

            return record

        n = 300
        transforms = {"connes": "_psd_pair", "commutator": "_unit_psd_and_pvm"}
        for suite, name in transforms.items():
            runner = cli._INSTANCE_RUNNERS[suite]
            monkeypatch.setitem(cli._INSTANCE_RUNNERS, suite, indexing(runner))
            monkeypatch.setattr(cli, name, recording(suite, getattr(cli, name)))
            run_cli(capsys, ["verify", "--suite", suite, "--n", str(n), "--seed", "21"])
        shapes = set()
        for index in range(n):
            dim, x, y = pair_draw(21, index, 8)
            key, (xs, ys) = received["connes", index]
            assert key == (dim,)
            assert np.array_equal(xs, x) and np.array_equal(ys, y), index
            dim, x, n_outcomes, pvm = commutator_draw(21, index, 8)
            key, (xs, pvms) = received["commutator", index]
            assert key == (dim, n_outcomes)
            assert np.array_equal(xs, x) and np.array_equal(pvms, np.array(pvm)), index
            shapes.add(key)
        assert shapes == {(d, a) for d in range(1, 9) for a in range(2, 5)}


class TestRoundingSuite:
    """The rounding suite, one corner stage per group, against rounding
    every instance from scratch: the rows must be identical."""

    def test_readme_size_rows_equal_oracle(self, capsys):
        code, report, _ = run_cli(
            capsys, ["verify", "--suite", "rounding", "--n", "60", "--seed", "7"]
        )
        assert code == 0
        oracle = [rounding_instance(7, i, 8) for i in range(60)]
        assert json.dumps(report["instances"]) == json.dumps(oracle)
        # at these perturbation sizes every total bound exceeds 2
        bounds = [row["bound_total"] for row in report["instances"]]
        assert all(row["vacuous_total"] for row in report["instances"])
        assert 4.5 < min(bounds) and max(bounds) < 16.5

    def test_corners_rebuilt_per_slab(self, capsys, monkeypatch):
        import syncround.rounding

        built = []
        original = syncround.rounding.round_corners

        def counting(game, s):
            built.append(s)
            return original(game, s)

        monkeypatch.setattr("syncround.cli.VERIFY_SLAB", 4)
        monkeypatch.setattr("syncround.rounding.round_corners", counting)
        _, report, _ = run_cli(
            capsys, ["verify", "--suite", "rounding", "--n", "10", "--seed", "6"]
        )
        assert len(built) == 3
        oracle = [rounding_instance(6, i, 8) for i in range(10)]
        assert json.dumps(report["instances"]) == json.dumps(oracle)

    @pytest.mark.parametrize("seed", [6, 13])
    def test_stacked_rows_equal_per_instance_calls(self, capsys, monkeypatch, seed):
        """Every row of the stacked sweep, its groups split across slabs of
        4, is the row of round_strategy and verify_dual_distance on
        perturb_b_side of a fresh base strategy, bit for bit."""
        monkeypatch.setattr("syncround.cli.VERIFY_SLAB", 4)
        code, report, _ = run_cli(
            capsys, ["verify", "--suite", "rounding", "--n", "10", "--seed", str(seed)]
        )
        assert code == 0
        for row in report["instances"]:
            assert json.dumps(row) == json.dumps(rounding_instance(seed, row["index"], 8))

    def test_corrupted_instance_in_second_slab_is_named(self, capsys, monkeypatch):
        import syncround.cli

        perturb = syncround.cli.perturb_b_sides
        calls = []

        def corrupted(s, etas, seeds):
            stack = perturb(s, etas, seeds)
            calls.append(None)
            if len(calls) == 2:  # the slab of instances 4-7: position 2 is instance 6
                stack[2, 1, 0] *= 1.5
            return stack

        monkeypatch.setattr("syncround.cli.VERIFY_SLAB", 4)
        monkeypatch.setattr(syncround.cli, "perturb_b_sides", corrupted)
        code, report, err = run_cli(
            capsys, ["verify", "--suite", "rounding", "--n", "10", "--seed", "6"]
        )
        assert code == 2 and report is None
        assert "B side PVM for question 'v1' of instance 6 element 0 is not a projection" in err

    def test_one_stage_built_per_slab(self, capsys, monkeypatch):
        """Each slab's round_b_sides builds one stage for all its
        instances: the corner decomposition runs once per slab, not per
        instance."""
        import syncround.rounding

        built = []
        original = syncround.rounding.corner_decomposition

        def counting(rho):
            built.append(None)
            return original(rho)

        monkeypatch.setattr("syncround.cli.VERIFY_SLAB", 4)
        monkeypatch.setattr(syncround.rounding, "corner_decomposition", counting)
        code, report, _ = run_cli(
            capsys, ["verify", "--suite", "rounding", "--n", "10", "--seed", "6"]
        )
        assert code == 0 and len(report["instances"]) == 10
        assert len(built) == 3


class TestOptimize:
    def test_diagonal_game_reaches_value_one(self, capsys, tmp_path):
        gpath = tmp_path / "diag.json"
        gpath.write_text(diagonal_game_doc(["q0", "q1"], ["a", "b"]), encoding="utf-8")
        out = tmp_path / "strategy.json"
        code, report, _ = run_cli(
            capsys,
            [
                "optimize",
                "--game",
                str(gpath),
                "--dims",
                "2",
                "--iters",
                "3",
                "--seed",
                "0",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        assert report["final_value"] >= 1.0 - 1e-9
        load_commuting_strategy(out.read_text())

    def test_k2_coloring_high_value(self, capsys, tmp_path, k2_game_file):
        out = tmp_path / "strategy.json"
        code, report, _ = run_cli(
            capsys,
            [
                "optimize",
                "--game",
                k2_game_file,
                "--dims",
                "3",
                "--iters",
                "30",
                "--seed",
                "1",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        assert report["final_value"] >= 0.99
        traj = report["trajectory"]
        assert all(b >= a - 1e-10 for a, b in zip(traj, traj[1:]))

    def test_seeded_report_and_strategy_byte_identical(
        self, capsys, tmp_path, k2_game_file
    ):
        out = tmp_path / "strategy.json"
        argv = [
            "optimize", "--game", k2_game_file, "--dims", "4",
            "--iters", "6", "--seed", "9", "--out", str(out),
        ]
        runs = []
        for _ in range(2):
            code, report, _ = run_cli(capsys, argv)
            assert code == 0
            report.pop("timings")
            runs.append((json.dumps(report), out.read_bytes()))
        assert runs[0] == runs[1]

    def test_zero_iterations_writes_valid_strategy(self, capsys, tmp_path, k2_game_file):
        out = tmp_path / "strategy.json"
        code, report, _ = run_cli(
            capsys,
            [
                "optimize",
                "--game",
                k2_game_file,
                "--dims",
                "3",
                "--iters",
                "0",
                "--seed",
                "9",
                "--out",
                str(out),
            ],
        )
        assert code == 0
        load_commuting_strategy(out.read_text())
