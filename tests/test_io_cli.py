"""File formats and the command line interface."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maplp import (
    DualTrace,
    FactorGraph,
    InvalidModelError,
    ParseError,
    TraceRecord,
    emit_trace,
    energy,
    load_model,
    load_trace,
    parse_uai,
    random_grid,
    save_model,
)
import maplp
from maplp.cli import cli_main
from maplp.io import model_from_dict, model_to_dict

TINY_UAI = "MARKOV\n1\n2\n1\n1 0\n\n2\n 0.6 0.4\n"


class TestUaiParsing:
    def test_single_binary_factor(self):
        g = parse_uai(TINY_UAI)
        assert g.num_vars == 1
        assert g.cardinalities == (2,)
        assert g.clusters == ((0,),)
        np.testing.assert_allclose(
            g.potentials[0].values, [math.log(0.6), math.log(0.4)]
        )

    def test_bayes_header_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_uai("BAYES\n1\n2\n1\n1 0\n2\n0.5 0.5\n")

    def test_scope_out_of_range_rejected(self):
        text = "MARKOV\n2\n2 2\n1\n1 5\n4\n1 1 1 1\n"
        with pytest.raises(ParseError, match="variable 5"):
            parse_uai(text)

    def test_table_size_mismatch_rejected(self):
        text = "MARKOV\n2\n2 2\n1\n2 0 1\n3\n1 1 1\n"
        with pytest.raises(ParseError, match="3 entries"):
            parse_uai(text)

    def test_non_numeric_entry_reports_line(self):
        text = "MARKOV\n1\n2\n1\n1 0\n2\nsoup 0.4\n"
        with pytest.raises(ParseError, match="line 7"):
            parse_uai(text)

    def test_negative_weight_rejected(self):
        text = "MARKOV\n1\n2\n1\n1 0\n2\n-0.5 0.4\n"
        with pytest.raises(ParseError):
            parse_uai(text)

    def test_zero_weight_floored_not_rejected(self):
        text = "MARKOV\n1\n2\n1\n1 0\n2\n0 1\n"
        g = parse_uai(text)
        assert g.potentials[0].values[0] == pytest.approx(math.log(1e-300))

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_bad_zero_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="zero_floor must be finite and > 0"):
            parse_uai("MARKOV\n1\n2\n1\n1 0\n2 0.0 1.0", zero_floor=floor)

    def test_unsorted_scope_table_layout(self):
        # table listed row-major over scope (1, 0); entry for x1=0,x0=1 is 2.0
        text = "MARKOV\n2\n2 3\n1\n2 1 0\n6\n1 2 3 4 5 6\n"
        g = parse_uai(text)
        assert g.clusters == ((0, 1),)
        assert energy(g, (1, 0)) == math.log(2.0)
        assert energy(g, (0, 2)) == math.log(5.0)

    def test_tables_split_across_lines(self):
        # realistic layout: big factor tables wrapped at a few entries/line
        g = random_grid(3, 3, 3, seed=1)
        lines = ["MARKOV", str(g.num_vars),
                 " ".join(map(str, g.cardinalities)), str(len(g.clusters))]
        for p in g.potentials:
            lines.append(f"{len(p.scope)} " + " ".join(map(str, p.scope)))
        for p in g.potentials:
            w = np.exp(p.values.reshape(-1) - p.values.max())
            lines.append(str(w.size))
            for i in range(0, w.size, 5):
                lines.append(" ".join(repr(float(x)) for x in w[i:i + 5]))
        parsed = parse_uai("\n".join(lines) + "\n")
        assert parsed.clusters == g.clusters
        # per-table shifts cancel in energy differences
        x0, x1 = (0,) * 9, (1,) * 9
        assert energy(g, x1) - energy(g, x0) == pytest.approx(
            energy(parsed, x1) - energy(parsed, x0), abs=1e-9
        )

    def test_duplicate_scopes_merge_multiplicatively(self):
        text = "MARKOV\n1\n2\n2\n1 0\n1 0\n2\n0.5 0.25\n2\n0.5 2.0\n"
        g = parse_uai(text)
        assert len(g.clusters) == 1
        np.testing.assert_allclose(
            g.potentials[0].values,
            [math.log(0.5) + math.log(0.5), math.log(0.25) + math.log(2.0)],
        )


class TestModelRoundTrip:
    def test_json_round_trip_is_identical(self, tmp_path):
        g = random_grid(3, 2, 3, seed=8)
        path = tmp_path / "model.json"
        save_model(g, path)
        g2 = load_model(path)
        assert g2.cardinalities == g.cardinalities
        assert g2.clusters == g.clusters
        for p, q in zip(g.potentials, g2.potentials):
            np.testing.assert_array_equal(p.values, q.values)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["clusters"][1].__setitem__(1, 1.7), r"cluster 1 \(0, 1.7\): variable indices"),
        (lambda d: d["clusters"][1].__setitem__(1, True), r"cluster 1 \(0, True\): variable indices"),
        (lambda d: d["cardinalities"].__setitem__(1, 2.5), "cardinality 2.5 of variable 1"),
        (lambda d: d["log_potentials"][1].__setitem__(2, "x"), r"cluster 1 \(0, 1\): table entries"),
        (lambda d: d["log_potentials"][1].__setitem__(2, [0.0, 1.0]),
         r"cluster 1 \(0, 1\): table entries"),
        (lambda d: d["log_potentials"].pop(), "3 clusters but 2 tables"),
    ], ids=["float-index", "bool-index", "float-cardinality", "string-entry", "ragged-table",
            "missing-table"])
    def test_bad_json_model_raises_invalid_model_error(self, edit, message):
        doc = model_to_dict(FactorGraph(
            [2, 2], [(0,), (0, 1), (1,)], [np.zeros(2), np.arange(4.0), np.ones(2)]))
        doc = json.loads(json.dumps(doc))
        model_from_dict(doc)
        edit(doc)
        with pytest.raises(InvalidModelError, match=message):
            model_from_dict(doc)

    def test_uai_extension_dispatch(self, tmp_path):
        path = tmp_path / "tiny.uai"
        path.write_text(TINY_UAI)
        g = load_model(path)
        assert g.num_vars == 1


def sample_trace():
    t = DualTrace()
    t.append(TraceRecord(1, 0.25, 10.0, 8.0, 0, "dd"))
    t.append(TraceRecord(2, 0.50, 9.5, 8.5, 1, "dd"))
    return t


class TestTraces:
    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace(DualTrace(), path, "csv")
        assert path.read_text() == "sweep,seconds,dual,primal,pursuit_round,algorithm\n"

    def test_single_record_two_lines(self, tmp_path):
        t = DualTrace()
        t.append(TraceRecord(1, 0.0, 1.0, 0.5, 0, "mi"))
        path = tmp_path / "trace.csv"
        emit_trace(t, path, "csv")
        assert len(path.read_text().splitlines()) == 2

    def test_json_round_trip_preserves_fields(self, tmp_path):
        path = tmp_path / "trace.json"
        emit_trace(sample_trace(), path, "json")
        back = load_trace(path)
        assert back.records == sample_trace().records

    def test_csv_round_trip_preserves_fields(self, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace(sample_trace(), path, "csv")
        back = load_trace(path)
        assert back.records == sample_trace().records


class TestCli:
    def test_generate_then_solve(self, tmp_path):
        model = tmp_path / "grid.json"
        assert cli_main([
            "generate", "--grid", "4x4", "--states", "2", "--seed", "3",
            "--out", str(model),
        ]) == 0
        trace = tmp_path / "trace.csv"
        out = tmp_path / "result.json"
        code = cli_main([
            "solve", "--model", str(model), "--alg", "mi",
            "--trace", str(trace), "--out", str(out),
        ])
        assert code == 0
        result = json.loads(out.read_text())
        assert len(result["assignment"]) == 16
        loaded = load_trace(trace)
        duals = loaded.duals
        assert all(b <= a + 1e-9 for a, b in zip(duals, duals[1:]))
        assert all(rec.algorithm == "mi" for rec in loaded.records)

    def test_solve_defaults_reproducible(self, tmp_path):
        model = tmp_path / "grid.json"
        cli_main(["generate", "--grid", "3x3", "--states", "3", "--seed", "0",
                  "--out", str(model)])
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli_main([
                "solve", "--model", str(model), "--alg", "dd",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_message_mode_solve_matches_belief_mode(self, tmp_path):
        model = tmp_path / "grid.json"
        cli_main(["generate", "--grid", "3x3", "--states", "2", "--seed", "2",
                  "--out", str(model)])
        results = []
        for mode in ("beliefs", "messages"):
            out = tmp_path / f"{mode}.json"
            assert cli_main([
                "solve", "--model", str(model), "--alg", "gmplp",
                "--mode", mode, "--k1", "60", "--out", str(out),
            ]) == 0
            results.append(json.loads(out.read_text()))
        assert results[0]["dual"] == pytest.approx(results[1]["dual"], abs=1e-9)
        assert results[0]["assignment"] == results[1]["assignment"]

    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["solve", "--model", "x.json", "--alg", "bogus"])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_unreadable_model_nonzero_exit(self, tmp_path, capsys):
        code = cli_main([
            "solve", "--model", str(tmp_path / "missing.json"), "--alg", "dd",
        ])
        assert code == 2

    @pytest.mark.parametrize("table", [[0.0, float("nan"), 1.0, 0.0], [0.0, 1.0, 2.0]])
    def test_invalid_model_is_exit_2(self, tmp_path, capsys, table):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({
            "format": "maplp-model", "version": 1, "cardinalities": [2, 2],
            "clusters": [[0, 1]], "log_potentials": [table],
        }))
        code = cli_main(["solve", "--model", str(model), "--alg", "dd"])
        assert code == 2
        assert "cluster 0 (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_duplicate_scope_with_mis_sized_table_is_exit_2(self, tmp_path, capsys, command):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({
            "format": "maplp-model", "version": 1, "cardinalities": [2, 2],
            "clusters": [[0, 1], [0, 1]],
            "log_potentials": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]],
        }))
        args = ["--alg", "dd"] if command == "solve" else []
        code = cli_main([command, "--model", str(model), *args])
        assert code == 2
        assert "duplicate cluster set (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tg", "--ta", "--time-limit"])
    def test_nan_solver_setting_is_exit_2(self, tmp_path, capsys, flag):
        model = tmp_path / "grid.json"
        cli_main(["generate", "--grid", "3x3", "--states", "2", "--seed", "0",
                  "--out", str(model)])
        code = cli_main(["solve", "--model", str(model), "--alg", "dd",
                         flag, "nan", "--k1", "300"])
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_compare_merges_algorithm_labels(self, tmp_path):
        model = tmp_path / "grid.json"
        cli_main(["generate", "--grid", "3x3", "--states", "2", "--seed", "1",
                  "--out", str(model)])
        trace = tmp_path / "compare.csv"
        code = cli_main([
            "compare", "--model", str(model), "--alg", "ps,pi-s,mi",
            "--k1", "40", "--trace", str(trace),
        ])
        assert code == 0
        labels = {rec.algorithm for rec in load_trace(trace).records}
        assert labels == {"ps", "pi-s", "mi"}

    def test_verify_passes_on_small_grid(self, tmp_path, capsys):
        model = tmp_path / "grid.json"
        cli_main(["generate", "--grid", "3x2", "--states", "2", "--seed", "5",
                  "--out", str(model)])
        code = cli_main(["verify", "--model", str(model)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "weak duality" in out

    @pytest.mark.parametrize("cards, clusters, cap", [
        # 70 four-variable clusters of 4 states: 21,984 oracle variables
        ([4] * 8, list(itertools.combinations(range(8), 4)), "oracle cap of 20000"),
        # one 7-variable cluster: above all_subsets_spec's order cap
        ([2] * 7, [tuple(range(7))], "order 7 > cap 6"),
    ])
    def test_verify_beyond_oracle_caps_is_exit_1(self, tmp_path, capsys,
                                                 cards, clusters, cap):
        rng = np.random.default_rng(0)
        tables = [rng.normal(size=[cards[v] for v in c]) for c in clusters]
        model = tmp_path / "big.json"
        save_model(FactorGraph(cards, clusters, tables), model)
        code = cli_main(["verify", "--model", str(model), "--k1", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "PASS: dd weak duality" in captured.out
        assert "diagram equivalent" not in captured.out
        assert "cannot certify diagrams" in captured.err and cap in captured.err

    def test_verify_invalid_model_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({
            "format": "maplp-model", "version": 1, "cardinalities": [2, 2],
            "clusters": [[0, 1]], "log_potentials": [[0.0, float("nan"), 1.0, 0.0]],
        }))
        code = cli_main(["verify", "--model", str(model)])
        assert code == 2
        assert "cluster 0 (0, 1)" in capsys.readouterr().err

    def test_solve_pursuit_on_uai_model(self, tmp_path):
        # UAI weights are exp(potential); a perturbed frustrated cycle in
        # weight space (exact ties would leave the optimum non-unique and
        # per-node decoding undefined)
        from maplp import brute_force_map

        from maplp import XorShift64Star

        rng = XorShift64Star(2)
        lines = ["MARKOV", "4", "2 2 2 2", "4"]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        for e in edges:
            lines.append(f"2 {e[0]} {e[1]}")
        for i in range(4):
            base = [1.0, 0.0, 0.0, 1.0] if i == 3 else [0.0, 1.0, 1.0, 0.0]
            weights = [math.exp(b + 0.02 * rng.normal()) for b in base]
            lines.append("4")
            lines.append(" ".join(repr(w) for w in weights))
        model = tmp_path / "cycle.uai"
        model.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        code = cli_main([
            "solve", "--model", str(model), "--alg", "dd",
            "--pursuit", "stealth", "--out", str(out),
        ])
        assert code == 0
        result = json.loads(out.read_text())
        exact = brute_force_map(load_model(model))
        assert result["gap"] <= 1e-6
        assert result["energy"] == pytest.approx(exact.value, abs=1e-9)


class TestModuleEntryPoints:
    """``python -m maplp`` and ``python -m maplp.cli`` run the CLI."""

    @staticmethod
    def run_module(cwd, *args):
        src = str(Path(maplp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", *args], cwd=cwd, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )

    @pytest.mark.parametrize("module", ["maplp", "maplp.cli"])
    def test_missing_model_exits_2(self, tmp_path, module):
        proc = self.run_module(tmp_path, module, "solve", "--model", "missing.json", "--alg", "mi")
        assert proc.returncode == 2, proc.stderr
        assert "missing.json" in proc.stderr

    @pytest.mark.parametrize("module", ["maplp", "maplp.cli"])
    def test_generate_then_solve_exits_0(self, tmp_path, module):
        proc = self.run_module(tmp_path, module, "generate", "--grid", "3x3", "--states", "2",
                               "--seed", "1", "--out", "grid.json")
        assert proc.returncode == 0, proc.stderr
        proc = self.run_module(tmp_path, module, "solve", "--model", "grid.json", "--alg", "mi",
                               "--out", "result.json")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads((tmp_path / "result.json").read_text())["assignment"]) == 9
