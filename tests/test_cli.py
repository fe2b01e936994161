import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastjl import cli, linalg, privacy, transforms
from fastjl.linalg import load_matrix_csv, save_matrix_csv
from fastjl.randomness import BitSource
from fastjl.reports import load_report


def run_cli(args):
    return cli.main(list(args))


class TestExitCodes:
    def test_selftest_ok(self, capsys):
        assert run_cli(["selftest", "--seed", "7"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_selftest_failure_is_two(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "circular_convolve", lambda g, x: np.zeros_like(x))
        assert run_cli(["selftest", "--seed", "7"]) == 2
        assert "convolution with a delta" in capsys.readouterr().err

    def test_selftest_catches_a_broken_column_block(self, capsys, monkeypatch):
        real = linalg.fwht_normalized

        def last_block_broken(v):
            out = real(v)
            if out.ndim == 2 and out.shape[1] > 32:
                out[:, 32:] = 0.0
            return out

        monkeypatch.setattr(linalg, "fwht_normalized", last_block_broken)
        assert run_cli(["selftest", "--seed", "7"]) == 2
        assert "fwht involution over column blocks" in capsys.readouterr().err

    def test_selftest_catches_a_broken_stream_path(self, capsys, monkeypatch):
        real = privacy._sketch_stream_column

        def one_ulp_off(*args):
            return np.nextafter(real(*args), np.inf)

        monkeypatch.setattr(privacy, "_sketch_stream_column", one_ulp_off)
        assert run_cli(["selftest", "--seed", "7"]) == 2
        assert "stream sketch equals batch publication" in capsys.readouterr().err

    def test_usage_error_is_one(self, capsys):
        assert run_cli(["gen", "--bogus"]) == 1

    def test_privacy_precondition_is_two(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        save_matrix_csv(path, np.eye(4) * 0.01)
        code = run_cli([
            "dp", "publish", "--matrix", str(path), "--alpha", "1.0",
            "--beta", "0.1", "--r", "4", "--out", str(tmp_path / "y.csv"),
        ])
        assert code == 2

    def test_second_moment_publish(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        save_matrix_csv(path, BitSource(4).draw_gaussian(12).reshape(3, 4))
        out = tmp_path / "y.csv"
        code = run_cli([
            "dp", "publish", "--matrix", str(path), "--alpha", "inf",
            "--beta", "0.1", "--r", "4", "--mode", "second",
            "--kind", "dense-gaussian", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert load_matrix_csv(out).shape == (4, 3)

    def test_empty_matrix_publish_is_two(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("0,3\n")
        code = run_cli([
            "dp", "publish", "--matrix", str(path), "--alpha", "1",
            "--beta", "0.1", "--r", "4", "--out", str(tmp_path / "y.csv"),
        ])
        assert code == 2

    def test_unattacked_target_is_usage_error(self, capsys):
        code = run_cli(["attack", "--target", "dense-gaussian", "--trials", "1000"])
        assert code == 1
        assert "no attack defined" in capsys.readouterr().err

    def test_unsupported_bucket_attack_is_two(self, capsys):
        code = run_cli([
            "attack", "--target", "subsampled-hadamard:4", "--n", "64",
            "--trials", "1000",
        ])
        assert code == 2
        assert "B=2" in capsys.readouterr().err

    def test_resource_error_is_three(self, tmp_path, capsys):
        code = run_cli([
            "gen", "--kind", "new-rademacher", "--n", str(2**15), "--r", "64",
            "--allow-large-r", "--seed", "1",
            "--realize", str(tmp_path / "big.csv"),
        ])
        assert code == 3

    def test_io_error_is_three(self, capsys):
        code = run_cli([
            "jlp", "--kind", "new-rademacher", "--n", "64", "--r", "4",
            "--eps", "0.5", "--trials", "1000", "--seed", "1",
            "--out", "/nonexistent-dir/report.json",
        ])
        assert code == 3


class TestGen:
    def test_realize_shape(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = run_cli([
            "gen", "--kind", "new-rademacher", "--n", "16", "--r", "4",
            "--seed", "1", "--allow-large-r", "--realize", str(out),
        ])
        assert code == 0
        m = load_matrix_csv(out)
        assert m.shape == (4, 16)

    def test_fjlt_density_one_keeps_every_entry(self, capsys):
        assert run_cli(["gen", "--kind", "fjlt:1.0", "--n", "64", "--r", "4"]) == 0
        assert "gaussians=256" in capsys.readouterr().out
        t = transforms.build(transforms.parse_kind("fjlt:1.0"), 64, 4, BitSource(0))
        assert np.count_nonzero(t.factors["dense"]) == 4 * 64
        assert t.draw_counts["density_mask"] == 64 * 4 * 64


class TestReports:
    def test_jlp_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run_cli([
            "jlp", "--kind", "dense-gaussian", "--n", "64", "--r", "8",
            "--eps", "0.5", "--trials", "1000", "--seed", "3",
            "--out", str(out), "--deterministic",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        rep = payload["report"]
        assert payload["version"] and payload["argv"]
        assert rep["failure_rate"] == rep["failure_count"] / rep["trials"]
        assert "timestamp" not in payload
        for key in ("kind", "n", "r", "epsilon", "trials", "family",
                    "wilson_ci_95", "distortion_quantiles", "seed"):
            assert key in rep

    def test_deterministic_flag_byte_identical(self, tmp_path, capsys):
        args = [
            "jlp", "--kind", "new-rademacher", "--n", "64", "--r", "4",
            "--eps", "0.5", "--trials", "1000", "--seed", "5", "--deterministic",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_attack_report(self, tmp_path, capsys):
        out = tmp_path / "atk.json"
        code = run_cli([
            "attack", "--target", "hash-sparse", "--n", "64", "--w", "10",
            "--trials", "1000", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["advantage"] >= 0.2

    def test_bucket_two_attack_report(self, tmp_path, capsys):
        out = tmp_path / "atk.json"
        code = run_cli([
            "attack", "--target", "subsampled-hadamard:2", "--n", "64", "--w", "10",
            "--trials", "1000", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["target_kind"] == "subsampled-hadamard(B=2)"

    def test_bench_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = run_cli([
            "bench", "--kind", "new-rademacher", "--n-range", "1024:2048",
            "--r", "16", "--reps", "5", "--warmups", "1", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        rep = json.loads(out.read_text())["report"]
        assert len(rep["sizes"]) == 2
        assert len(rep["doubling_ratios"]) == 1


class TestDpStream:
    def test_mm_script(self, tmp_path, capsys):
        script = tmp_path / "updates.csv"
        lines = []
        for c in range(4):
            e = ["0.0"] * 4
            e[c] = "1.0"
            lines.append(",".join(["A", str(c)] + e))
            lines.append(",".join(["B", str(c)] + e))
        script.write_text("\n".join(lines) + "\n")
        out = tmp_path / "prod.csv"
        code = run_cli([
            "dp", "stream", "--script", str(script), "--mode", "mm",
            "--alpha", "inf", "--beta", "0.1", "--r", "128",
            "--kind", "dense-gaussian", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        prod = load_matrix_csv(out)
        assert np.abs(prod - np.eye(4)).max() < 0.4

    def test_lr_script(self, tmp_path, capsys):
        script = tmp_path / "updates.csv"
        lines = []
        for c in range(4):
            e = ["0.0"] * 4
            e[c] = "1.0"
            lines.append(",".join([str(c)] + e))
        script.write_text("\n".join(lines) + "\n")
        bvec = tmp_path / "b.csv"
        save_matrix_csv(bvec, np.array([[1.0, 2.0, 3.0, 4.0]]))
        out = tmp_path / "x.csv"
        code = run_cli([
            "dp", "stream", "--script", str(script), "--mode", "lr",
            "--alpha", "inf", "--beta", "0.1", "--r", "64",
            "--kind", "dense-gaussian", "--seed", "4",
            "--query", str(bvec), "--out", str(out),
        ])
        assert code == 0
        x = load_matrix_csv(out).ravel()
        assert np.abs(x - [1, 2, 3, 4]).max() < 1e-6


    @pytest.mark.parametrize(
        "mode, bad",
        [("mm", "A,x,1.0,2.0"), ("mm", "A"), ("lr", ",1.0,2.0")],
    )
    def test_malformed_script_line_is_two(self, tmp_path, capsys, mode, bad):
        good = "A,0,1.0,2.0" if mode == "mm" else "0,1.0,2.0"
        script = tmp_path / "updates.csv"
        script.write_text(f"# header\n{good}\n{bad}\n")
        code = run_cli([
            "dp", "stream", "--script", str(script), "--mode", mode,
            "--alpha", "inf", "--beta", "0.1", "--r", "4",
            "--query", str(tmp_path / "b.csv"), "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_lr_checks_query_before_reading_the_script(self, tmp_path, capsys):
        code = run_cli([
            "dp", "stream", "--script", str(tmp_path / "missing.csv"),
            "--mode", "lr", "--alpha", "inf", "--beta", "0.1", "--r", "4",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "--query" in capsys.readouterr().err

    def test_stream_takes_no_lift(self, tmp_path, capsys):
        script = tmp_path / "updates.csv"
        script.write_text("A,0,1.0,2.0\n")
        code = run_cli([
            "dp", "stream", "--script", str(script), "--alpha", "inf",
            "--beta", "0.1", "--r", "4", "--lift", "--out", str(tmp_path / "y.csv"),
        ])
        assert code == 1


class TestDpCut:
    def test_cut_command(self, tmp_path, capsys):
        graph = tmp_path / "edges.csv"
        graph.write_text("0,1,1.0\n1,2,1.0\n0,2,1.0\n")
        code = run_cli([
            "dp", "cut", "--graph", str(graph), "--set", "0",
            "--vertices", "4", "--alpha", "1.0", "--beta", "0.1",
            "--r", "256", "--seed", "5",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 5 and payload["argv"] is not None
        assert payload["report"]["exact"] == 2.0
        assert payload["report"]["vertex_set"] == [0]

    def test_cut_out_file(self, tmp_path, capsys):
        graph = tmp_path / "edges.csv"
        graph.write_text("0,1,1.0\n1,2,1.0\n0,2,1.0\n")
        out = tmp_path / "cut.json"
        code = run_cli([
            "dp", "cut", "--graph", str(graph), "--set", "0,1",
            "--vertices", "4", "--alpha", "1.0", "--beta", "0.1",
            "--r", "256", "--seed", "5", "--out", str(out), "--deterministic",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = load_report(out)
        assert set(payload) == {"version", "seed", "argv", "report_type", "report"}
        assert payload["report_type"] == "CutReport"
        assert payload["report"]["exact"] == 2.0
        assert payload["report"]["w"] > 0


class TestEnvSeed:
    def test_fastjl_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FASTJL_SEED", "99")
        parser = cli.build_parser()
        args = parser.parse_args(["selftest"])
        assert args.seed == 99

    def test_bad_fastjl_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FASTJL_SEED", "abc")
        gen = ["gen", "--kind", "new-rademacher", "--n", "64", "--r", "4"]
        assert run_cli(gen) == 1
        assert "'abc'" in capsys.readouterr().err
        assert run_cli(gen + ["--seed", "3"]) == 0


class TestOutsideText:
    """Malformed text from argv, the environment or an input file maps to
    its exit code instead of a traceback."""

    @pytest.mark.parametrize(
        "kind", ["fjlt:abc", "new-sparse-g:0.5,x", "subsampled-hadamard:2.5"]
    )
    def test_non_numeric_kind_parameter_is_two(self, capsys, kind):
        assert run_cli(["gen", "--kind", kind, "--n", "64", "--r", "4"]) == 2
        assert repr(kind) in capsys.readouterr().err

    def test_overflowing_sparse_g_parameter_is_two(self, capsys):
        code = run_cli(["gen", "--kind", "new-sparse-g:0.5,1e-300", "--n", "64", "--r", "4"])
        assert code == 2

    def test_huge_ailon_liberty_depth_is_three(self, capsys):
        code = run_cli(["gen", "--kind", "ailon-liberty:99999999", "--n", "64", "--r", "4"])
        assert code == 3
        assert "memory guard" in capsys.readouterr().err

    @pytest.mark.parametrize("n_range", ["x:y", "64:32", "0:4", "-4:4"])
    def test_bad_n_range_is_usage_error(self, capsys, n_range):
        code = run_cli([
            "bench", "--kind", "new-rademacher", "--n-range", n_range,
            "--r", "4", "--reps", "1", "--warmups", "0",
        ])
        assert code == 1
        assert "--n-range" in capsys.readouterr().err

    def test_bad_vertex_set_is_usage_error(self, tmp_path, capsys):
        graph = tmp_path / "edges.csv"
        graph.write_text("0,1,1.0\n")
        code = run_cli([
            "dp", "cut", "--graph", str(graph), "--set", "a", "--vertices", "2",
            "--alpha", "1.0", "--beta", "0.1", "--r", "16",
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "body, where", [("2,2\n1.0,2.0\n3.0,x\n", "line 3"), ("-1,-1\n5.0\n", "header")]
    )
    def test_malformed_matrix_file_is_two(self, tmp_path, capsys, body, where):
        path = tmp_path / "a.csv"
        path.write_text(body)
        code = run_cli([
            "dp", "publish", "--matrix", str(path), "--alpha", "inf",
            "--beta", "0.1", "--r", "4", "--out", str(tmp_path / "y.csv"),
        ])
        assert code == 2
        assert where in capsys.readouterr().err

    def test_short_graph_line_is_two(self, tmp_path, capsys):
        graph = tmp_path / "edges.csv"
        graph.write_text("0,1,1.0\n1,2\n")
        code = run_cli([
            "dp", "cut", "--graph", str(graph), "--set", "0", "--vertices", "3",
            "--alpha", "1.0", "--beta", "0.1", "--r", "16",
        ])
        assert code == 2
        assert "graph line 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def triangle_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "edges.csv"
    path.write_text("0,1,1.0\n1,2,1.0\n0,2,1.0\n")
    return path


_KIND_TEXT = st.builds(
    "{}{}{}".format,
    st.sampled_from(transforms.ALL_TAGS + ("gaussian",)),
    st.sampled_from(("", ":")),
    st.text(alphabet="0123456789.,-:eaxn", max_size=8),
)
_SIZE_TEXT = st.one_of(
    st.integers(-3, 64).map(str), st.text(alphabet="0123456-x. ", max_size=2)
)
_N_RANGE_TEXT = st.builds(
    "{}{}{}".format, _SIZE_TEXT, st.sampled_from(("", ":", "::")), _SIZE_TEXT
)


class TestTextSurface:
    """Any short text in a kind string, --n-range, --set or FASTJL_SEED
    yields an exit code from the contract and raises nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(kind=_KIND_TEXT)
    def test_kind_strings(self, kind):
        assert run_cli(["gen", "--kind", kind, "--n", "64", "--r", "4"]) in (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(n_range=_N_RANGE_TEXT)
    def test_n_ranges(self, n_range):
        code = run_cli([
            "bench", "--kind", "new-rademacher", "--n-range", n_range,
            "--r", "4", "--reps", "1", "--warmups", "0",
        ])
        assert code in (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(vertex_set=st.text(alphabet="0123-, a", max_size=6))
    def test_vertex_sets(self, triangle_graph, vertex_set):
        code = run_cli([
            "dp", "cut", "--graph", str(triangle_graph), "--set", vertex_set,
            "--vertices", "4", "--alpha", "1.0", "--beta", "0.1", "--r", "16",
        ])
        assert code in (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.text(alphabet="0123456789-x ", max_size=24))
    def test_seeds(self, seed):
        with mock.patch.dict(os.environ, {"FASTJL_SEED": seed}):
            code = run_cli(["gen", "--kind", "new-rademacher", "--n", "64", "--r", "4"])
        assert code in (0, 1, 2, 3)


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fastjl.cli", "selftest", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "selftest passed" in proc.stdout
