import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _module(ROOT / "benchmarks" / "pairs.py", "benchmarks_pairs")
needs_git = pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")


class TestStatistics:
    def test_quartiles(self):
        verdict = pairs.compare([5, 1, 4, 2, 3], [2, 2, 6, 6], "higher")
        assert [verdict["parent"][q] for q in ("q1", "median", "q3")] == [1.5, 3, 4.5]
        assert [verdict["change"][q] for q in ("q1", "median", "q3")] == [2, 4, 6]

    def test_a_tie_counts_for_neither_side(self):
        verdict = pairs.compare([1, 2, 3], [1, 3, 2], "higher")
        assert verdict["change_wins"] == 1
        assert pairs.compare([1, 2, 3], [1, 2, 3], "lower")["change_wins"] == 0

    def test_nine_wins_in_ten_is_a_gain_and_eight_is_not(self):
        parent = [10.0] * 10
        assert pairs.compare(parent, [12.0] * 9 + [9.0], "higher")["gain"]
        verdict = pairs.compare(parent, [12.0] * 8 + [9.0] * 2, "higher")
        assert verdict["change_wins"] == 8 and verdict["change"]["median"] == 12.0
        assert not verdict["gain"]

    def test_fewer_than_ten_pairs_are_never_a_gain(self):
        assert not pairs.compare([10.0] * 9, [12.0] * 9, "higher")["gain"]

    def test_a_gap_equal_to_the_parent_quartile_distance_is_not_a_gain(self):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0] * 2  # quartiles 8.75 and 11.25
        same_gap = pairs.compare(parent, [x + 2.5 for x in parent], "higher")
        assert same_gap["change_wins"] == 10 and not same_gap["gain"]
        assert pairs.compare(parent, [x + 3.0 for x in parent], "higher")["gain"]

    def test_lower_is_better(self):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0] * 2
        faster = pairs.compare(parent, [x - 4.0 for x in parent], "lower")
        assert faster["change_wins"] == 10 and faster["gain"]
        slower = pairs.compare(parent, [x + 4.0 for x in parent], "lower")
        assert slower["change_wins"] == 0 and not slower["gain"]

    def test_bound(self):
        parent = [100.0] * 10
        assert pairs.compare(parent, [70.0] * 10, "higher", 0.24)["regression"]
        within = pairs.compare(parent, [80.0] * 10, "higher", 0.24)
        assert not within["regression"] and not within["unresolved"]
        assert pairs.compare(parent, [130.0] * 10, "lower", 0.25)["regression"]
        assert "regression" not in pairs.compare(parent, [70.0] * 10, "higher")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60.0, 80.0, 100.0, 120.0, 140.0] * 2  # quartile distance 0.5 of the median
        assert pairs.compare(parent, list(parent), "higher", 0.24)["unresolved"]
        clear = pairs.compare(parent, [200.0] * 10, "higher", 0.24)
        assert not clear["unresolved"] and clear["gain"]


class TestProbes:
    def test_every_probe_name_resolves(self):
        workloads = _module(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
        names = pairs.probe_names()
        assert {"mnist-round", "linear-round", "dataset-memory"} <= set(names)
        for name in names:
            if name.startswith("perfbench:"):
                assert name.partition(":")[2] in workloads.WORKLOADS
            else:
                assert (ROOT / "benchmarks" / f"probe_{name.replace('-', '_')}.py").is_file()

    def test_perfbench_bounds_come_from_the_benchmark(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for metric in spec["end_to_end"]:
            for workload in spec["workloads"]:
                assert pairs.rule(f"perfbench:{workload['name']}", metric["name"]) == (
                    metric["better"], metric["bound"])
        assert pairs.rule("mnist-round", "rounds_per_s") == ("higher", None)
        assert pairs.rule("mnist-round", "peak_rss_mib") == ("lower", None)


@needs_git
class TestDriver:
    def test_the_export_holds_the_package_and_no_bytecode_cache(self, tmp_path, monkeypatch):
        tree = pairs.export("HEAD", tmp_path / "parent", perfbench=True)
        assert (tree / "src" / "delaybandit" / "__init__.py").is_file()
        assert (tree / "perfbench" / "run.py").is_file()
        assert not list(tree.rglob("__pycache__"))
        # a working tree with bytecode caches and perfbench output: the copy leaves them out
        work = tmp_path / "work"
        for name in ("src/delaybandit/__init__.py", "src/delaybandit/__pycache__/x.pyc",
                     "perfbench/run.py", "perfbench/__pycache__/run.pyc", "perfbench/out/s.csv"):
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).touch()
        monkeypatch.setattr(pairs, "ROOT", work)
        tree = pairs.export(None, tmp_path / "change", perfbench=True)
        assert sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()) \
            == ["perfbench/run.py", "src/delaybandit/__init__.py"]
        assert not (pairs.export(None, tmp_path / "bare", perfbench=False) / "perfbench").exists()

    def _probe(self, monkeypatch, tmp_path, body):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "probe_fake.py").write_text(
            "import json, os, sys\nfrom pathlib import Path\n" + body)
        monkeypatch.setattr(pairs, "HERE", scripts)

    def test_pairs_alternate_and_the_result_has_every_metric(self, monkeypatch, tmp_path,
                                                             capsys):
        # each run logs its side, its bytecode setting and its work directory
        self._probe(monkeypatch, tmp_path, (
            "side = Path(os.environ['PYTHONPATH']).parent.name\n"
            "with open(Path(__file__).with_name('log'), 'a') as fh:\n"
            "    print(side, sys.dont_write_bytecode, Path(sys.argv[1]).is_dir(), sys.argv[1],\n"
            "          file=fh)\n"
            "print(json.dumps({'x_per_s': float(side == 'change'), 'n': {'b': 2}}))\n"))
        out = tmp_path / "result.json"
        assert pairs.main(["fake", "--parent", "HEAD", "--pairs", "2", "--out", str(out)]) == 0
        log = [line.split() for line in (tmp_path / "scripts" / "log").read_text().splitlines()]
        assert [side for side, *_ in log] == ["parent", "change", "change", "parent"]
        assert {(cache, shared) for _, cache, shared, _ in log} == {("True", "True")}
        assert len({work for *_, work in log}) == 1  # one work directory for both sides
        report = json.loads(out.read_text())
        rate, b = report["metrics"]["x_per_s"], report["metrics"]["n.b"]
        assert rate["better"] == "higher" and rate["parent"]["values"] == [0.0, 0.0]
        assert rate["change_wins"] == 2 and not rate["gain"]  # two pairs are too few
        assert b["better"] == "lower" and b["change_wins"] == 0
        assert report["gains"] == report["regressions"] == report["unresolved"] == []
        assert report["environment"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert {"blas", "blas_threads", "nproc"} <= set(report["environment"])
        assert report["parent"]["rev"] == pairs.git("rev-parse", "HEAD")
        assert isinstance(report["change"]["uncommitted_changes"], bool)
        assert "x_per_s: 0 [0, 0] -> 1 [1, 1], change wins 2/2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("body, why", [
        ("sys.exit(3)\n", "exited with code 3"),
        ("print('done')\n", "printed no JSON object as its last line"),
    ], ids=["exit-code", "no-json"])
    def test_a_failing_probe_stops_the_driver_with_exit_2(self, monkeypatch, tmp_path,
                                                          capsys, body, why):
        self._probe(monkeypatch, tmp_path, body)
        out = tmp_path / "result.json"
        assert pairs.main(["fake", "--parent", "HEAD", "--pairs", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"pairs: fake on the parent side, pair 1: {why}")
        assert not out.exists()
