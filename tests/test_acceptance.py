"""End-to-end acceptance suite.

Each test covers one numbered criterion; a terminal-summary hook in conftest
prints a PASS/FAIL line per criterion after the run. The experiment-scale
criteria (8-10) share module-scoped fixtures so the expensive runs happen
once.
"""

import hashlib
import importlib.util
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from delaybandit.config import config_from_dict, resolved_summary
from delaybandit.delay import DelayDistribution, RevealQueue, reveal_round
from delaybandit.design import DesignMatrix
from delaybandit.harness import emit, run_experiment, run_single
from delaybandit.network import (NetworkShape, forward, gradient,
                                 init_symmetric, unflatten)
from delaybandit.ntk import DelayBoundParams, d_plus, ntk_gram
from test_data import write_idx_images, write_idx_labels

SEEDS = [1, 2, 3, 4, 5]
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# shared experiment configurations (criteria 8-10)
# ---------------------------------------------------------------------------

def _mushroom_config(csv_path, algorithm, delay="none", expected_delay=0):
    return config_from_dict({
        "experiment": {"horizon": 2000, "arms": 2, "seeds": SEEDS},
        "policy": {"algorithm": algorithm, "gamma_mode": "constant",
                   "gamma_const": 0.1, "nu": 0.1, "lambda": 0.1,
                   "design_mode": "diag", "warm_start": True},
        "network": {"width": 64},
        "train": {"steps": 10, "steps_schedule": "fixed",
                  "batch_size": 64, "eta": 1e-4},
        "environment": {"source": "mushroom", "dataset_path": str(csv_path),
                        "embed_assumption3": True,
                        "delay": delay, "expected_delay": expected_delay},
    })


def _synthetic_config(algorithm):
    return config_from_dict({
        "experiment": {"horizon": 2000, "arms": 4, "seeds": SEEDS},
        "policy": {"algorithm": algorithm, "gamma_mode": "constant",
                   "gamma_const": 0.1, "nu": 0.1, "lambda": 0.1,
                   "design_mode": "diag", "warm_start": True},
        "network": {"width": 64},
        "train": {"steps": 10, "steps_schedule": "fixed",
                  "batch_size": 64, "eta": 1e-4},
        "environment": {"source": "synthetic",
                        "synthetic_h": "quadratic-clipped",
                        "synthetic_dim": 20, "embed_assumption3": True,
                        "delay": "none", "expected_delay": 0},
    })


def _mean_curve(results):
    return np.stack([r.cum_regret for r in results]).mean(axis=0)


def desk_scale_configs(csv_path) -> dict:
    """Criterion-8 experiments: four mushroom policies plus two synthetic."""
    return {
        "neural-ucb": _mushroom_config(csv_path, "neural-ucb"),
        "delayed-neural-ucb": _mushroom_config(
            csv_path, "delayed-neural-ucb", "uniform", 30),
        "delayed-neural-ts": _mushroom_config(
            csv_path, "delayed-neural-ts", "uniform", 30),
        "lin-ucb": _mushroom_config(csv_path, "lin-ucb"),
        "synth-neural-ucb": _synthetic_config("neural-ucb"),
        "synth-lin-ucb": _synthetic_config("lin-ucb"),
    }


@pytest.fixture(scope="module")
def desk_scale_runs(mushroom_csv):
    started = time.perf_counter()
    configs = desk_scale_configs(mushroom_csv)
    results = {name: run_experiment(cfg) for name, cfg in configs.items()}
    elapsed = time.perf_counter() - started
    return configs, results, elapsed


class TestCriterion1ZeroDelayEquivalence:
    def test_criterion_1_zero_delay_equivalence(self):
        started = time.perf_counter()
        base = {
            "experiment": {"horizon": 200, "arms": 4, "seeds": [7]},
            "policy": {"gamma_mode": "simple", "nu": 0.1, "lambda": 1.0,
                       "design_mode": "full"},
            "network": {"width": 8, "depth": 2},
            "train": {"steps": 5, "steps_schedule": "fixed",
                      "batch_size": 32, "eta": 1e-4},
            "environment": {"source": "synthetic", "synthetic_h": "linear",
                            "synthetic_dim": 8, "embed_assumption3": True,
                            "delay": "none", "expected_delay": 0},
        }
        runs = {}
        for algorithm in ("delayed-neural-ucb", "neural-ucb"):
            cfg = dict(base)
            cfg["policy"] = dict(base["policy"], algorithm=algorithm)
            runs[algorithm] = run_single(config_from_dict(cfg), 7)
        delayed, plain = runs["delayed-neural-ucb"], runs["neural-ucb"]
        actions_d = [row[1] for row in delayed.rows]
        actions_p = [row[1] for row in plain.rows]
        assert actions_d == actions_p
        assert delayed.cum_regret.tolist() == plain.cum_regret.tolist()
        assert time.perf_counter() - started < 30.0


class TestCriterion2GradientOracle:
    @staticmethod
    def _preactivations(theta, shape, x):
        w1, wh, _ = unflatten(theta, shape)
        pres = [w1 @ x]
        h = np.maximum(pres[-1], 0.0)
        for layer in wh:
            pres.append(layer @ h)
            h = np.maximum(pres[-1], 0.0)
        return np.concatenate(pres)

    def test_criterion_2_gradient_matches_finite_differences(self):
        started = time.perf_counter()
        rng = np.random.default_rng(20240202)
        worst = 0.0
        checked = 0
        while checked < 50:
            depth = int(rng.integers(2, 4))
            width = int(rng.integers(1, 4)) * 2
            dim = int(rng.integers(1, 4)) * 2
            shape = NetworkShape(depth, width, dim)
            theta = rng.standard_normal(shape.param_count)
            x = rng.standard_normal(dim)
            if np.min(np.abs(self._preactivations(theta, shape, x))) <= 1e-3:
                continue
            checked += 1
            g = gradient(theta, shape, x)
            h = 1e-6
            fd = np.empty_like(g)
            for i in range(shape.param_count):
                bump = np.zeros_like(theta)
                bump[i] = h
                fd[i] = (forward(theta + bump, shape, x)
                         - forward(theta - bump, shape, x)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
        assert worst <= 1e-4
        assert time.perf_counter() - started < 10.0


class TestCriterion3LinearAlgebraOracle:
    def test_criterion_3_design_matrix_matches_direct_factorization(self):
        started = time.perf_counter()
        p, lam = 50, 0.7
        rng = np.random.default_rng(99)
        design = DesignMatrix(p, lam, mode="full")
        z = lam * np.eye(p)
        for _ in range(200):
            u = rng.standard_normal(p) * rng.uniform(0.1, 3.0)
            design.rank1_update(u)
            z += np.outer(u, u)
        direct_inv = np.linalg.inv(z)
        _, direct_logdet = np.linalg.slogdet(z)
        direct_ratio = direct_logdet - p * np.log(lam)
        inv_err = (np.max(np.abs(design.inverse() - direct_inv))
                   / np.max(np.abs(direct_inv)))
        logdet_err = abs(design.logdet_ratio() - direct_ratio) / abs(direct_ratio)
        assert inv_err <= 1e-8
        assert logdet_err <= 1e-8
        assert time.perf_counter() - started < 5.0


class TestCriterion4NtkOracle:
    @staticmethod
    def _closed_form_layer(cov):
        denom = math.sqrt(cov[0, 0] * cov[1, 1])
        c = min(1.0, max(-1.0, cov[0, 1] / denom))
        theta = math.acos(c)
        sig_off = denom / math.pi * (math.sin(theta)
                                     + (math.pi - theta) * math.cos(theta))
        deriv = (math.pi - theta) / math.pi
        sig_diag = (cov[0, 0], cov[1, 1])
        new_cov = np.array([[sig_diag[0], sig_off], [sig_off, sig_diag[1]]])
        return new_cov, deriv

    @staticmethod
    def _mc_final_entry(cov, htilde_prev, n_samples, rng):
        """Per-sample estimate of (Htilde^L + Sigma^L)/2 given the closed-form
        covariance feeding the last layer, so correlations between the
        activation and derivative expectations are handled exactly."""
        chol = np.linalg.cholesky(cov + 1e-12 * np.eye(2))
        draws = rng.standard_normal((n_samples, 2)) @ chol.T
        prod = 2.0 * np.maximum(draws[:, 0], 0.0) * np.maximum(draws[:, 1], 0.0)
        deriv = 2.0 * ((draws[:, 0] > 0) & (draws[:, 1] > 0)).astype(float)
        stat = (htilde_prev * deriv + 2.0 * prod) / 2.0
        return stat.mean(), stat.std(ddof=1) / math.sqrt(n_samples)

    def test_criterion_4_gram_entries_match_monte_carlo(self):
        started = time.perf_counter()
        rng = np.random.default_rng(4242)
        n_samples = 10 ** 6
        for depth in (2, 3):
            for _ in range(20):
                x = rng.standard_normal(6)
                y = rng.standard_normal(6)
                x /= np.linalg.norm(x)
                y /= np.linalg.norm(y)
                gram = ntk_gram(np.stack([x, y]), depth)
                cov = np.array([[1.0, float(x @ y)], [float(x @ y), 1.0]])
                htilde = float(cov[0, 1])
                # run the recursion closed-form up to the layer feeding the
                # final expectations, then Monte Carlo only the last layer
                for _layer in range(depth - 2):
                    new_cov, deriv_cf = self._closed_form_layer(cov)
                    htilde = htilde * deriv_cf + new_cov[0, 1]
                    cov = new_cov
                h_mc, h_se = self._mc_final_entry(cov, htilde, n_samples, rng)
                assert abs(gram[0, 1] - h_mc) <= 3.0 * h_se
        assert time.perf_counter() - started < 60.0

    def test_criterion_4_hand_values(self):
        x = np.zeros(4)
        x[0] = 1.0
        self_entry = ntk_gram(x[None, :], 2)[0, 0]
        assert abs(self_entry - 1.5) <= 1e-3
        pair = np.eye(2)
        off = ntk_gram(pair, 2)[0, 1]
        assert abs(off - 1.0 / math.pi) <= 1e-3


class TestCriterion5RevealProtocol:
    def test_criterion_5_reveal_protocol_properties(self):
        started = time.perf_counter()
        rng = np.random.default_rng(555)
        distributions = [DelayDistribution(kind, 30.0)
                         for kind in ("uniform", "exponential", "pareto")]
        for dist in distributions:
            queue = RevealQueue()
            pairs = []
            for i in range(500):
                s = int(rng.integers(1, 400))
                tau = dist.sample(rng)
                pairs.append((s, tau))
                queue.schedule(s, tau, i)
                assert reveal_round(s, tau) == math.ceil(s + tau)
            horizon = max(math.ceil(s + tau) for s, tau in pairs)
            seen = 0
            for t in range(1, horizon + 1):
                revealed = set(queue.pop_revealed(t))
                expected = {i for i, (s, tau) in enumerate(pairs)
                            if t - 1 < s + tau <= t}
                assert revealed == expected
                seen += len(revealed)
            assert seen == queue.inserted == queue.popped == 500
            assert queue.pending_count == 0
        assert time.perf_counter() - started < 5.0


class TestCriterion6DelayParameterMapping:
    def test_criterion_6_expected_delay_expansion_strings(self, mushroom_csv):
        expected = {
            "exponential": f"Exponential(rate={1.0 / 30.0!r})",
            "uniform": f"Uniform(0, {60.0!r})",
            "pareto": f"Pareto(a={31.0 / 30.0!r}, x_m={1.0!r})",
        }
        for kind, text in expected.items():
            cfg = _mushroom_config(mushroom_csv, "delayed-neural-ucb",
                                   kind, 30)
            assert resolved_summary(cfg)["delay_distribution"] == text


class TestCriterion7DelayConstant:
    def test_criterion_7_plugin_value(self):
        delta = 1.5 * math.exp(-3.0)  # makes log(3T / (2 delta)) = 3 at T=1
        value, d_tau, psi_tau = d_plus(DelayBoundParams(1, delta, 0.0, 0.0, 0.0))
        assert d_tau == 0.0
        assert abs(value - 5.0) <= 1e-12

    def test_criterion_7_high_precision_oracle(self):
        value, _, _ = d_plus(DelayBoundParams(1000, 0.05, 30.0, 30.0, 0.0))
        with mpmath.workdps(60):
            lt = mpmath.log(3 * mpmath.mpf(1000) / (2 * mpmath.mpf("0.05")))
            ref = (1 + 2 * 30 + mpmath.sqrt(2 * mpmath.mpf(30) ** 2 * lt)
                   + mpmath.mpf(4) / 3 * lt + 2 * mpmath.sqrt(2 * 30 * lt))
            assert abs(value - float(ref)) / float(ref) <= 1e-9

    def test_criterion_7_monotonicity_grid(self):
        grid = np.linspace(0.0, 60.0, 13)
        for alpha in (1.0, 10.0, 30.0):
            values = [d_plus(DelayBoundParams(500, 0.05, tau, alpha, 0.0))[0]
                      for tau in grid]
            assert all(b >= a for a, b in zip(values, values[1:]))
        prev = None
        for horizon in (10, 100, 1000, 10000):
            value = d_plus(DelayBoundParams(horizon, 0.05, 30.0, 30.0, 0.0))[0]
            if prev is not None:
                assert value >= prev
            prev = value


class TestCriterion8DeskScaleOrdering:
    def test_criterion_8_desk_scale_ordering(self, desk_scale_runs):
        _, results, elapsed = desk_scale_runs
        means = {name: _mean_curve(res) for name, res in results.items()}
        # (a) every mushroom policy is sublinear
        for name in ("neural-ucb", "delayed-neural-ucb",
                     "delayed-neural-ts", "lin-ucb"):
            curve = means[name]
            early = curve[499]
            late = curve[1999] - curve[1499]
            assert late < early, f"{name}: late {late} >= early {early}"
        # (b) delayed within [1x, 2x] of undelayed
        delayed = means["delayed-neural-ucb"][-1]
        plain = means["neural-ucb"][-1]
        assert plain <= delayed <= 2.0 * plain
        # (c) neural beats linear on the quadratic synthetic environment
        assert means["synth-neural-ucb"][-1] < means["synth-lin-ucb"][-1]
        assert elapsed < 20 * 60


class TestCriterion9DelayDistributions:
    def test_criterion_9_three_delay_distributions_complete(
            self, mushroom_csv, desk_scale_runs, tmp_path):
        started = time.perf_counter()
        _, desk_results, desk_elapsed = desk_scale_runs
        results = {"uniform": desk_results["delayed-neural-ucb"]}
        configs = {"uniform": _mushroom_config(
            mushroom_csv, "delayed-neural-ucb", "uniform", 30)}
        for kind in ("exponential", "pareto"):
            configs[kind] = _mushroom_config(
                mushroom_csv, "delayed-neural-ucb", kind, 30)
            results[kind] = run_experiment(configs[kind])
        for kind, res in results.items():
            assert len(res) == len(SEEDS)
            curve = _mean_curve(res)
            assert curve.shape == (2000,)
            assert np.all(np.isfinite(curve))
            assert np.all(np.diff(curve) >= 0.0)
            emit(res, tmp_path / kind, configs[kind])
            assert (tmp_path / kind / "mean.csv").exists()
        lengths = {len((tmp_path / kind / "mean.csv").read_text().splitlines())
                   for kind in results}
        assert lengths == {2001}
        assert (time.perf_counter() - started) + desk_elapsed < 30 * 60


class TestCriterion10Determinism:
    def test_criterion_10_rerun_is_byte_identical(
            self, mushroom_csv, desk_scale_runs, tmp_path):
        configs, results, _ = desk_scale_runs
        cfg = configs["delayed-neural-ucb"]
        emit(results["delayed-neural-ucb"], tmp_path / "first", cfg)
        rerun = run_experiment(cfg)
        emit(rerun, tmp_path / "second", cfg)
        for seed in SEEDS:
            first = (tmp_path / "first" / f"run_{seed}.csv").read_bytes()
            second = (tmp_path / "second" / f"run_{seed}.csv").read_bytes()
            assert first == second


# ---------------------------------------------------------------------------
# pinned outputs: the sha256 of every run_<seed>.csv and mean.csv of the
# criterion-8 runs, of the perfbench workloads at seeds 1-3, of the
# criterion-8 synthetic config under lin-ts at seeds 1-3 and of the short
# PATHS runs, so a change that moves no output shows it. The bytes depend on
# numpy and OpenBLAS, so the digests hold only for the versions they were
# recorded with. A change that moves outputs on purpose re-records the tables
# it moves, in the same commit, with tests/record_golden.py.
# ---------------------------------------------------------------------------

GOLDEN = json.loads((ROOT / "tests" / "golden_outputs.json").read_text())


def _platform() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 does not report its BLAS
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _output_digests(results, out: Path, cfg) -> dict:
    """The digest of each CSV that emit writes for results."""
    emit(results, out, cfg)
    return {path.name: _sha256(path) for path in sorted(out.glob("*.csv"))}


def desk_scale_digests(configs, results, tmp_path) -> dict:
    return {name: _output_digests(results[name], tmp_path / name, cfg)
            for name, cfg in configs.items()}


def perfbench_digests(tmp_path) -> dict:
    """The perfbench workloads at seeds 1-3, each on its own generated CSV, as
    perfbench/run.py builds them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            work = tmp_path / f"{name}-{seed}"
            work.mkdir()
            csv = workloads.write_mushroom_csv(work / "agaricus-lepiota.data", seed)
            cfg = config_from_dict(workloads.config_dict(workload, csv, seed))
            digests[f"{name}/{seed}"] = _output_digests(run_experiment(cfg), work / "out", cfg)
    return digests


def lin_ts_digests(tmp_path) -> dict:
    """The criterion-8 synthetic config under lin-ts at seeds 1-3, whose draws no
    other pinned run covers."""
    cfg = replace(_synthetic_config("lin-ts"), seeds=(1, 2, 3))
    return _output_digests(run_experiment(cfg), tmp_path / "lin-ts", cfg)


# short runs of code paths that no other pinned run takes. The neural UCB runs
# use simple gamma, whose column is written by repr every round, so it moves
# with log det
PATHS = {
    # J = t, and a full design past the dual-to-primal switch at p = 4*4 + 4 = 20
    "ucb-simple-full-round-uniform": {
        "experiment": {"horizon": 200, "arms": 4, "seeds": [1]},
        "policy": {"algorithm": "delayed-neural-ucb", "gamma_mode": "simple",
                   "nu": 0.1, "lambda": 0.1, "design_mode": "full"},
        "network": {"width": 4},
        "train": {"steps_schedule": "round", "batch_size": 16, "eta": 1e-3},
        "environment": {"source": "synthetic", "synthetic_dim": 4,
                        "embed_assumption3": False, "delay": "uniform",
                        "expected_delay": 3},
    },
    "ts-simple-diag-fixed-exponential": {
        "experiment": {"horizon": 200, "arms": 4, "seeds": [1]},
        "policy": {"algorithm": "delayed-neural-ts", "gamma_mode": "simple",
                   "nu": 0.1, "lambda": 0.1, "design_mode": "diag"},
        "network": {"width": 8},
        "train": {"steps": 5, "steps_schedule": "fixed", "batch_size": 16, "eta": 1e-3},
        "environment": {"source": "synthetic", "synthetic_dim": 4,
                        "embed_assumption3": True, "delay": "exponential",
                        "expected_delay": 5},
    },
    # depth 3, training from theta_0 every round, and a Pareto delay
    "ucb-simple-diag-depth3-cold-pareto": {
        "experiment": {"horizon": 200, "arms": 4, "seeds": [1]},
        "policy": {"algorithm": "delayed-neural-ucb", "gamma_mode": "simple",
                   "nu": 0.1, "lambda": 0.1, "design_mode": "diag", "warm_start": False},
        "network": {"depth": 3, "width": 8},
        "train": {"steps": 5, "steps_schedule": "fixed", "batch_size": 16, "eta": 1e-3},
        "environment": {"source": "synthetic", "synthetic_dim": 4,
                        "embed_assumption3": True, "delay": "pareto",
                        "expected_delay": 3},
    },
    # cosine-clipped h on contexts that are not embedded, and a constant delay
    "ucb-simple-full-cosine-constant": {
        "experiment": {"horizon": 200, "arms": 4, "seeds": [1]},
        "policy": {"algorithm": "delayed-neural-ucb", "gamma_mode": "simple",
                   "nu": 0.1, "lambda": 0.1, "design_mode": "full"},
        "network": {"width": 8},
        "train": {"steps": 5, "steps_schedule": "fixed", "batch_size": 16, "eta": 1e-3},
        "environment": {"source": "synthetic", "synthetic_h": "cosine-clipped",
                        "synthetic_dim": 4, "embed_assumption3": False,
                        "delay": "constant", "expected_delay": 2},
    },
    # Thompson sampling on a full design past the dual-to-primal switch at p = 20
    "ts-simple-full-fixed-uniform": {
        "experiment": {"horizon": 200, "arms": 4, "seeds": [1]},
        "policy": {"algorithm": "delayed-neural-ts", "gamma_mode": "simple",
                   "nu": 0.1, "lambda": 0.1, "design_mode": "full"},
        "network": {"width": 4},
        "train": {"steps": 5, "steps_schedule": "fixed", "batch_size": 16, "eta": 1e-3},
        "environment": {"source": "synthetic", "synthetic_dim": 4,
                        "embed_assumption3": False, "delay": "uniform",
                        "expected_delay": 3},
    },
    # the IDX loader, on the pair that paths_digests writes (4 x 4 images, labels 0-1)
    "ucb-simple-diag-mnist-uniform": {
        "experiment": {"horizon": 200, "arms": 2, "seeds": [1]},
        "policy": {"algorithm": "delayed-neural-ucb", "gamma_mode": "simple",
                   "nu": 0.1, "lambda": 0.1, "design_mode": "diag"},
        "network": {"width": 8},
        "train": {"steps": 5, "steps_schedule": "fixed", "batch_size": 16, "eta": 1e-3},
        "environment": {"source": "mnist", "dataset_path": "images.idx",
                        "labels_path": "labels.idx", "embed_assumption3": True,
                        "delay": "uniform", "expected_delay": 3},
    },
    # linear h on contexts that are not embedded, at an odd dimension
    "linucb-linear-dim5": {
        "experiment": {"horizon": 200, "arms": 4, "seeds": [1]},
        "policy": {"algorithm": "lin-ucb", "alpha": 0.5},
        "environment": {"source": "synthetic", "synthetic_h": "linear",
                        "synthetic_dim": 5, "embed_assumption3": False},
    },
}


def paths_digests(tmp_path) -> dict:
    # the IDX pair of the mnist entry: 60 seeded 4 x 4 images labelled 0 or 1
    rng = np.random.default_rng(25)
    write_idx_images(tmp_path / "images.idx", rng.integers(0, 256, size=(60, 4, 4)))
    write_idx_labels(tmp_path / "labels.idx", list(rng.integers(0, 2, size=60)))
    digests = {}
    for name, raw in PATHS.items():
        env = raw["environment"]
        if env["source"] == "mnist":
            raw = {**raw, "environment": {**env,
                                          "dataset_path": str(tmp_path / env["dataset_path"]),
                                          "labels_path": str(tmp_path / env["labels_path"])}}
        cfg = config_from_dict(raw)
        digests[name] = _output_digests(run_experiment(cfg), tmp_path / name, cfg)
    return digests


requires_golden_platform = pytest.mark.skipif(
    _platform() != GOLDEN["platform"],
    reason=f"the golden digests were recorded with {GOLDEN['platform']}, not {_platform()}")


@requires_golden_platform
class TestGoldenOutputs:
    def test_desk_scale_outputs_match_their_digests(self, mushroom_csv, desk_scale_runs,
                                                    tmp_path):
        if _sha256(mushroom_csv) != GOLDEN["mushroom_csv"]:
            pytest.skip("the digests were recorded on the generated mushroom CSV")
        configs, results, _ = desk_scale_runs
        assert desk_scale_digests(configs, results, tmp_path) == GOLDEN["desk_scale"]

    def test_perfbench_outputs_match_their_digests(self, tmp_path):
        assert perfbench_digests(tmp_path) == GOLDEN["perfbench"]

    def test_lin_ts_outputs_match_their_digests(self, tmp_path):
        assert lin_ts_digests(tmp_path) == GOLDEN["lin_ts"]

    def test_paths_outputs_match_their_digests(self, tmp_path):
        assert paths_digests(tmp_path) == GOLDEN["paths"]
