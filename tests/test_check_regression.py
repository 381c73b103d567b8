"""Tests for the same-host A/B regression gate (benchmarks/ab_gate.py)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ab_gate", REPO_ROOT / "benchmarks" / "ab_gate.py"
)
ab_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_gate)


def run(sim_ips=100_000.0, correct=True):
    return {"sim_ips": sim_ips, "correct": correct}


def runs(change_ratios=None, *, parent_ips=100_000.0, parent=None, change=None):
    """Every workload gets one pair per ratio (default: PAIRS at 1.0)."""
    ratios = change_ratios or [1.0] * ab_gate.PAIRS
    return {
        w: [
            {
                "parent": parent or run(parent_ips),
                "change": change or run(parent_ips * r),
            }
            for r in ratios
        ]
        for w in ab_gate.WORKLOADS
    }


class TestCheck:
    def test_identical_reports_pass(self):
        assert ab_gate.check(runs()) == []

    def test_within_tolerance_passes(self):
        down = 1 - ab_gate.BOUND + 0.01
        assert ab_gate.check(runs([down] * ab_gate.PAIRS)) == []

    def test_regression_beyond_tolerance_fails(self):
        down = 1 - ab_gate.BOUND - 0.03
        problems = ab_gate.check(runs([down] * ab_gate.PAIRS))
        assert len(problems) == len(ab_gate.WORKLOADS)
        assert all("median sim_ips ratio" in p for p in problems)

    def test_machine_speed_alone_does_not_gate(self):
        # Both trees on a host twice as slow: same ratios, so it passes; and
        # one disturbed pair out of five does not move the median.
        assert ab_gate.check(runs(parent_ips=50_000.0)) == []
        assert ab_gate.check(runs([1.0, 1.0, 0.5, 1.0, 1.0])) == []

    def test_broken_parity_fails_even_when_fast(self):
        fast_but_wrong = run(200_000.0, correct=False)
        problems = ab_gate.check(runs(change=fast_but_wrong))
        assert problems
        assert all("change run is wrong" in p for p in problems)

    def test_diverged_pair_is_named(self):
        data = runs()
        data["sim-catch"][2]["change"] = run(correct=False)
        problems = ab_gate.check(data)
        assert problems == [
            "sim-catch pair 3: change run is wrong or has no throughput "
            "(golden digest mismatch or crash)"
        ]

    def test_vacuous_baseline_rejected(self):
        problems = ab_gate.check(runs(parent=run(0.0, correct=False)))
        assert problems
        assert all("parent run is wrong" in p for p in problems)
        assert ab_gate.check({w: [] for w in ab_gate.WORKLOADS}) == [
            f"{w}: no runs" for w in ab_gate.WORKLOADS
        ]


class TestMain:
    def test_cli_pass_and_fail(self, tmp_path, capsys):
        parent = (tmp_path / "parent").resolve()
        (parent / "perfbench").mkdir(parents=True)
        (parent / "perfbench" / "run.py").write_text("")
        calls = []

        def fake_run(ratio):
            def run_bench(tree, workload, seed):
                calls.append((tree, workload, seed))
                ips = 100_000.0 if tree == parent else 100_000.0 * ratio
                return run(ips)
            return run_bench

        report = tmp_path / "ab.json"
        assert ab_gate.main(
            ["--parent", str(parent), "--report", str(report)], run=fake_run(1.0)
        ) == 0
        assert "ab-gate: PASS" in capsys.readouterr().out
        assert '"problems": []' in report.read_text()
        # Alternating order: pair 1 runs the parent first, pair 2 the change.
        first_of_pair = calls[:: 2 * len(ab_gate.WORKLOADS)]
        assert [tree == parent for tree, _, _ in first_of_pair[:2]] == [True, False]
        assert len(calls) == 2 * ab_gate.PAIRS * len(ab_gate.WORKLOADS)

        assert ab_gate.main(["--parent", str(parent)], run=fake_run(0.8)) == 1
        assert "median sim_ips ratio" in capsys.readouterr().err
        assert ab_gate.main(["--parent", str(tmp_path / "missing")]) == 2
