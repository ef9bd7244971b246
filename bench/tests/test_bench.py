"""Tests of the benchmark itself: metric names, span arithmetic, wrapper
restoration, output checks and a tiny-size run of each mode.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.use_checkout_source()

import spans  # noqa: E402
import workloads  # noqa: E402
from duolink import alignment, harness  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, n):
    wl = workloads.WORKLOADS[name]
    return replace(wl, config={**wl.config, "n_symbols": n})


def run_and_parse(wl, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(run.run(wl, seed=7, seconds=0.2, trace=trace, probes=1))
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in spans.PER_LAYER.items()]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_prints_every_metric(trace, section):
    lines, result = run_and_parse(tiny("trial-iid-w1", 20_000), trace)
    names = [m["name"] for m in SPEC[section]]
    assert list(result["metrics"]) == names
    for name in names:
        assert any(line.startswith(name + " ") for line in lines), name
    assert any(line.startswith("fail_frac ") for line in lines)
    assert any(line.startswith("reports_sha256 ") for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_tiny_traced_sweep_counts_resumed_points():
    _, result = run_and_parse(tiny("sweep-lag-serial", 20_000), trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["harness.run_sweep.resume_hit_frac"] == 0.5
    assert metrics["channel.apply_channel.calls_per_op"] == 21
    assert metrics["harness.run_sweep.parallel_eff"] > 0
    assert metrics["harness.emit.ms"] > 0


def span(sid, parent, name, start, end):
    return spans.Span(sid, parent, name, start, end, op=0, tag="")


def test_self_time_is_duration_minus_children():
    tree = [
        span(1, None, "harness.run_trial", 0.0, 10.0),
        span(2, 1, "qpsk.demap_symbols", 1.0, 3.0),
        span(3, 2, "qpsk.quadrant_indices", 1.5, 2.0),
        span(4, 1, "cpe.extract_phase", 2.0, 5.0),  # overlaps span 2
        span(5, 1, "cpe.extract_phase", 7.0, 8.0),
        span(6, None, "harness.run_trial", 20.0, 21.0),
        span(7, 6, "cpe.extract_phase", 20.5, 22.0),  # ends after its parent
    ]
    own = spans.self_times(tree)
    assert own == {1: 5.0, 2: 1.5, 3: 0.5, 4: 3.0, 5: 1.0, 6: 0.5, 7: 1.5}
    metrics = spans.layer_metrics(tree, ops=2, symbols=1_000_000)
    assert metrics["harness.self_ms_per_msym"] == pytest.approx(5500.0)
    assert metrics["qpsk.self_ms_per_msym"] == pytest.approx(2000.0)
    assert metrics["cpe.self_ms_per_msym"] == pytest.approx(5500.0)
    assert metrics["cpe.extract_phase.calls_per_op"] == 1.5


def test_tracer_restores_wrapped_names(tmp_path):
    originals = [(m, a, f) for m, a, f in spans.targets()]
    assert len(originals) > 40
    with pytest.raises(ValueError):
        with spans.Tracer(tmp_path) as tracer:
            assert all(getattr(m, a) is not f for m, a, f in originals)
            harness.wilson_interval(3, 10)
            alignment.estimate_delay([0.0] * 8, [0.0] * 8, max_lag=9)  # raises
    assert [s.name for s in tracer.spans] == ["harness.wilson_interval", "alignment.estimate_delay"]
    assert all(getattr(m, a) is f for m, a, f in originals)


@pytest.mark.parametrize("lo, hi, tol", [(0.0, 20.0, 0.05), (0.0, 1.0, 0.3), (2.0, 2.01, 0.1)])
def test_golden_evaluations_match_adapt_kappa(lo, hi, tol):
    result = alignment.adapt_kappa(lambda k: (k - 0.7) ** 2, lo, hi, tol)
    assert workloads.golden_evaluations(lo, hi, tol) == result.evaluations


def test_check_report_flags_a_tampered_report():
    wl = tiny("trial-iid-w1", 20_000)
    report = harness.run_trial(wl.trial_config(7, 0))
    assert wl.check(report) == []
    assert wl.check(replace(report, ber_compensated=report.ber_compensated * 1.01))
    assert wl.check(replace(report, estimated_lag=0))
    assert wl.check(replace(report, case_counts=(1, 0, 0, 0)))
    lo, hi = report.ci_uncompensated
    assert wl.check(replace(report, ci_uncompensated=(lo, hi * 1.001)))
