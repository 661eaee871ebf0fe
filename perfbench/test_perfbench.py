"""Tests of the benchmark's own code: span arithmetic, wrapping and
restoring, the run manifest, the correctness gate and the metric lists."""

import json
import subprocess
import sys
import threading
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans
import worker
import workloads
from sfi import lab
from sfi import normalize as nz
from sfi import spherebasis as sb

HERE = Path(__file__).resolve().parent


def make_span(sid, name, start, end, parent=None, row=None):
    return spans.Span(sid, name, parent, row, 0, None, start, end)


def test_self_time_subtracts_union_of_direct_children():
    tree = [
        make_span(1, "a", 0.0, 10.0),
        make_span(2, "b", 1.0, 3.0, parent=1),
        make_span(3, "b", 2.0, 4.0, parent=1),    # overlaps the first child
        make_span(4, "c", 8.0, 12.0, parent=1),   # runs past the parent
        make_span(5, "d", 1.5, 2.5, parent=2),    # grandchild
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)
    stats = spans.SpanStats(tree)
    assert stats.calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert stats.self_s["b"] == pytest.approx(3.0)
    assert stats.total_s["b"] == pytest.approx(4.0)
    assert stats.calls_under[("d", "b")] == 1
    assert stats.mean_s("b") == pytest.approx(2.0)
    assert stats.mean_s("missing") == 0.0


def fake_layer():
    mod = types.ModuleType("fake_layer")
    exec("def outer(x):\n    return inner(x) + inner(x)\n"
         "def inner(x):\n    return x + 1\n"
         "def _private(x):\n    return x\n", mod.__dict__)
    return mod


def test_recorder_times_module_global_calls_with_rows_and_threads():
    ticks = iter(range(1000))
    rec = spans.Recorder(row_names=("fake.outer",),
                         sizes={"fake.inner": lambda x: x},
                         clock=lambda: float(next(ticks)))
    mod = fake_layer()
    rec.wrap_module(mod, "fake")
    assert mod.outer(3) == 8
    worker_thread = threading.Thread(target=mod.inner, args=(5,))
    worker_thread.start()
    worker_thread.join(timeout=10)
    assert not worker_thread.is_alive()
    rec.restore()

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["fake.outer"]
    inner_main = [s for s in by_name["fake.inner"] if s.parent is not None]
    inner_thread = [s for s in by_name["fake.inner"] if s.parent is None]
    assert len(inner_main) == 2 and len(inner_thread) == 1
    assert all(s.parent == outer.sid and s.row == outer.sid
               for s in inner_main)
    assert inner_thread[0].row is None and inner_thread[0].size == 5
    assert "fake._private" not in by_name
    # every clock read is one tick: outer spans ticks 0..5, of which its
    # two children cover 1..2 and 3..4
    stats = spans.SpanStats(rec.spans)
    assert stats.self_s["fake.outer"] == pytest.approx(3.0)
    assert stats.row_self_s["fake.inner"] == pytest.approx(2.0)


def test_wrap_layers_captures_inner_calls_and_restores_every_attribute():
    import sfi

    modules = [getattr(sfi, layer) for layer in worker.LAYERS]
    before = [dict(vars(m)) for m in modules]
    original = nz.parse_constraint
    rec = spans.Recorder()
    worker.wrap_layers(rec)
    try:
        assert nz.parse_constraint is not original
        assert nz.parse_constraint("volume") == nz.volume_constraint()
    finally:
        rec.restore()
    for m, old in zip(modules, before):
        new = vars(m)
        assert new.keys() == old.keys()
        assert all(new[k] is old[k] for k in old), m.__name__
    names = [s.name for s in rec.spans]
    assert names.count("normalize.volume_constraint") == 2
    parent = {s.sid: s.name for s in rec.spans}
    assert any(parent.get(s.parent) == "normalize.parse_constraint"
               for s in rec.spans if s.name == "normalize.volume_constraint")


def test_manifest_records_machine_libraries_threads_and_sizes(monkeypatch):
    for key, val in run.PINNED_ENV.items():
        monkeypatch.setenv(key, val)
    wl = SimpleNamespace(name="expand", basis=sb.build_basis(2, 4),
                         grid=sb.build_grid(2, 8))
    doc = worker.manifest(wl, 7)
    assert set(doc) == {"workload", "seed", "nproc", "cpu_affinity",
                        "cpu_model", "python", "numpy", "scipy", "blas",
                        "thread_env", "grid_nodes", "grid_resolution",
                        "basis_degree", "basis_size", "monomials"}
    assert doc["seed"] == 7 and doc["thread_env"] == run.PINNED_ENV
    assert doc["grid_nodes"] == wl.grid.node_count
    assert doc["basis_size"] == wl.basis.size == 25
    assert doc["monomials"] == wl.basis.table.size
    json.dumps(doc)


def stability_row(**changes):
    row = dict(theorem="sigmak-quermass-hyperbolic", K=-1, n=3, k=1, j=0,
               weight_kind="affine", rho=0.9, epsilon=0.01,
               direction_id="d000", lhs=40.0, rhs=39.0, deficit=1e-3,
               alpha=1e-2, C=10.0, eta=2.5, bound=7.5e-4, status="pass",
               err_quad=1e-9, norm_c1=0.01, norm_w2inf=0.02)
    row.update(changes)
    return SimpleNamespace(**row)


def test_gate_accepts_good_rows_and_rejects_doctored_ones():
    good = [stability_row(), stability_row(epsilon=0.003)]
    assert workloads.gate_reports(good, 2) == (0, 0)
    # a pass whose deficit falls short of the bound by more than the
    # quadrature error is a wrong verdict
    short = stability_row(deficit=7.5e-4 - 1e-6)
    assert workloads.gate_reports([good[0], short], 2) == (0, 1)
    assert workloads.gate_reports([stability_row(status="fail")], 1) == (0, 1)
    # constant-weight hyperbolic rows must all be hypothesis_unmet
    assert workloads.gate_reports(good, 2, expect_unmet=True) == (0, 2)
    unmet = [stability_row(status="hypothesis_unmet")]
    assert workloads.gate_reports(unmet, 1, expect_unmet=True) == (0, 0)
    # a row that raised is missing from the report
    assert workloads.gate_reports(good[:1], 2) == (1, 0)


def test_csv_gate_reads_back_emitted_rows():
    text = lab.csv_text([stability_row(), stability_row(direction_id="d001")])
    assert workloads.gate_csv(text, 2) == (0, 0)
    assert workloads.gate_csv(text, 3) == (1, 0)
    assert workloads.gate_csv("", 2) == (2, 0)
    header, first, second = text.splitlines()
    doctored = "\n".join([header, first.replace(",pass,", ",fail,"), second])
    assert workloads.gate_csv(doctored, 2) == (0, 1)
    validity = lab.csv_text([stability_row(theorem="H-volume", C=None,
                                           eta=None, bound=None)])
    assert workloads.gate_csv(validity, 1) == (0, 0)


def test_fit_gate():
    assert workloads.fit_ok(SimpleNamespace(max_rel_error=3e-8))
    assert not workloads.fit_ok(SimpleNamespace(max_rel_error=2e-4))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(worker.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == worker.PER_LAYER
    res = {"rows_per_s": 2.0, "setup_samples": [1.0, 3.0, 2.0],
           "peak_rss_mb": 150.0}
    e2e = run.end_to_end(res)
    assert e2e["setup_s"]["value"] == 2.0
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == {k: v["unit"] for k, v in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_every_per_layer_metric_has_a_rule():
    empty = spans.SpanStats([])
    out = worker.per_layer_metrics(empty, empty, 0, 495, 1, 0.0, 1.0, 0.0)
    assert list(out) == list(worker.PER_LAYER)
    assert all(m["value"] == 0.0 for m in out.values())


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "expand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
