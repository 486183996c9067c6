"""The traced run must not change what sqlab computes or leave wrappers behind.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import sys

import numpy as np
import pytest

import tracer
from sqlab import arith, cli, hsums

# one small operation per workload (fjk-constant with two pool workers)
SMALL_OPS = {
    "highlow": "high-low --n 64 --j 4 --trials 1 --seed 5",
    "lowpass": "lowpass-scan --j 64,256 --x-max 2000",
    "arcs": "fjk-constant --n 256 --grid 1024 --threads 2",
    "arcs-multifreq": "multifreq --s 2 --grid 1024 --trials 2",
    "highlow-sparse": "sparse-demo --e-size 1024 --seed 3",
    "highlow-hsum": "hsum-identities --q-max 20",
    "lowpass-gauss": "gauss-check --q-max 30",
}


def _render(argv: str) -> bytes:
    hsums._h_vector_cached.cache_clear()
    arith.factorize.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv.split()) == 0
    return buf.getvalue().encode()


def _traced(argv: str, op: int = 0):
    tr = tracer.Tracer()
    tr.install()
    token = tr.begin_op(op)
    try:
        text = _render(argv)
    finally:
        tr.end_op(token)
        tr.remove()
    return tr, text


def _bindings() -> dict:
    """Every attribute of every layer module and of the classes they define."""
    snap = {}
    for layer in tracer.LAYERS:
        module = sys.modules[f"sqlab.{layer}"]
        for attr, obj in vars(module).items():
            snap[(layer, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for k, v in vars(obj).items():
                    snap[(layer, attr, k)] = v
    import scipy.fft

    for mod in (np.fft, scipy.fft):
        for name in ("fft", "ifft", "rfft", "irfft"):
            snap[(mod.__name__, name)] = getattr(mod, name)
    return snap


@pytest.mark.parametrize("workload", sorted(SMALL_OPS))
def test_trace_keeps_report_bytes(workload):
    plain = _render(SMALL_OPS[workload])
    tr, traced = _traced(SMALL_OPS[workload])
    assert traced == plain
    assert len(tr.s_start) > 0


def test_remove_restores_every_binding():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
    finally:
        tr.remove()
    assert changed  # something was wrapped
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_rebinds_every_namespace():
    from sqlab import circle, experiments, gauss, operators

    tr = tracer.Tracer()
    tr.install()
    try:
        assert experiments.average_squares is operators.average_squares
        assert hasattr(operators.average_squares, "__wrapped__")
        assert operators.sample_multiplier is circle.sample_multiplier
        assert hasattr(circle.sample_multiplier, "__wrapped__")
        assert circle.gauss_G0 is gauss.gauss_G0
        assert hsums.factorize is arith.factorize
        assert hasattr(arith.factorize, "cache_info")
        assert experiments.ThreadPoolExecutor is tracer.ContextThreadPoolExecutor
    finally:
        tr.remove()


def test_pool_worker_spans_belong_to_the_enclosing_op():
    tr, _ = _traced("fjk-constant --n 256 --grid 512 --threads 2", op=7)
    a = tr.arrays()
    assert set(a["op"].tolist()) == {7}
    names = np.asarray(tr.names)[a["name"]]
    runner = np.nonzero(names == "experiments.run_fjk_constant")[0]
    assert len(runner) == 1
    dirichlet = np.nonzero(names == "circle.dirichlet_approx")[0]
    assert len(dirichlet) == 512
    assert set(a["parent"][dirichlet].tolist()) == {int(runner[0])}


def test_counts_repeat_between_traced_runs():
    argv = "lowpass-scan --j 64,256 --x-max 2000"
    first = tracer.layer_metrics(_traced(argv)[0])
    second = tracer.layer_metrics(_traced(argv)[0])
    assert {k: first[k] for k in tracer.COUNTS} == {k: second[k] for k in tracer.COUNTS}
    assert first["hsums.h_vector.misses"] == 256
    assert first["hsums.table_bytes"] == sum(16 * 2 * q for q in range(1, 257))


def test_self_time_subtracts_the_union_of_children():
    parent = np.array([-1, 0, 0, 0])
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 3.0, 4.0, 7.0])  # children 1 and 2 overlap
    own = tracer.self_times(parent, start, end)
    assert own.tolist() == [10.0 - 4.0, 2.0, 2.0, 1.0]
