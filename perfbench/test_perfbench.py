"""Self-tests of the benchmark: span arithmetic, tracer hygiene, output gate.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import contextlib
import io
import sys
import threading

import numpy as np
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (HERE, HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import gausscap  # noqa: E402
from gausscap import cli  # noqa: E402

import bench_reference as ref  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_self_time_of_nested_and_threaded_spans():
    spans = [
        (1, 0, "m.root", 0.0, 10.0, 1, False),
        (2, 1, "m.a", 1.0, 4.0, 1, False),
        (3, 2, "m.g", 2.0, 3.0, 1, False),
        (4, 1, "m.b", 3.0, 6.0, 2, False),     # another thread, overlaps m.a
        (5, 1, "m.c", 8.0, 12.0, 2, True),     # ends after its parent
        (6, 0, "ensembles.run_indexed", 20.0, 24.0, 1, False),
        (7, 6, "ensembles.sample", 20.0, 22.0, 1, False),
        (8, 6, "ensembles.sample", 20.0, 23.0, 2, False),
        (9, 6, "ensembles.sample", 22.0, 24.0, 1, False),
        (10, 8, "_kernels.k", 20.5, 21.0, 2, False),
    ]
    assert bench_trace.self_times(spans) == {
        1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 4.0,
        6: 0.0, 7: 2.0, 8: 2.5, 9: 2.0, 10: 0.5}
    m = bench_trace.layer_metrics(spans, {}, items=2)
    assert m["m.self_us_per_item"] == 13e6 / 2
    assert m["m.calls_per_item"] == 5 / 2
    assert m["m.c.raised_frac"] == 1.0 and m["m.a.raised_frac"] == 0.0
    assert m["ensembles.self_us_per_item"] == 6.5e6 / 2
    assert m["kernels.k.self_us_per_item"] == 0.5e6 / 2
    assert m["ensembles.run_indexed.busy_frac"] == 7.0 / (2 * 4.0)


def test_tracer_restores_every_wrapper_and_parents_worker_samples():
    modules = bench_trace.package_modules(gausscap)
    namespaces = [gausscap] + list(modules.values())
    before = [dict(vars(mod)) for mod in namespaces]
    tracer = bench_trace.Tracer(gausscap)
    with tracer:
        assert cli.main is not before[namespaces.index(modules["cli"])]["main"]
        run_cli(["random", "--mode", "mc", "--N", "2", "--K", "2", "--M", "2",
                 "--sigma2", "0.05", "--method", "hom", "--samples", "6",
                 "--seed", "3", "--power", "4", "--threads", "2"])
    for mod, old in zip(namespaces, before):
        now = vars(mod)
        assert now.keys() == old.keys()
        assert all(now[k] is v for k, v in old.items()), mod.__name__

    spans = {s[0]: s for s in tracer.spans}
    runs = [s for s in spans.values() if s[2] == bench_trace.RUN_INDEXED]
    samples = [s for s in spans.values() if s[2] == bench_trace.SAMPLE_SPAN]
    assert len(runs) == 1 and len(samples) == 6
    assert all(s[1] == runs[0][0] for s in samples)
    main_thread = threading.get_ident()
    assert all(s[5] != main_thread for s in samples)
    # Inside a sample on a worker thread, spans nest on that thread.
    inner = [s for s in spans.values() if s[1] in {x[0] for x in samples}]
    assert {s[2] for s in inner} >= {"active.active_sample",
                                     "capacity.hom_general_aligned"}
    assert all(spans[s[1]][5] == s[5] for s in inner)
    roots = [s for s in spans.values() if s[1] == 0]
    assert [s[2] for s in roots] == ["cli.main"]


def test_tracer_counts_and_span_ids_survive_many_threads():
    from gausscap import _kernels
    threads, calls = 8, 200
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with bench_trace.Tracer(gausscap) as tracer:
            def work():
                for _ in range(calls):
                    _kernels.entropy_g_arr(np.array([0.5, 1.0, 2.0]))
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old_interval)
    spans = [s for s in tracer.spans if s[2] == "_kernels.entropy_g_arr"]
    assert len(spans) == threads * calls
    assert len({s[0] for s in tracer.spans}) == len(tracer.spans)
    assert tracer.counts["_kernels.entropy_g_arr"] == threads * calls * 3


def _bump(text, line, field, rel):
    rows = text.splitlines()
    cells = rows[line].split(",")
    cells[field] = "%.12g" % (float(cells[field]) * (1.0 + rel))
    rows[line] = ",".join(cells)
    return "\n".join(rows) + "\n"


def _shift_last_digit(text, line, field, units):
    rows = text.splitlines()
    cells = rows[line].split(",")
    value = float(cells[field])
    cells[field] = "%.12g" % (value + units * ref.last_digit_unit(value))
    rows[line] = ",".join(cells)
    return "\n".join(rows) + "\n"


def test_gate_accepts_reference_output_and_rejects_perturbed_lines():
    passive = bench_workloads.PassiveMC("mc-passive-small", 2, 8, seed=5)
    call = passive.next_call()
    out = run_cli(call.argvs[0])
    assert passive.check(call, [out])
    for field in (6, 7):
        assert passive.check(call, [_shift_last_digit(out, 1, field, 1)])
        assert passive.check(call, [_shift_last_digit(out, 1, field, -1)])
        assert not passive.check(call, [_bump(out, 1, field, 1e-9)])
    assert not passive.check(call, [_shift_last_digit(out, 1, 6, 3)])
    assert not passive.check(call, [out.replace(",holevo,", ",het,")])

    closed = bench_workloads.ClosedForm("closed-form", seed=5, n_max=3)
    call = closed.next_call()
    outs = [run_cli(argv) for argv in call.argvs]
    assert closed.check(call, outs)
    assert not closed.check(call, [_bump(outs[0], 2, 6, 1e-9), outs[1]])
    assert not closed.check(call, [outs[0], _bump(outs[1], 5, 3, -1e-9)])
    assert not closed.check(call, [outs[0], outs[1].rsplit("\n", 2)[0] + "\n"])


def test_sweep_gate_requires_holevo_above_het_and_hom():
    got = "N,method,alloc,bits\n1,holevo,uniform,1\n1,het,uniform,2\n1,hom,uniform,0.5\n"
    expected = {(1, "holevo", "uniform"): 1.0, (1, "het", "uniform"): 2.0,
                (1, "hom", "uniform"): 0.5}
    assert not ref.check_sweep(got, [1], ["holevo", "het", "hom"], ["uniform"], expected)
    expected[(1, "het", "uniform")] = 0.75
    assert ref.check_sweep(got.replace("het,uniform,2", "het,uniform,0.75"), [1],
                           ["holevo", "het", "hom"], ["uniform"], expected)
