import math

import pytest

from spans import Span, Tracer, covered, layer_metrics, self_times, tail, task_seconds


def _span(id, name, start, end, parent=None, error=None, task="t", **attrs):
    return Span(id, name, start, end, parent, task=task, error=error, attrs=attrs)


def test_covered_merges_overlaps_and_nesting():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6), (5.2, 5.5)]) == pytest.approx(4.0)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, "pipeline.run_task", 0.0, 10.0),
        _span(1, "did.bootstrap_se", 1.0, 7.0, parent=0),
        _span(2, "did.estimate_ipw_did", 1.5, 3.0, parent=1),
        _span(3, "glm.fit_logistic", 1.6, 2.6, parent=2),
        _span(4, "did.estimate_ipw_did", 3.0, 6.0, parent=1),
        _span(5, "did.estimate_ols_did", 8.0, 9.0, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[1] == pytest.approx(6.0 - 1.5 - 3.0)
    assert own[2] == pytest.approx(1.5 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    spans = [
        _span(0, "ingest.read_prices", 0.0, 1.0, task=None, rows=100),
        _span(1, "pipeline.run_task", 1.5, 10.0),
        _span(2, "did.bootstrap_se", 2.0, 8.0, parent=1),
        _span(3, "did.estimate_ipw_did", 2.0, 3.0, parent=2),
        _span(4, "did.estimate_ipw_did", 3.0, 5.0, parent=2),
        _span(5, "glm.fit_logistic", 3.5, 4.5, parent=4, error="SeparationError"),
        _span(6, "did.estimate_ipw_did", 5.0, 7.0, parent=2),
        _span(7, "glm.fit_logistic", 5.0, 6.0, parent=6, iterations=7),
    ]
    m = layer_metrics(spans, wall=12.0, tasks=task_seconds(spans))
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"] == pytest.approx(12.0)
    assert m["trace.unattributed_s"] == pytest.approx(12.0 - 1.0 - 8.5)
    assert m["glm.self_s"] == pytest.approx(2.0)
    assert m["ingest.rows_per_s"] == pytest.approx(100.0)
    # The first estimator call inside a bootstrap re-estimates the point.
    assert m["did.replicates"] == 2
    assert m["did.replicate_s"] == pytest.approx(2.0)
    assert m["glm.fit_failures.SeparationError"] == 1
    assert m["glm.irls_iterations_max"] == 7
    assert m["pipeline.tasks"] == 1
    assert m["pipeline.task_s_p50"] == pytest.approx(8.5)


def test_task_seconds_add_up_the_top_level_spans_of_each_task():
    spans = [
        _span(0, "ingest.read_prices", 0.0, 1.0, task=None),
        _span(1, "pipeline.prepare_outcome_rows", 1.0, 2.0, task="a"),
        _span(2, "panel.label_panel", 1.2, 1.8, parent=1, task="a"),
        _span(3, "diagnostics.pretrend_placebo", 2.0, 5.0, task="a"),
        _span(4, "pipeline.prepare_outcome_rows", 5.0, 5.5, task="b"),
    ]
    assert task_seconds(spans) == pytest.approx([4.0, 0.5])


def test_tail_keeps_ten_values_beyond_it():
    values = [float(i) for i in range(1, 101)]
    value, percentile, beyond = tail(values)
    assert (percentile, beyond) == (90, 10)
    assert value == 90.0
    value, percentile, beyond = tail(values[:48])
    assert beyond >= 10 and percentile == 79
    assert tail([3.0, 1.0]) == (3.0, 100, 0)


def test_tracer_records_nesting_errors_and_restores_patches():
    import types

    module = types.SimpleNamespace()
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return [x] * x

    module.inner = inner
    tracer.patch(module, "inner", "glm.inner", lambda r: {"rows": len(r)})
    outer = tracer.wrap("did.outer", lambda x: module.inner(x) + module.inner(1))
    tracer.task = "task-1"
    assert outer(2) == [2, 2, 1]
    with pytest.raises(ValueError):
        module.inner(-1)
    tracer.restore()
    assert module.inner is inner
    names = [(s.name, s.parent, s.error, s.attrs) for s in tracer.spans]
    assert names == [
        ("did.outer", None, None, {}),
        ("glm.inner", 0, None, {"rows": 2}),
        ("glm.inner", 0, None, {"rows": 1}),
        ("glm.inner", None, "ValueError", {}),
    ]
    assert all(s.task == "task-1" and s.end >= s.start for s in tracer.spans)
    assert not math.isnan(sum(self_times(tracer.spans).values()))


def test_per_task_calls_set_the_task_id_and_a_classmethod_is_restored():
    import types

    class Task:
        def __init__(self, key):
            self._key = key

        def key(self):
            return self._key

    class Reader:
        @classmethod
        def load(cls, path):
            return (cls, path)

    module = types.SimpleNamespace(run=lambda task: Reader.load(task.key()))
    tracer = Tracer()
    tracer.patch(module, "run", "pipeline.run_task", per_task=True)
    tracer.patch(Reader, "load", "ingest.load")
    assert Reader.load("setup") == (Reader, "setup")
    assert module.run(Task("a")) == (Reader, "a")
    assert module.run(Task("b")) == (Reader, "b")
    tracer.restore()
    assert isinstance(vars(Reader)["load"], classmethod)
    assert [(s.name, s.task) for s in tracer.spans] == [
        ("ingest.load", None),
        ("pipeline.run_task", "a"),
        ("ingest.load", "a"),
        ("pipeline.run_task", "b"),
        ("ingest.load", "b"),
    ]
