"""Tests of the benchmark's span tracer.

    python3 -m pytest bench/test_tracer.py
"""

import json
import sys
import textwrap
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from distparse import metrics, treebank  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def fake(monkeypatch):
    """A package ``fakepkg`` whose functions advance a fake clock;
    ``fakepkg.b`` imports ``inner`` from ``fakepkg.predictor`` by name.
    The module is named ``predictor`` so its spans count as predictor
    spans in the CPU-over-wall accounting."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.predictor")
    b = types.ModuleType("fakepkg.b")
    for name, mod in (("fakepkg", pkg), ("fakepkg.predictor", a),
                      ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    pkg.predictor, pkg.b = a, b
    a.clock = b.clock = clock
    exec(textwrap.dedent("""
        def inner():
            clock.advance(2)

        def outer():
            clock.advance(1)
            inner()
            clock.advance(3)

        def countdown(n):
            clock.advance(1)
            if n:
                countdown(n - 1)
    """), a.__dict__)
    exec(textwrap.dedent("""
        from fakepkg.predictor import inner

        def caller():
            clock.advance(5)
            inner()
    """), b.__dict__)
    tracer = Tracer(clock=clock, cpu_clock=clock)
    yield tracer, a, b
    tracer.uninstall()


def test_self_time_subtracts_child_spans(fake, tmp_path):
    tracer, a, _ = fake
    tracer.install(a, ["inner", "outer"], package="fakepkg")
    tracer.enabled = True
    a.outer()
    stats = tracer.stats()
    assert stats["predictor.outer"] == (1, 4.0)
    assert stats["predictor.inner"] == (1, 2.0)

    path = tmp_path / "spans.jsonl"
    assert tracer.write_spans(path) == 2
    spans = {s["name"]: s for s in map(json.loads, path.read_text().splitlines())}
    assert spans["predictor.inner"]["parent"] == spans["predictor.outer"]["id"]
    assert spans["predictor.outer"]["parent"] is None
    assert spans["predictor.outer"]["end"] - spans["predictor.outer"]["start"] == 6.0


def test_recursive_function_gives_one_outermost_span(fake):
    tracer, a, _ = fake
    tracer.install(a, ["countdown"], package="fakepkg")
    tracer.enabled = True
    a.countdown(5)
    assert tracer.stats()["predictor.countdown"] == (1, 6.0)
    assert tracer.span_count() == 1


def test_call_through_imported_name_is_counted(fake):
    tracer, a, b = fake
    tracer.install(a, ["inner"], package="fakepkg")
    assert b.inner is a.inner   # the binding in fakepkg.b was replaced too
    tracer.enabled = True
    b.caller()
    assert tracer.stats()["predictor.inner"] == (1, 2.0)


def test_disabled_tracer_records_nothing(fake):
    tracer, a, _ = fake
    tracer.install(a, ["outer", "inner"], package="fakepkg")
    a.outer()
    assert tracer.stats() == {}
    assert tracer.span_count() == 0


def test_nested_predictor_spans_count_wall_once(fake):
    tracer, a, _ = fake
    tracer.install(a, ["inner", "outer"], package="fakepkg")
    tracer.enabled = True
    a.outer()
    assert tracer.cpu_wall_s == 6.0
    assert tracer.cpu_s == 6.0


def test_distparse_brackets_reached_via_agreement_groups():
    original_leaves = treebank.leaves
    tracer = Tracer()
    tracer.install(treebank, ["leaves"])
    tracer.install(metrics, ["brackets", "agreement_groups"])
    try:
        # metrics bound ``leaves`` with ``from .treebank import leaves``
        assert metrics.leaves is treebank.leaves is not original_leaves
        tree = treebank.parse_tree("(S (A a) (B (C b) (D c)))")
        tracer.enabled = True
        metrics.agreement_groups([tree, tree])
        stats = tracer.stats()
        assert stats["metrics.agreement_groups"][0] == 1
        assert stats["metrics.brackets"][0] == 2
        # one outermost span per call, however deep the recursion
        assert stats["treebank.leaves"][0] == 3
    finally:
        tracer.uninstall()
    assert metrics.leaves is original_leaves
    assert treebank.leaves is original_leaves
