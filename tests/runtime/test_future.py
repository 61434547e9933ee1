"""Futures: HPX semantics — readiness, continuations, combinators."""

import threading

import pytest

from repro.runtime import (Future, FutureError, Promise, async_execute,
                           dataflow, make_exceptional_future,
                           make_ready_future, when_all)


class TestBasics:
    def test_ready_future_returns_value(self):
        assert make_ready_future(42).get() == 42

    def test_ready_future_is_ready(self):
        assert make_ready_future(1).is_ready()

    def test_default_value_is_none(self):
        assert make_ready_future().get() is None

    def test_pending_future_not_ready(self):
        assert not Promise().get_future().is_ready()

    def test_exceptional_future_raises_on_get(self):
        f = make_exceptional_future(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            f.get()

    def test_exceptional_future_reports_exception(self):
        assert make_exceptional_future(RuntimeError()).has_exception()

    def test_get_timeout_raises(self):
        f = Promise().get_future()
        with pytest.raises(FutureError, match="timed out"):
            f.get(timeout=0.01)

    def test_wait_returns_false_on_timeout(self):
        assert not Promise().get_future().wait(timeout=0.01)

    def test_wait_returns_true_when_ready(self):
        assert make_ready_future(0).wait(timeout=0.01)


class TestPromise:
    def test_set_value_satisfies_future(self):
        p = Promise()
        f = p.get_future()
        p.set_value("x")
        assert f.get() == "x"

    def test_set_exception_propagates(self):
        p = Promise()
        p.set_exception(KeyError("k"))
        with pytest.raises(KeyError):
            p.get_future().get()

    def test_double_set_value_raises(self):
        p = Promise()
        p.set_value(1)
        with pytest.raises(FutureError):
            p.set_value(2)

    def test_set_value_after_exception_raises(self):
        p = Promise()
        p.set_exception(ValueError())
        with pytest.raises(FutureError):
            p.set_value(1)

    def test_cross_thread_completion(self):
        p = Promise()
        threading.Timer(0.01, p.set_value, args=("done",)).start()
        assert p.get_future().get(timeout=2.0) == "done"


class TestThen:
    def test_continuation_receives_ready_future(self):
        out = make_ready_future(10).then(lambda f: f.get() + 1)
        assert out.get() == 11

    def test_continuation_on_pending_future(self):
        p = Promise()
        out = p.get_future().then(lambda f: f.get() * 2)
        p.set_value(21)
        assert out.get() == 42

    def test_chain_of_continuations(self):
        f = make_ready_future(1)
        for _ in range(10):
            f = f.then(lambda fut: fut.get() + 1)
        assert f.get() == 11

    def test_exception_in_continuation_propagates(self):
        out = make_ready_future(0).then(lambda f: 1 / f.get())
        with pytest.raises(ZeroDivisionError):
            out.get()

    def test_continuation_sees_input_exception(self):
        src = make_exceptional_future(ValueError("inner"))
        out = src.then(lambda f: "handled" if f.has_exception() else "no")
        assert out.get() == "handled"

    def test_future_returning_continuation_unwraps(self):
        out = make_ready_future(5).then(
            lambda f: make_ready_future(f.get() + 5))
        assert out.get() == 10


class TestWhenAll:
    def test_empty_input_is_ready(self):
        assert when_all([]).get() == []

    def test_all_ready_inputs(self):
        futs = [make_ready_future(i) for i in range(5)]
        got = when_all(futs).get()
        assert [f.get() for f in got] == list(range(5))

    def test_waits_for_pending(self):
        ps = [Promise() for _ in range(3)]
        combined = when_all([p.get_future() for p in ps])
        assert not combined.is_ready()
        for i, p in enumerate(ps):
            p.set_value(i)
        assert [f.get() for f in combined.get()] == [0, 1, 2]

    def test_exceptional_input_does_not_short_circuit(self):
        futs = [make_ready_future(1), make_exceptional_future(ValueError())]
        got = when_all(futs).get()
        assert got[0].get() == 1
        assert got[1].has_exception()


class TestDataflow:
    def test_mixes_futures_and_values(self):
        out = dataflow(lambda a, b, c: a + b + c,
                       make_ready_future(1), 2, make_ready_future(3))
        assert out.get() == 6

    def test_fires_after_all_inputs(self):
        p = Promise()
        out = dataflow(lambda a, b: a * b, p.get_future(), 3)
        assert not out.is_ready()
        p.set_value(14)
        assert out.get() == 42

    def test_input_exception_propagates_without_calling(self):
        called = []

        def fn(a):
            called.append(a)
            return a

        out = dataflow(fn, make_exceptional_future(RuntimeError("x")))
        with pytest.raises(RuntimeError):
            out.get()
        assert called == []

    def test_unwraps_future_result(self):
        out = dataflow(lambda a: make_ready_future(a + 1),
                       make_ready_future(1))
        assert out.get() == 2

    def test_no_future_arguments(self):
        assert dataflow(lambda: "const").get() == "const"


class TestAsyncExecute:
    def test_sync_execution_without_executor(self):
        assert async_execute(lambda x: x * 2, 4).get() == 8

    def test_exception_captured(self):
        out = async_execute(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            out.get()

    def test_with_executor(self):
        ran = []

        def executor(thunk):
            ran.append(True)
            thunk()

        assert async_execute(lambda: 7, executor=executor).get() == 7
        assert ran == [True]
