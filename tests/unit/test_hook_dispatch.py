"""Per-callback hook dispatch, under the oblivious and the adaptive runner.

A hook subscribes to a :class:`StepHook` callback by overriding it: at run
start the step loop both runners share keeps, per callback, only the hooks
whose method is not the no-op default.  These tests pin which methods are called, that timing
wrappers (``__wrapped__``) do not count as overrides, that instance
attributes and duck-typed hooks do, and that pruning keeps the decision
precedence and the failure notes of the unpruned dispatch.
"""

import pytest

from repro.errors import ProtocolViolationError
from repro.memory.register import AtomicRegister
from repro.runtime.adaptive import ShortestFirstAdversary, run_adaptive_programs
from repro.runtime.hooks import (
    CRASH,
    HOOK_STAGES,
    SKIP,
    InterceptedResult,
    StepHook,
    hook_methods,
)
from repro.runtime.monitors import WaitFreedomWatchdog
from repro.runtime.operations import Read, Write
from repro.runtime.rng import SeedTree
from repro.runtime.scheduler import RoundRobinSchedule
from repro.runtime.simulator import run_programs

N = 3


def write_then_read(register):
    def program(ctx):
        yield Write(register, ctx.pid)
        value = yield Read(register)
        return value

    return program


def run_oblivious(hooks):
    register = AtomicRegister("r")
    return run_programs([write_then_read(register)] * N, RoundRobinSchedule(N),
                        SeedTree(0), hooks=hooks)


def run_adaptive(hooks):
    register = AtomicRegister("r")
    return run_adaptive_programs([write_then_read(register)] * N,
                                 ShortestFirstAdversary(), SeedTree(0),
                                 hooks=hooks)


@pytest.fixture(params=[run_oblivious, run_adaptive],
                ids=["oblivious", "adaptive"])
def run(request):
    return request.param


class Log:
    """Shared call log: (hook label, stage) per call."""

    def __init__(self):
        self.calls = []

    def stages(self, label):
        return {stage for who, stage in self.calls if who == label}


class Observer(StepHook):
    """Overrides after_step and on_finish only."""

    def __init__(self, log, label="observer"):
        self.log, self.label = log, label

    def after_step(self, pid, step_index, operation, result):
        self.log.calls.append((self.label, "after_step"))

    def on_finish(self, pid, output):
        self.log.calls.append((self.label, "on_finish"))


class Gate(StepHook):
    """Overrides before_step, on_run_start and on_run_end only."""

    def __init__(self, log):
        self.log = log

    def on_run_start(self, simulator):
        self.log.calls.append(("gate", "on_run_start"))

    def before_step(self, pid, process_steps, global_steps, operation):
        self.log.calls.append(("gate", "before_step"))
        return None

    def on_run_end(self, result):
        self.log.calls.append(("gate", "on_run_end"))


class Passer(StepHook):
    """Overrides intercept only, and never replaces a result."""

    def __init__(self, log):
        self.log = log

    def intercept(self, pid, operation):
        self.log.calls.append(("passer", "intercept"))
        return None


@pytest.fixture
def counted_defaults(monkeypatch):
    """Count every call that reaches a StepHook default.

    The counting wrappers set ``__wrapped__``, as timing wrappers do, so
    they are still recognised as the defaults and must never be called.
    """
    calls = {stage: 0 for stage in HOOK_STAGES}
    for stage in HOOK_STAGES:
        default = getattr(StepHook, stage)

        def wrapper(*args, _stage=stage, _default=default):
            calls[_stage] += 1
            return _default(*args)

        wrapper.__wrapped__ = default
        monkeypatch.setattr(StepHook, stage, wrapper)
    return calls


def wrap_every_stage(cls):
    """A subclass of ``cls`` whose every callback, inherited or not, is a
    ``__wrapped__``-carrying wrapper, as the per-layer tracer installs."""
    wrapped = type("Wrapped" + cls.__name__, (cls,), {})
    for stage in HOOK_STAGES:
        method = getattr(wrapped, stage)

        def wrapper(*args, _method=method):
            return _method(*args)

        wrapper.__wrapped__ = method
        setattr(wrapped, stage, wrapper)
    return wrapped


class TestHookMethods:
    def test_lists_hold_only_overriding_hooks_in_order(self):
        log = Log()
        first, gate, passer, second = (Observer(log), Gate(log), Passer(log),
                                       Observer(log, "second"))
        hooks = [first, gate, passer, second]
        subscribed = {stage: hook_methods(hooks, stage) for stage in HOOK_STAGES}
        assert subscribed == {
            "on_run_start": [gate.on_run_start],
            "before_step": [gate.before_step],
            "intercept": [passer.intercept],
            "after_step": [first.after_step, second.after_step],
            "on_skip": [],
            "on_crash": [],
            "on_finish": [first.on_finish, second.on_finish],
            "on_run_end": [gate.on_run_end],
        }

    def test_pass_through_hook_subscribes_to_nothing(self):
        assert all(hook_methods([StepHook()], stage) == []
                   for stage in HOOK_STAGES)

    def test_wrapped_class_prunes_like_the_unwrapped_class(self):
        log = Log()
        for cls in (Observer, Gate, Passer):
            plain, wrapped = cls(log), wrap_every_stage(cls)(log)
            for stage in HOOK_STAGES:
                assert (len(hook_methods([wrapped], stage))
                        == len(hook_methods([plain], stage))), (cls, stage)

    def test_instance_attribute_counts_as_an_override(self):
        hook = StepHook()
        hook.after_step = lambda *args: None
        assert hook_methods([hook], "after_step") == [hook.after_step]
        assert hook_methods([hook], "before_step") == []

    def test_duck_typed_hook_keeps_every_method_it_defines(self):
        class Duck:
            def after_step(self, pid, step_index, operation, result):
                pass

        duck = Duck()
        assert hook_methods([duck], "after_step") == [duck.after_step]
        assert hook_methods([duck], "before_step") == []


class TestDispatch:
    def test_each_hook_gets_only_what_it_overrides(self, run, counted_defaults):
        log = Log()
        result = run([Observer(log), Gate(log), Passer(log)])
        assert result.completed
        assert log.stages("observer") == {"after_step", "on_finish"}
        assert log.stages("gate") == {"on_run_start", "before_step",
                                      "on_run_end"}
        assert log.stages("passer") == {"intercept"}
        steps = result.total_steps
        assert log.calls.count(("observer", "after_step")) == steps
        assert log.calls.count(("gate", "before_step")) == steps
        assert log.calls.count(("passer", "intercept")) == steps
        assert log.calls.count(("observer", "on_finish")) == N
        assert log.calls.count(("gate", "on_run_start")) == 1
        assert sum(counted_defaults.values()) == 0

    def test_wrapped_hooks_call_only_their_overrides(self, run, counted_defaults):
        log = Log()
        hooks = [wrap_every_stage(cls)(log) for cls in (Observer, Gate, Passer)]
        run(hooks)
        assert log.stages("observer") == {"after_step", "on_finish"}
        assert log.stages("gate") == {"on_run_start", "before_step",
                                      "on_run_end"}
        assert log.stages("passer") == {"intercept"}
        assert sum(counted_defaults.values()) == 0

    def test_instance_assigned_after_step_is_called(self, run):
        seen = []
        hook = StepHook()
        hook.after_step = lambda pid, step, operation, result: seen.append(step)
        result = run([hook])
        assert seen == list(range(result.total_steps))

    def test_duck_typed_hook_is_called(self, run):
        class Duck:
            def __init__(self):
                self.steps = 0
                self.ended = None

            def after_step(self, pid, step_index, operation, result):
                self.steps += 1

            def on_run_end(self, result):
                self.ended = result

        duck = Duck()
        result = run([duck])
        assert duck.steps == result.total_steps
        assert duck.ended is result

    def test_hooks_built_once_per_run(self, run):
        """A method replaced after the run starts is not picked up."""
        seen = []

        class Rebinding(StepHook):
            def on_run_start(self, simulator):
                self.after_step = lambda *args: seen.append("late")

        run([Rebinding()])
        assert seen == []


class Decider(StepHook):
    """Returns ``decision`` for every slot of pid 0."""

    def __init__(self, decision):
        self.decision = decision

    def before_step(self, pid, process_steps, global_steps, operation):
        return self.decision if pid == 0 else None


class SkipLog(StepHook):
    def __init__(self):
        self.skips = []

    def on_skip(self, pid, global_steps):
        self.skips.append(pid)


class TestPrecedence:
    @pytest.mark.parametrize("order", ["crash-first", "skip-first"])
    def test_crash_beats_skip_in_either_order(self, run, order):
        deciders = [Decider(CRASH), Decider(SKIP)]
        if order == "skip-first":
            deciders.reverse()
        skips = SkipLog()
        result = run(deciders + [skips])
        assert result.crashed == frozenset({0})
        assert skips.skips == []
        assert result.steps_by_pid[0] == 0
        assert sorted(result.outputs) == [1, 2]

    def test_first_intercept_wins(self, run):
        consulted = []

        class Replacer(StepHook):
            def __init__(self, label):
                self.label = label

            def intercept(self, pid, operation):
                consulted.append(self.label)
                if isinstance(operation, Read):
                    return InterceptedResult(self.label)
                return None

        result = run([Replacer("first"), Replacer("second")])
        assert set(result.outputs.values()) == {"first"}
        # Each process writes once and reads once.  Writes pass through
        # both hooks; every read stops at the first.
        assert consulted.count("first") == 2 * N
        assert consulted.count("second") == N


class TestFailureNotes:
    def test_strict_monitor_in_after_step_is_named(self, run):
        watchdog = WaitFreedomWatchdog(step_budget=1, strict=True)
        with pytest.raises(ProtocolViolationError) as info:
            run([StepHook(), watchdog])
        notes = "".join(info.value.__notes__)
        assert "in WaitFreedomWatchdog.after_step" in notes
        assert "pid=0" in notes
        # Round robin and shortest-first both give pid 0 its second step
        # at global step 3.
        assert "global step=3" in notes

    def test_instance_assigned_method_names_its_hook(self, run):
        class Named(StepHook):
            pass

        def explode(pid, step_index, operation, result):
            raise RuntimeError("assigned hook died")

        hook = Named()
        hook.after_step = explode
        with pytest.raises(RuntimeError, match="assigned hook died") as info:
            run([hook])
        assert "in Named.after_step, pid=0, global step=0" in "".join(
            info.value.__notes__)
