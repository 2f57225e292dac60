"""Tests for the sweep spec layer: seeds, grids, compile-once, payloads."""

import enum
import inspect
import re

import pytest

from repro.core import testbed as testbed_module
from repro.core.tables import CompiledProgram
from repro.core.testbed import Testbed
from repro.errors import FslError
from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sweep import (
    SweepError,
    SweepSpec,
    derive_seed,
    fig7_point_task,
    fig8_point_task,
    run_script_task,
    sleep_task,
    tcp_variant_task,
)
from repro.sweep import campaigns
from repro.sweep.spec import SweepResult, coerce_jsonable


def _noop_task(task):
    return {}


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_pinned_values(self):
        """The mix is part of the reproducibility contract: changing it
        silently re-seeds every recorded campaign."""
        assert derive_seed(0, 0) == 1054058087
        assert derive_seed(7, 0) == 1711099005
        assert derive_seed(7, 1) == 1077072701

    def test_distinct_per_index_and_base(self):
        seen = {derive_seed(base, i) for base in range(4) for i in range(64)}
        assert len(seen) == 4 * 64

    def test_range(self):
        for i in range(100):
            assert 0 <= derive_seed(123456, i) < 2**31


class TestSpecBuilding:
    def test_tasks_are_ordered_and_seeded(self):
        spec = SweepSpec("s", base_seed=9)
        spec.add("a", _noop_task).add("b", _noop_task)
        tasks = spec.tasks()
        assert [t.index for t in tasks] == [0, 1]
        assert [t.name for t in tasks] == ["a", "b"]
        assert tasks[0].seed == derive_seed(9, 0)
        assert tasks[1].seed == derive_seed(9, 1)

    def test_grid_is_cartesian_insertion_major(self):
        spec = SweepSpec("g")
        spec.add_grid(_noop_task, axes={"x": [1, 2], "y": ["a", "b"]}, fixed=0)
        names = [t.name for t in spec.tasks()]
        assert names == ["x=1,y=a", "x=1,y=b", "x=2,y=a", "x=2,y=b"]
        assert all(t.param("fixed") == 0 for t in spec.tasks())

    def test_lambda_rejected(self):
        spec = SweepSpec("s")
        with pytest.raises(SweepError, match="module-level"):
            spec.add("a", lambda task: {})

    def test_non_callable_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec("s").add("a", 42)


class TestDeclaredParams:
    """A built-in task function declares the params it reads; a key none of
    them reads used to ride along silently (PR 14 removed ``frame_codec=``
    and ``classifier=`` and every spec still passing them kept "working").
    ``capture``, ``audit`` and ``metrics`` became the one ``telemetry``."""

    SCRIPT = tcp_congestion_script(canonical_node_table(2))

    @pytest.mark.parametrize(
        "stale", ["frame_codec", "classifier", "mediun", "capture", "audit", "metrics"]
    )
    def test_unread_param_is_rejected_at_enumeration(self, stale):
        spec = SweepSpec("s")
        with pytest.raises(SweepError) as raised:
            spec.add("cell", run_script_task, script=self.SCRIPT, **{stale: "fast"})
        message = str(raised.value)
        assert repr(stale) in message and "run_script_task" in message
        assert "medium" in message and "workload" in message  # the accepted ones
        assert len(spec.tasks()) == 0  # nothing was enumerated

    def test_grid_axes_and_fixed_params_are_checked_too(self):
        with pytest.raises(SweepError, match="'sleep_ms'"):
            SweepSpec("s").add_grid(sleep_task, axes={"cell": [0, 1]}, sleep_ms=5)
        with pytest.raises(SweepError, match="'seeds'"):
            SweepSpec("s").add_grid(run_script_task, axes={"seeds": [0, 1]}, script=self.SCRIPT)

    def test_script_and_scenario_stand_for_program(self):
        """A cell names its program by its FSL text: ``script`` and
        ``scenario`` are params like any other, declared by the functions
        that compile them."""
        spec = SweepSpec("s").add("cell", run_script_task, script=self.SCRIPT, scenario=None)
        assert spec.tasks()[0].params["script"] is self.SCRIPT
        with pytest.raises(SweepError, match="'script'"):  # sleep_task reads no program
            SweepSpec("s").add("cell", sleep_task, script=self.SCRIPT)
        with pytest.raises(SweepError, match="'program'"):
            SweepSpec("s").add("cell", run_script_task, program=Testbed.compile_cached(self.SCRIPT))

    @pytest.mark.parametrize(
        "fn", [run_script_task, sleep_task, tcp_variant_task, fig7_point_task, fig8_point_task]
    )
    def test_every_param_a_builtin_reads_is_declared(self, fn):
        """The declaration cannot drift below the code: a param the body
        reads but the decorator forgot would be rejected for every caller."""
        read = set(re.findall(r'task\.param\(\s*"(\w+)"', inspect.getsource(fn)))
        assert read and read <= fn.reads_params

    @pytest.mark.parametrize(
        "params, named",
        [
            # a misspelt key used to run the default 64 KiB transfer
            (dict(workload={"kind": "tcp_bulk", "byts": 1024}), "'byts'"),
            (dict(workload={"kind": "tcp_feed", "bytes": 1024}), "'bytes'"),
            (dict(workload={"count": 5}), "'count'"),  # the default kind is tcp_bulk
            (dict(workload={"kind": "udp_flood"}), "'udp_flood'"),
            (dict(workload="tcp_bulk"), "mapping"),
            # a bad cost field used to fail only when its cell ran
            (dict(costs={"engine_base": 5}), "'engine_base'"),
        ],
    )
    def test_nested_workload_and_cost_keys_are_checked_at_enumeration(self, params, named):
        spec = SweepSpec("s")
        with pytest.raises(SweepError, match=named):
            spec.add("cell", run_script_task, script=self.SCRIPT, **params)
        assert len(spec.tasks()) == 0

    def test_every_workload_key_the_task_reads_is_accepted(self):
        spec = SweepSpec("s")
        for workload in (
            {"kind": "tcp_bulk", "bytes": 1, "sender": "node1", "receiver": "node2"},
            {"kind": "tcp_feed", "chunk": 1, "interval_ns": 1},
            {"kind": "udp_probes", "count": 1, "interval_ns": 1, "port": 7, "bytes": 1},
            {"kind": "none"},
            {},
        ):
            spec.add("cell", run_script_task, script=self.SCRIPT, workload=workload)
        spec.add("cell", run_script_task, script=self.SCRIPT, costs={"engine_base_ns": 5})
        assert len(spec.tasks()) == 6

    def test_undeclared_task_functions_stay_free_form(self):
        spec = SweepSpec("s").add("cell", _noop_task, frame_codec="fast", anything=1)
        assert spec.tasks()[0].param("anything") == 1


class TestCompileOnce:
    def test_script_param_becomes_shared_program(self):
        """Two cells naming the same script text compile to the *same*
        object — one parse for the whole campaign, in the parent at
        enumeration — and keep the text itself as their param."""
        script = tcp_congestion_script(canonical_node_table(2))
        spec = SweepSpec("c")
        spec.add("a", _noop_task, script=script)
        spec.add("b", _noop_task, script=script)
        testbed_module._compile_cached.cache_clear()
        tasks = spec.tasks()
        assert testbed_module._compile_cached.cache_info().misses == 1
        assert [task.params["script"] for task in tasks] == [script, script]
        programs = [campaigns._compile(task) for task in tasks]
        assert isinstance(programs[0], CompiledProgram) and programs[0] is programs[1]
        assert testbed_module._compile_cached.cache_info().misses == 1

    def test_program_matches_direct_compile_cache(self):
        script = tcp_congestion_script(canonical_node_table(2))
        spec = SweepSpec("c").add("a", _noop_task, script=script, scenario="TCP_SS_CA_algo")
        assert campaigns._compile(spec.tasks()[0]) is Testbed.compile_cached(
            script, "TCP_SS_CA_algo"
        )

    def test_a_script_that_does_not_compile_fails_at_enumeration(self):
        spec = SweepSpec("c").add("a", _noop_task, script="SCENARIO (")
        with pytest.raises(FslError):
            spec.tasks()

    def test_params_are_handed_over_coerced_or_refused_naming_the_case(self):
        spec = SweepSpec("c").add("a", _noop_task, z=(1, _Colour.RED), a={"y": 0, "x": ()})
        (task,) = spec.tasks()
        assert repr(task.params) == "{'a': {'x': [], 'y': 0}, 'z': [1, 'red']}"
        spec.add("b", _noop_task, knob={"rates": [object()]})
        with pytest.raises(SweepError, match=r"case 'b': params\.knob\.rates\[0\]: "):
            spec.tasks()

    def test_script_and_program_conflict(self):
        """A compiled program is no param at all — not beside its script,
        not alone: it is refused naming its path, on every backend."""
        script = tcp_congestion_script(canonical_node_table(2))
        program = Testbed.compile_cached(script)
        for params in (dict(script=script, program=program), dict(program=program)):
            spec = SweepSpec("c").add("a", _noop_task, **params)
            with pytest.raises(SweepError, match=r"case 'a': params\.program: .*CompiledProgram"):
                spec.tasks()


class _Colour(enum.Enum):
    RED = "red"


class TestCoerceJsonable:
    def test_builtins_pass_through(self):
        value = {"a": [1, 2.5, "x", None, True]}
        assert coerce_jsonable(value) == value

    def test_tuples_and_enums_normalise(self):
        assert coerce_jsonable((1, _Colour.RED)) == [1, "red"]

    def test_enums_and_builtin_subclasses_become_exact_builtins(self):
        class Mode(str, enum.Enum):
            X = "x"

        class Ratio(float):
            pass

        coerced = coerce_jsonable([Mode.X, enum.IntEnum("Level", "HIGH").HIGH, Ratio(0.5)])
        assert coerced == ["x", 1, 0.5]
        assert [type(value) for value in coerced] == [str, int, float]

    def test_non_builtin_rejected_with_path(self):
        with pytest.raises(SweepError, match=r"payload\.a\[1\]"):
            coerce_jsonable({"a": [0, object()]})

    def test_non_string_key_rejected(self):
        with pytest.raises(SweepError, match="non-string"):
            coerce_jsonable({1: "x"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected_with_path(self, value):
        """NaN and the infinities are not JSON: Python would write them as
        bare tokens a strict parser refuses."""
        with pytest.raises(SweepError, match=r"payload\.rtt\[1\]\.ms: non-finite"):
            coerce_jsonable({"rtt": [1.0, {"ms": value}]})


class TestResultSurface:
    def test_canonical_excludes_wall_accounting(self):
        row = SweepResult(
            index=0,
            name="a",
            seed=1,
            status=SweepResult.OK,
            payload={"k": 1},
            error_detail="traceback...",
            attempts=2,
            wall_seconds=1.23,
        )
        canonical = row.canonical()
        assert canonical == {
            "index": 0,
            "name": "a",
            "seed": 1,
            "status": "OK",
            "payload": {"k": 1},
            "error": "",
        }
