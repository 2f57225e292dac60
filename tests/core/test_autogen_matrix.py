"""Tests for spec-driven script generation (§8) and campaigns over it."""

import pytest

from repro.core.autogen import MessageFlow, ProtocolSpec, ScriptGenerator, rether_spec
from repro.core.fsl import compile_text, parse_script
from repro.errors import ScenarioError
from repro.sim import ms, seconds
from repro.sweep import SweepSpec, run_script_task, run_sweep

NODE_TABLE = """NODE_TABLE
  node1 02:00:00:00:00:01 192.168.1.1
  node2 02:00:00:00:00:02 192.168.1.2
  node3 02:00:00:00:00:03 192.168.1.3
END"""


def simple_spec(**overrides):
    defaults = dict(
        name="proto",
        messages=[
            MessageFlow(
                name="ping",
                filter_fsl="(12 2 0x0800), (23 1 0x11), (36 2 0x0007)",
                src="node1",
                dst="node2",
            ),
            MessageFlow(
                name="pong",
                filter_fsl="(12 2 0x0800), (23 1 0x11), (34 2 0x0007)",
                src="node2",
                dst="node1",
                droppable=False,
            ),
        ],
        expendable_nodes=["node3"],
        liveness_message="ping",
        recovery_count=3,
    )
    defaults.update(overrides)
    return ProtocolSpec(**defaults)


class TestSpecValidation:
    def test_valid_spec_passes(self):
        simple_spec().validate()

    def test_duplicate_messages_rejected(self):
        spec = simple_spec()
        spec.messages.append(spec.messages[0])
        with pytest.raises(ScenarioError):
            spec.validate()

    def test_empty_spec_rejected(self):
        with pytest.raises(ScenarioError):
            simple_spec(messages=[]).validate()

    def test_unknown_liveness_rejected(self):
        with pytest.raises(ScenarioError):
            simple_spec(liveness_message="ghost").validate()


class TestGeneratedScripts:
    def generator(self, **overrides):
        return ScriptGenerator(simple_spec(**overrides), NODE_TABLE)

    def test_every_generated_script_compiles(self):
        suite = self.generator().generate_suite()
        assert suite  # non-empty
        for name, script in suite.items():
            program = compile_text(script)
            assert program.scenario_name.startswith("proto_"), name

    def test_suite_covers_messages_and_nodes(self):
        suite = self.generator().generate_suite()
        assert "drop_ping" in suite
        assert "drop_pong" not in suite  # undroppable
        assert "delay_pong" in suite and "dup_pong" in suite
        assert "crash_node3" in suite
        assert "baseline" in suite

    def test_drop_scenario_structure(self):
        script = self.generator().drop_scenario("ping")
        program = compile_text(script)
        kinds = {a.kind.value for a in program.actions}
        assert "DROP" in kinds and "STOP" in kinds
        assert program.timeout_ns == 2 * 10**9  # the spec's 2s budget

    def test_undroppable_rejected(self):
        with pytest.raises(ScenarioError):
            self.generator().drop_scenario("pong")

    def test_crash_requires_expendable(self):
        with pytest.raises(ScenarioError):
            self.generator().crash_scenario("node1")

    def test_delay_uses_message_bound(self):
        script = self.generator().delay_scenario("ping")
        program = compile_text(script)
        (delay,) = [a for a in program.actions if a.kind.value == "DELAY"]
        assert delay.delay_ns == 50 * 10**6  # the flow's 50 ms default

    def test_scripts_are_reviewable_text(self):
        """Generation produces the same artifact a human writes: it must

        re-parse, and carry the NODE_TABLE verbatim.
        """
        script = self.generator().baseline()
        ast = parse_script(script)
        assert [n.name for n in ast.nodes] == ["node1", "node2", "node3"]


class TestRetherSpec:
    def test_expendable_excludes_rt_carriers(self):
        spec = rether_spec(
            ["node1", "node2", "node3", "node4"], [("node1", "node4")]
        )
        assert spec.expendable_nodes == ["node2", "node3"]

    def test_needs_three_members(self):
        with pytest.raises(ScenarioError):
            rether_spec(["node1", "node2"], [("node1", "node2")])


class TestGeneratedCampaign:
    """Generated scripts as a ``run_sweep`` campaign (what
    ``examples/generated_fault_matrix.py`` does with the Rether spec)."""

    def campaign(self, scripts, **params):
        spec = SweepSpec("generated", base_seed=3)
        for name, script in scripts.items():
            spec.add(
                name,
                run_script_task,
                script=script,
                seed=3,
                workload={
                    "kind": "udp_probes",
                    "receiver": "node2",
                    "bytes": 20,
                    "interval_ns": ms(2),
                    "count": 400,
                },
                **params,
            )
        return spec

    def test_every_generated_script_runs_on_a_fresh_testbed(self):
        """A crashed node stays dead on a reused testbed; a baseline cell
        passing right after the crash cell shows nothing leaked."""
        generator = ScriptGenerator(simple_spec(), NODE_TABLE)
        scripts = {
            "crash_node3": generator.crash_scenario("node3"),
            "baseline": generator.baseline(),
            "drop_ping": generator.drop_scenario("ping"),
        }
        outcome = run_sweep(
            self.campaign(scripts, max_time_ns=seconds(20)), backend="serial"
        )
        assert [row.name for row in outcome.rows] == list(scripts)
        assert outcome.passed, outcome.render()
        assert "ALL OK" in outcome.render() and "baseline" in outcome.render()

    def test_a_failing_cell_is_reported_not_raised(self):
        generator = ScriptGenerator(simple_spec(), NODE_TABLE)
        scripts = {
            # Demand an impossible count: the scenario cannot STOP.
            "impossible": generator.baseline().replace(
                "((Live = 3)) >> STOP;", "((Live = 999999)) >> STOP;"
            ),
            "baseline": generator.baseline(),
        }
        spec = self.campaign(scripts, max_time_ns=ms(300))
        outcome = run_sweep(spec, backend="serial", fail_fast=True)
        assert [row.name for row in outcome.rows] == ["impossible"]
        assert outcome.aborted and not outcome.passed
        assert outcome.failures == outcome.rows
