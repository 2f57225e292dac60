"""Tests for the Testbed facade."""

import pytest

from repro.core import testbed as testbed_module
from repro.core.report import EndReason
from repro.core.testbed import Testbed
from repro.errors import ScenarioError, TopologyError
from repro.scripts import canonical_node_table, tcp_congestion_script
from repro.sim import ms, seconds


class TestConstruction:
    def test_auto_addresses_are_deterministic(self):
        a = Testbed(seed=1)
        b = Testbed(seed=2)  # addresses derive from order, not seed
        for tb in (a, b):
            tb.add_host("x")
            tb.add_host("y")
        assert a.hosts["x"].mac == b.hosts["x"].mac
        assert str(a.hosts["y"].ip) == "192.168.1.2"

    def test_explicit_addresses_respected(self):
        tb = Testbed()
        host = tb.add_host("n", mac="00:46:61:af:fe:23", ip="10.9.8.7")
        assert str(host.mac) == "00:46:61:af:fe:23"
        assert str(host.ip) == "10.9.8.7"

    def test_duplicate_host_rejected(self):
        tb = Testbed()
        tb.add_host("n")
        with pytest.raises(TopologyError):
            tb.add_host("n")

    def test_neighbors_auto_filled(self):
        tb = Testbed()
        a = tb.add_host("a")
        b = tb.add_host("b")
        c = tb.add_host("c")
        assert a.ip_layer.resolve(c.ip) == c.mac
        assert c.ip_layer.resolve(a.ip) == a.mac

    def test_connect_by_name_or_object(self):
        tb = Testbed()
        a = tb.add_host("a")
        b = tb.add_host("b")
        tb.add_switch("sw")
        tb.connect("sw", "a", b)
        assert a.nic.medium is not None

    def test_unknown_host_lookup(self):
        tb = Testbed()
        with pytest.raises(TopologyError):
            tb.host("ghost")


class TestNodeTableEmission:
    def test_all_hosts(self):
        tb = Testbed()
        tb.add_host("node1")
        tb.add_host("node2")
        text = tb.node_table_fsl()
        assert text.startswith("NODE_TABLE")
        assert "node1 02:00:00:00:00:01 192.168.1.1" in text
        assert text.endswith("END")

    def test_subset(self):
        tb = Testbed()
        tb.add_host("node1")
        tb.add_host("node2")
        text = tb.node_table_fsl("node2")
        assert "node1" not in text and "node2" in text


class TestInstallation:
    def test_double_install_rejected(self):
        tb = Testbed()
        tb.add_host("n")
        tb.add_switch("sw")
        tb.connect("sw", "n")
        tb.install_virtualwire()
        with pytest.raises(ScenarioError):
            tb.install_virtualwire()

    def test_install_subset_plus_control(self):
        """VirtualWire on two of three hosts; the third stays untouched."""
        tb = Testbed()
        for name in ("a", "b", "c"):
            tb.add_host(name)
        tb.add_switch("sw")
        tb.connect("sw", "a", "b", "c")
        tb.install_virtualwire(nodes=["a", "b"], control="a")
        assert set(tb.engines) == {"a", "b"}
        assert len(tb.hosts["c"].chain.layers) == 2  # driver + demux only

    def test_dedicated_control_host_gets_engine(self):
        tb = Testbed()
        for name in ("ctrl", "a", "b"):
            tb.add_host(name)
        tb.add_switch("sw")
        tb.connect("sw", "ctrl", "a", "b")
        tb.install_virtualwire(nodes=["a", "b"], control="ctrl")
        assert "ctrl" in tb.engines
        assert tb.frontend.control_engine is tb.engines["ctrl"]

    @staticmethod
    def _fig5_with_dedicated_control(**install):
        """Fig 5 between node1 and node2, driven from a third host."""
        tb = Testbed(seed=11)
        ctl, node1, node2 = (tb.add_host(name) for name in ("ctl", "node1", "node2"))
        tb.add_switch("sw0")
        tb.connect("sw0", ctl, node1, node2)
        tb.install_virtualwire(nodes=["node1", "node2"], control="ctl", **install)

        def workload():
            node2.tcp.listen(0x4000)
            conn = node1.tcp.connect(node2.ip, 0x4000, local_port=0x6000)
            conn.on_established = lambda: conn.send(bytes(48 * 1024))

        script = tcp_congestion_script(tb.node_table_fsl("node1", "node2"))
        return tb, tb.run_scenario(script, workload=workload, max_time=seconds(60))

    def test_dedicated_control_host_gets_the_rll(self):
        """The control host's frames cross the targets' RLL: it needs one too."""
        tb, report = self._fig5_with_dedicated_control(rll=True)
        assert sorted(tb.rll_layers) == ["ctl", "node1", "node2"]
        assert report.passed, report.render()
        assert report.unreachable_nodes == []

    def test_dedicated_control_host_gets_telemetry(self):
        tb, report = self._fig5_with_dedicated_control(telemetry=True)
        assert "tap:ctl" in [layer.name for layer in tb.hosts["ctl"].chain.layers]
        assert sorted(report.metrics) == ["ctl", "node1", "node2"]
        assert report.passed, report.render()

    def test_host_named_twice_rejected_before_any_splice(self):
        tb = Testbed()
        for name in ("node1", "node2"):
            tb.add_host(name)
        with pytest.raises(ScenarioError, match="node1"):
            tb.install_virtualwire(nodes=["node1", tb.hosts["node1"], "node2"])
        assert tb.engines == {} and tb.frontend is None
        for host in tb.hosts.values():
            assert [layer.name for layer in host.chain.layers][1:] == ["demux"]

    def test_rll_spliced_below_engine(self):
        tb = Testbed()
        tb.add_host("n")
        tb.add_switch("sw")
        tb.connect("sw", "n")
        tb.install_virtualwire(rll=True)
        names = [layer.name for layer in tb.hosts["n"].chain.layers]
        assert names.index("rll") < names.index("virtualwire")

    def test_capture_tap_above_engine(self):
        tb = Testbed()
        tb.add_host("n")
        tb.add_switch("sw")
        tb.connect("sw", "n")
        tb.install_virtualwire(telemetry=True)
        names = [layer.name for layer in tb.hosts["n"].chain.layers]
        assert names.index("virtualwire") < names.index("tap:n")
        assert tb.recorder is not None

    def test_telemetry_is_one_switch(self):
        """Taps, audit log and metrics come on together or not at all, so
        no report carries journeys without the faults applied to them."""
        on, off = Testbed(), Testbed()
        for tb in (on, off):
            tb.add_host("n")
        on.install_virtualwire(telemetry=True)
        off.install_virtualwire()
        assert None not in (on.recorder, on.audit_log, on.metrics)
        assert (off.recorder, off.audit_log, off.metrics) == (None, None, None)

    @pytest.mark.parametrize("old", ["capture", "audit", "metrics"])
    def test_old_telemetry_switches_are_gone(self, old):
        tb = Testbed()
        tb.add_host("n")
        with pytest.raises(TypeError):
            tb.install_virtualwire(**{old: True})

    def test_no_hosts_rejected(self):
        tb = Testbed()
        with pytest.raises(ScenarioError):
            tb.install_virtualwire()


class TestScenarioValidation:
    def test_unattached_nic_caught_at_run(self):
        tb = Testbed()
        tb.add_host("node1")  # never connected to a medium
        tb.install_virtualwire()
        script = """
FILTER_TABLE
  p: (12 2 0x0800)
END
""" + tb.node_table_fsl() + """
SCENARIO s
  C: (p, node1, node1, RECV)
END
"""
        with pytest.raises(TopologyError):
            tb.run_scenario(script, max_time=seconds(1))

    def test_run_for_advances_clock(self):
        tb = Testbed()
        tb.sim.run_for(ms(5))
        assert tb.sim.now == ms(5)


def _two_node_vw_testbed():
    tb = Testbed(seed=0)
    node1 = tb.add_host("node1")
    node2 = tb.add_host("node2")
    tb.add_switch("sw0")
    tb.connect("sw0", node1, node2)
    tb.install_virtualwire(control="node1")
    return tb


class TestRunScenarioGuards:
    """The run loop's three exit guards, exercised one by one."""

    def test_max_events_exhaustion_ends_as_max_time(self, monkeypatch):
        """An event budget too small for even the INIT handshake trips the
        runaway guard: the run is force-finished as MAX_TIME."""
        tb = _two_node_vw_testbed()
        script = tcp_congestion_script(tb.node_table_fsl())
        monkeypatch.setattr(testbed_module, "MAX_EVENTS", 3)
        report = tb.run_scenario(script, max_time=seconds(60))
        assert report.end_reason is EndReason.MAX_TIME

    def test_empty_queue_before_start_is_quiesced(self, monkeypatch):
        """If the scheduler drains before the engines ever started, the
        verdict is QUIESCED — the scenario never got going."""
        tb = _two_node_vw_testbed()
        frontend = tb.frontend

        def inert_start(program, on_running=None, inactivity_ns=None):
            frontend.program = program  # accepted, but nothing scheduled

        monkeypatch.setattr(frontend, "start_scenario", inert_start)
        script = tcp_congestion_script(tb.node_table_fsl())
        report = tb.run_scenario(script, max_time=seconds(60))
        assert report.end_reason is EndReason.QUIESCED

    def test_empty_queue_after_start_is_inactivity(self, monkeypatch):
        """The same drained queue *after* START is the limiting case of
        inactivity, not quiescence."""
        tb = _two_node_vw_testbed()
        frontend = tb.frontend

        def started_but_idle(program, on_running=None, inactivity_ns=None):
            frontend.program = program
            frontend.started = True

        monkeypatch.setattr(frontend, "start_scenario", started_but_idle)
        script = tcp_congestion_script(tb.node_table_fsl())
        report = tb.run_scenario(script, max_time=seconds(60))
        assert report.end_reason is EndReason.INACTIVITY


def _parent_run_scenario(tb, script, workload=None, max_time=seconds(60),
                         inactivity_ns=None, max_events=50_000_000):
    """``run_scenario`` as it was before the shared drain loop: peek, step and
    poll once per event through the public one-event API — a workload's
    ``sim.stop()`` cuts the run short instead of that poll.  The reference
    the segmented loop must match, end reason and instant alike."""
    frontend = tb.frontend
    frontend.start_scenario(
        tb.compile_cached(script), on_running=workload, inactivity_ns=inactivity_ns
    )
    deadline = tb.sim.now + max_time
    events_left = max_events
    while not frontend.finished:
        if events_left <= 0:
            frontend.force_finish(EndReason.MAX_TIME)
            break
        upcoming = tb.sim.queue.peek_time()
        if upcoming is None:
            frontend.force_finish(
                EndReason.INACTIVITY if frontend.started else EndReason.QUIESCED
            )
            break
        if upcoming > deadline:
            frontend.force_finish(EndReason.MAX_TIME)
            break
        tb.sim.step()
        events_left -= 1
        if tb.sim._stop_requested and not frontend.finished:
            frontend.force_finish(EndReason.MAX_TIME)
            break
        frontend.poll()
    tb.sim.run_for(seconds(0.01))
    return frontend.build_report()


def _inert_start(frontend, started):
    def start_scenario(program, on_running=None, inactivity_ns=None):
        frontend.program = program  # accepted, but nothing scheduled
        frontend.started = started
        if inactivity_ns is not None:
            frontend.inactivity_ns = inactivity_ns

    return start_scenario


def _run(run, script=None, inert=None, prepare=None, **limits):
    """One scenario under *run* (``Testbed.run_scenario`` or the reference
    loop) on a fresh two-node testbed with a 64 KiB TCP transfer: the end
    reason, ``(reason, sim.now, events_processed)`` at the finish, the final
    ``sim.now`` and ``events_processed``, the counters, the duration, and
    the *hooked* list.  *prepare(tb, hooked)* runs before the scenario and
    may record into *hooked*; *script* maps the node table to FSL.  A
    ``max_events`` limit is the reference loop's argument and
    ``run_scenario``'s module constant ``MAX_EVENTS``."""
    if run is Testbed.run_scenario and "max_events" in limits:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(testbed_module, "MAX_EVENTS", limits.pop("max_events"))
            return _run(run, script, inert, prepare, **limits)
    tb = _two_node_vw_testbed()
    node1, node2 = tb.host("node1"), tb.host("node2")
    finished_at, hooked = [], []
    finish = tb.frontend._finish

    def recording_finish(reason):
        finished_at.append((reason, tb.sim.now, tb.sim.events_processed))
        finish(reason)

    tb.frontend._finish = recording_finish
    if inert is not None:
        tb.frontend.start_scenario = _inert_start(tb.frontend, started=inert is True)
    if inert == "one-event":
        tb.sim.after(ms(1), lambda: None)
    if prepare is not None:
        prepare(tb, hooked)

    def workload():
        node2.tcp.listen(0x4000)
        conn = node1.tcp.connect(node2.ip, 0x4000, local_port=0x6000)
        conn.on_established = lambda: conn.send(bytes(64 * 1024))

    report = run(
        tb, (script or tcp_congestion_script)(tb.node_table_fsl()), workload=workload, **limits
    )
    return (report.end_reason, finished_at[0], tb.sim.now, tb.sim.events_processed,
            report.counters, report.duration_ns, hooked)


def _calibrate(script=None):
    """(START instant, first activity instant, events at the finish) of an
    unlimited reference run: where the idle mark and a segment lie."""
    touches = []

    def prepare(tb, hooked):
        for engine in tb.engines.values():
            engine.activity_hook = lambda tb=tb: (
                touches.append(tb.sim.now), tb.frontend.touch()
            )
        hooked.append(tb)

    outcome = _run(_parent_run_scenario, script=script, prepare=prepare)
    tb = outcome[-1][0]
    return tb.frontend.start_time, touches[0], outcome[1][2]


def stop_on_first(nodes):
    """STOP on the first IPv4 frame node1 sends."""
    return f"""
FILTER_TABLE
  ip: (12 2 0x0800)
END
{nodes}
SCENARIO stop_on_first
  Sent: (ip, node1, node2, SEND)
  ((Sent = 1)) >> STOP;
END
"""


class TestRunScenarioMatchesTheParentLoop:
    """Every exit of the segmented loop — unpolled drains up to the idle
    mark, one polled event past it — lands on the same end reason, at the
    same ``sim.now`` and ``events_processed``, as the per-event
    ``step()`` + ``poll()`` loop it replaced."""

    @pytest.mark.parametrize(
        "limits, inert, expected",
        [
            # event budget: smaller than the INIT handshake, then cut mid-transfer
            (dict(max_events=3), None, EndReason.MAX_TIME),
            (dict(max_events=0), None, EndReason.MAX_TIME),
            (dict(max_events=400), None, EndReason.MAX_TIME),
            # virtual-time deadline in the middle of the transfer
            (dict(max_time=ms(3)), None, EndReason.MAX_TIME),
            # the inactivity timeout, as frontend.poll() sees it after an event
            (dict(inactivity_ns=ms(1)), None, EndReason.INACTIVITY),
            (dict(), None, EndReason.INACTIVITY),
            # the queue drains: before START, and after it
            (dict(), False, EndReason.QUIESCED),
            (dict(), True, EndReason.INACTIVITY),
            # budget and queue run out together: the budget is reported
            (dict(max_events=1), "one-event", EndReason.MAX_TIME),
        ],
    )
    def test_same_end_at_the_same_instant(self, limits, inert, expected):
        ours = _run(Testbed.run_scenario, inert=inert, **limits)
        assert ours == _run(_parent_run_scenario, inert=inert, **limits)
        assert ours[0] is expected

    @pytest.mark.parametrize("crossing", [True, False], ids=["crossing", "inside"])
    def test_stop_on_the_event_that_crosses_the_idle_mark(self, crossing):
        """STOP on the event past the mark, and — the unpolled case — on an
        event inside a segment, where nothing but the finish's
        ``sim.stop()`` ends the drain."""
        start, first_activity, _ = _calibrate(stop_on_first)
        # the mark lies 1 ns before the SYN is classified: that event crosses it
        limits = dict(inactivity_ns=first_activity - start - 1) if crossing else {}
        ours = _run(Testbed.run_scenario, stop_on_first, **limits)
        assert ours == _run(_parent_run_scenario, stop_on_first, **limits)
        assert ours[1][:2] == (EndReason.STOP, first_activity)

    def test_activity_on_the_crossing_event(self):
        start, first_activity, _ = _calibrate()
        limits = dict(inactivity_ns=first_activity - start - 1)
        ours = _run(Testbed.run_scenario, **limits)
        assert ours == _run(_parent_run_scenario, **limits)
        assert ours[1][1] > first_activity  # the touch moved the mark: the run went on

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_event_budget_ends_at_a_segment_boundary(self, offset):
        """The calibrated run ends by inactivity on its last event, the one
        past the mark: a budget of one fewer runs out exactly where the
        unpolled drain to the mark stops."""
        limits = dict(max_events=_calibrate()[2] + offset)
        ours = _run(Testbed.run_scenario, **limits)
        assert ours == _run(_parent_run_scenario, **limits)
        assert ours[0] is (EndReason.MAX_TIME if offset < 0 else EndReason.INACTIVITY)

    @pytest.mark.parametrize(
        "inert, limits",
        [
            (None, dict()),  # mid-transfer, inside a segment
            (True, dict(inactivity_ns=ms(1))),  # on the event past an idle mark
        ],
    )
    def test_workload_stopping_the_simulator(self, inert, limits):
        """A ``sim.stop()`` ends the run as MAX_TIME — and is not polled for
        inactivity first, even on the event that crosses the idle mark."""

        def prepare(tb, hooked):
            tb.sim.after(ms(3), tb.sim.stop)

        ours = _run(Testbed.run_scenario, inert=inert, prepare=prepare, **limits)
        assert ours == _run(_parent_run_scenario, inert=inert, prepare=prepare, **limits)
        assert ours[1][:2] == (EndReason.MAX_TIME, ms(3))

    @pytest.mark.parametrize("limits", [dict(), dict(inactivity_ns=ms(1)), dict(max_events=400)])
    def test_trace_hook_sees_every_event_alike(self, limits):
        def prepare(tb, hooked):
            tb.sim.add_trace_hook(lambda when, seq, label: hooked.append((when, label)))

        ours = _run(Testbed.run_scenario, prepare=prepare, **limits)
        assert ours == _run(_parent_run_scenario, prepare=prepare, **limits)
        assert len(ours[-1]) == ours[3]  # one hook call per event

    @pytest.mark.parametrize("inactivity_ns", [0, 1, 1_000])
    def test_inactivity_shorter_than_one_event_gap(self, inactivity_ns):
        ours = _run(Testbed.run_scenario, inactivity_ns=inactivity_ns)
        assert ours == _run(_parent_run_scenario, inactivity_ns=inactivity_ns)
        assert ours[0] is EndReason.INACTIVITY

    def test_idle_one_nanosecond_past_the_mark(self):
        """The mark itself is not idle, the next nanosecond is: an event there
        ends the run, and the event after it never fires."""

        def prepare(tb, hooked):
            for when in (ms(1), ms(1) + 1, ms(2)):
                tb.sim.after(when, hooked.append, args=(when,))

        ours = _run(Testbed.run_scenario, inert=True, prepare=prepare, inactivity_ns=ms(1))
        assert ours == _run(
            _parent_run_scenario, inert=True, prepare=prepare, inactivity_ns=ms(1)
        )
        assert ours[1] == (EndReason.INACTIVITY, ms(1) + 1, 2)


class TestCompileCache:
    def _unique_script(self, tag: str) -> str:
        return (
            tcp_congestion_script(canonical_node_table(2))
            + f"\n/* cache-buster {tag} */"
        )

    def test_same_text_compiles_once(self):
        script = self._unique_script("same")
        first = Testbed.compile_cached(script)
        assert Testbed.compile_cached(script) is first

    def test_scenario_name_is_part_of_the_key(self):
        script = self._unique_script("scenario-key")
        default = Testbed.compile_cached(script)
        named = Testbed.compile_cached(script, "TCP_SS_CA_algo")
        assert named is not default  # distinct key, even if same scenario
        assert named.scenario_name == default.scenario_name

    def test_run_scenario_uses_the_cache(self):
        script = self._unique_script("run-path")
        program = Testbed.compile_cached(script)
        tb = _two_node_vw_testbed()
        report = tb.run_scenario(
            script, workload=None, max_time=seconds(1), inactivity_ns=ms(50)
        )
        assert report is not None
        # the run compiled nothing new: the cached entry is still the MRU
        assert Testbed.compile_cached(script) is program

    def test_cache_is_bounded_lru(self):
        cache_info = testbed_module._compile_cached.cache_info
        assert cache_info().maxsize == 64
        victim = self._unique_script("victim")
        first = Testbed.compile_cached(victim)
        hits = cache_info().hits
        assert Testbed.compile_cached(victim, None) is first  # one entry
        assert cache_info().hits == hits + 1
        base = cache_info().misses
        for i in range(64):
            Testbed.compile_cached(self._unique_script(f"filler-{base}-{i}"))
        assert cache_info().currsize == 64
        misses = cache_info().misses
        assert Testbed.compile_cached(victim) is not first  # evicted
        assert cache_info().misses == misses + 1
