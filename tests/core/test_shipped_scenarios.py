"""Tests that the shipped scenarios/*.fsl files stay in sync and usable."""

import pathlib

import pytest

from repro.cli import main as cli_main
from repro.core.fsl import compile_text
from repro.core.lint import Severity, lint_text
from repro.core.testbed import Testbed
from repro.scripts import (
    canonical_node_table,
    rether_crash_restart_script,
    rether_failover_script,
    tcp_congestion_script,
)

SCENARIOS_DIR = pathlib.Path(__file__).resolve().parents[2] / "scenarios"


def write_standard_scripts(directory) -> list:
    """Materialise the paper's scripts as standalone ``.fsl`` files.

    The repository ships the output under ``scenarios/`` for use with the
    ``python -m repro`` CLI; call this with that directory to regenerate
    them after editing the templates in ``repro.scripts``.  Returns the
    written paths.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "fig5_tcp_congestion.fsl": tcp_congestion_script(canonical_node_table(2)),
        "fig6_rether_failover.fsl": rether_failover_script(canonical_node_table(4)),
        "fig6_crash_restart.fsl": rether_crash_restart_script(canonical_node_table(4)),
    }
    written = []
    for name, content in files.items():
        path = directory / name
        path.write_text(content)
        written.append(path)
    return written


class TestShippedFiles:
    def test_directory_populated(self):
        assert (SCENARIOS_DIR / "fig5_tcp_congestion.fsl").exists()
        assert (SCENARIOS_DIR / "fig6_rether_failover.fsl").exists()
        assert (SCENARIOS_DIR / "fig6_crash_restart.fsl").exists()

    def test_files_match_templates(self):
        """The checked-in files are exactly what the templates generate —

        regenerate with write_standard_scripts() above after edits.
        """
        fig5 = (SCENARIOS_DIR / "fig5_tcp_congestion.fsl").read_text()
        assert fig5 == tcp_congestion_script(canonical_node_table(2))
        fig6 = (SCENARIOS_DIR / "fig6_rether_failover.fsl").read_text()
        assert fig6 == rether_failover_script(canonical_node_table(4))
        crash = (SCENARIOS_DIR / "fig6_crash_restart.fsl").read_text()
        assert crash == rether_crash_restart_script(canonical_node_table(4))

    def test_files_compile_and_lint_clean(self):
        for path in SCENARIOS_DIR.glob("*.fsl"):
            text = path.read_text()
            compile_text(text)
            lint_text(text, fail_on=Severity.WARNING)

    def test_cli_accepts_shipped_files(self):
        import io

        for path in SCENARIOS_DIR.glob("*.fsl"):
            out = io.StringIO()
            assert cli_main(["check", str(path)], out=out) == 0

    def test_canonical_table_matches_default_testbed(self):
        """The embedded addresses are exactly what a default Testbed

        assigns to hosts node1..nodeN added in order.
        """
        tb = Testbed()
        for index in range(1, 5):
            tb.add_host(f"node{index}")
        assert tb.node_table_fsl() == canonical_node_table(4)

    def test_write_regenerates(self, tmp_path):
        written = write_standard_scripts(tmp_path)
        assert len(written) == 3
        for path in written:
            compile_text(path.read_text())
