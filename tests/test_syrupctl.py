"""Tests for the syrupctl inspection tool."""

import json

import pytest

from repro import Hook, Machine, set_a
from repro.apps.rocksdb import RocksDbServer
from repro.core.maps import PermissionDenied
from repro.policies.builtin import SCAN_AVOID
from repro.syrupctl import (
    VIEWS,
    build_parser,
    dump_map,
    main,
    render_deployments,
    render_maps,
    render_promote,
    render_slo,
    render_status,
    stage_view,
)
from repro.workload.generator import OpenLoopGenerator
from repro.workload.mixes import GET_SCAN_995_005


def finished_view(*argv):
    """Stage a view's scenario through the CLI's own parser, run it."""
    system = stage_view(build_parser().parse_args(argv))
    system.run()
    return system


@pytest.fixture
def busy_machine():
    machine = Machine(set_a(), seed=101)
    app = machine.register_app("rocksdb", ports=[8080])
    server = RocksDbServer(machine, app, 8080, 6, mark_scans=True)
    app.deploy_policy(SCAN_AVOID, Hook.SOCKET_SELECT,
                      constants={"NUM_THREADS": 6})
    gen = OpenLoopGenerator(machine, 8080, 60_000, GET_SCAN_995_005,
                            duration_us=20_000)
    server.response_sink = gen.deliver_response
    gen.start()
    machine.run()
    return machine


def test_render_deployments(busy_machine):
    text = render_deployments(busy_machine)
    assert "rocksdb" in text
    assert "socket_select" in text
    assert "invocations" in text


def test_render_maps_shows_pinned_contents(busy_machine):
    text = render_maps(busy_machine)
    assert "/sys/fs/bpf/syrup/rocksdb/scan_map" in text
    assert "array" in text
    assert "host" in text


def test_dump_map(busy_machine):
    contents = dump_map(busy_machine, "rocksdb", "scan_map")
    assert len(contents) == 64
    assert all(v in (0, 1) for v in contents.values())


def test_dump_map_respects_permissions(busy_machine):
    busy_machine.register_app("snoop", ports=[9999])
    registry = busy_machine.syrupd.registry
    with pytest.raises(PermissionDenied):
        registry.open(registry.pin_path("rocksdb", "scan_map"), "snoop")


def test_render_status_full_picture(busy_machine):
    text = render_status(busy_machine)
    assert "hook sites" in text
    assert "core 0" in text
    assert "drops" in text
    assert "socket_select: ports=[8080]" in text


def test_render_status_idle_machine():
    machine = Machine(set_a(), seed=102)
    text = render_status(machine)
    assert "(none provisioned)" in text
    assert "(none)" in text


def test_render_status_shows_ghost_agent_core():
    machine = Machine(set_a(), seed=103, scheduler="ghost")
    assert "[ghOSt agent]" in render_status(machine)


def test_render_slo_without_objectives(busy_machine):
    assert "no SLO objectives" in render_slo(busy_machine)


def test_slo_demo_renders_objectives_and_signal_footer():
    machine = finished_view("slo", "--duration-ms", "60")
    text = render_slo(machine)
    assert "get_p99" in text and "served" in text
    assert "burn_short" in text and "budget_remaining" in text
    # the signal-bus footer: cadence, tick count, controllers
    assert "signals: interval=" in text
    assert "shed" in text and "srpt_thresh" in text


def test_render_promote_without_attempts(busy_machine):
    assert "(no promotion attempts)" in render_promote(busy_machine)


def test_promote_demo_renders_both_candidates_with_histories():
    machine = finished_view("promote", "--load", "150000",
                            "--duration-ms", "100")
    text = render_promote(machine)
    assert "promotion pipeline" in text
    assert "broken" in text and "good" in text
    # the per-record history timeline and the decision-diff footer
    assert "shadow" in text
    assert "decision diff:" in text
    assert len(machine.syrupd.promotions()) == 2


# ----------------------------------------------------------------------
# Every view, through the single parse -> stage -> run -> print path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("view", list(VIEWS))
def test_every_view_renders_text_and_json_and_is_a_repro_subcommand(
        view, capsys):
    from repro.cli import main as cli_main

    assert main([view, "--duration-ms", "20"]) == 0
    text = capsys.readouterr().out
    assert text.strip()
    assert main([view, "--duration-ms", "20", "--json"]) == 0
    json.loads(capsys.readouterr().out)
    # python -m repro <view> walks the same path and prints the same text
    assert cli_main([view, "--duration-ms", "20"]) == 0
    assert capsys.readouterr().out == text


def test_fleet_view_honours_the_export_flags(tmp_path, capsys):
    # exports read the staged system's own .obs: a Fleet exports like a
    # Machine
    metrics, events = tmp_path / "fleet.om", tmp_path / "fleet.jsonl"
    assert main(["fleet", "--duration-ms", "20", "--openmetrics",
                 str(metrics), "--export-events", str(events)]) == 0
    capsys.readouterr()
    assert metrics.read_text().strip()
    assert events.read_text().strip()
