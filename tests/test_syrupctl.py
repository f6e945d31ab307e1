"""Tests for the syrupctl inspection tool."""

import hashlib
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
    render_stats,
    render_status,
    render_timeline,
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


def test_stats_and_timeline_summarise_a_registry_sketch():
    machine = Machine(set_a(), metrics=True, timeseries=100.0)
    machine.obs.registry.sketch("app", "svc", "lat_us").observe(5.0)
    machine.obs.recorder.sample()
    row = next(line for line in render_stats(machine).splitlines()
               if "lat_us" in line)
    assert "n=1 mean=5.00" in row and "p99=5.00" in row
    assert "app/svc/lat_us.p99" in render_timeline(machine)


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
#: sha256 of each view's stdout at ``--duration-ms 20``: (text, ``--json``).
#: Every view is seeded and repeats byte for byte, so any moved value,
#: row, order or format fails here by name.  Regenerate an entry only
#: for a change meant to move that view, and say why.  ``spans`` moved
#: when ``FifoServer.__len__`` stopped counting the item in service
#: twice: each ``softirq`` span's ``depth`` fell by one, nothing else.
#: ``stats`` and ``timeline`` moved (``--json`` only) when the registry's
#: ``Histogram`` became ``Sketch``: the ``kind`` of the one
#: ``scan_map.op_latency_us`` row went from ``histogram`` to ``sketch``;
#: its values (all 1.0 µs) and both texts held.
VIEW_SHA256 = {
    "stats":
        ("61dfde69578bd4df574c17113291b026847478de433d52438bb398a3ca4b0ade",
         "2147c66b3c63a1c6c6b56ff0d3b9e74a9571c2540fcb80c82205f89c276d0245"),
    "status":
        ("706a8df7517351c2a53b1e4aae8a03098729e49281bcc7fef202865ca4810624",
         "c15ecb3cc04d446a0db19bb09b34c6c4e20df7a1654811db3cc3a49474ed0d1d"),
    "maps":
        ("0fb400e968ff273ceee9c858285cd5194717be7364ffa56bc5f6491cfdf16a4e",
         "d0eb6e3eb3b3365a2cb3f9438ce534210849dc697d6750a12b8175438735665b"),
    "events":
        ("3d2418f01f0775be282d56a2a608002deafbf66178cb6434a9ab9adcee281d4c",
         "f4a8a1e75787f3a63b02c4f7e832216d8c3b6d7abf24cad41de4b801f724d4f2"),
    "timeline":
        ("95bcdad179df5c6082b45bdcd8c83104781c42b81f2708014fb829cdd866d557",
         "fee33cbdc47318930cf62401424dd28df880eaf947e9e1c5832a01d5e8fa10b8"),
    "health":
        ("bbb740a273f8e4eae3971510ac9d502bc9abb5675942ef36687be248de6065cb",
         "297183fa3cdbf0c4d666d15c4fc7146c7915481db2b364f28c63bae7e2f4b482"),
    "spans":
        ("74d40dbb3d5badf3bf5b23a235338e21ac9e5c84b4f99cdec4eb73dafcde50f2",
         "37873f63fa10c685a794697c8e76b3291af42a53630c9a5e742f8c62578c53f1"),
    "tail":
        ("e7b9264534f0cc71f932e4f40c785a4d0faa46ff08d2b82f8147756c8047bfe7",
         "9815897dc46e8c751b79df2936b0af165d16aadefe5ce9e1919996a59dcd6e19"),
    "qdisc":
        ("4275711eccf9994a0f71e1582fb4644cc286d69e7c2d8f10bb93224fee01379f",
         "a9720bf7b39a1fc0b631cfa3dca9fed495af2253bc49aa247b1964023fbc3b6d"),
    "fleet":
        ("69cd2841b3abe017f6e99ce9e9b688a75bae6c9f8ff80a3ff280edc0ed8aab90",
         "d5c7da13f0cfde3cda3b7c2fc3290089f542dc187175072042ea5ec1402dfac4"),
    "slo":
        ("2ef84b8fb1b81506d8405c411e9bca73f96f1d1fd95e10be0b85f2d5faafa3ac",
         "0cdfb2077de6f40321819b4c3af4883e5fb52ee3e5d3d13452910b45228ea21a"),
    "promote":
        ("183521ea0e1f358f055f6439d4e9adb50f08f0d211ccee44bfab39a57cf88fa6",
         "94e81e2c824acdaf1db739f92223ebdb0f65cba1e5773721c75a05f65b4f278f"),
    "tenants":
        ("66f03be87a2bb1a6be375e181812dd297d058395128940f52def8ae01a87d356",
         "1520adf0f8eb1cd5e8f7e88bfa13e957fad283e5e03615e47400fef32fb2e0ff"),
    "cores":
        ("efcc99a81ebc8c2cd9a8b739e34accf3cba1a580b8d7b365432b6208e020e90e",
         "c232308b781a111d8e1fc0c4bfa2457de90c159d6917116bd2dc0085c9bd661f"),
}


@pytest.mark.parametrize("view", list(VIEWS))
def test_every_view_renders_text_and_json_and_is_a_repro_subcommand(
        view, capsys):
    from repro.cli import main as cli_main

    assert main([view, "--duration-ms", "20"]) == 0
    text = capsys.readouterr().out
    assert text.strip()
    assert main([view, "--duration-ms", "20", "--json"]) == 0
    snapshot = capsys.readouterr().out
    json.loads(snapshot)
    assert tuple(hashlib.sha256(out.encode()).hexdigest()
                 for out in (text, snapshot)) == VIEW_SHA256[view]
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
