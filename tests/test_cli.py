import io
import socket
from dataclasses import replace
from unittest.mock import ANY

import pytest

from edgemap import cli
from edgemap.errors import TransportDown
from edgemap.osnet import OsNetwork
from edgemap.simnet import SimNetwork
from edgemap.store import dumps_fingerprint, loads_fingerprint
from edgemap.transport import ProbeReply
from test_golden import SCENARIOS

CONF = """\
address_range = 10.0.0.1-10.0.0.3
port_range = 1-8
ping_delay = 100ms
port_delay = 100ms
ping_timeout = 1s
connect_timeout = 1s
startup_delay_min = 0s
startup_delay_max = 0s
rescan_interval = 60s
seed = 3
"""

BASE_SCN = """\
host 10.0.0.1 port=5:"hello svc\\r\\n"
host 10.0.0.2 icmp=off
"""

CHANGE_SCN = BASE_SCN + "at 30s open-port 10.0.0.1 7\n"


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "net.scn").write_text(BASE_SCN)
    (tmp_path / "change.scn").write_text(CHANGE_SCN)
    (tmp_path / "edge.conf").write_text(CONF)
    return tmp_path


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def common(ws, scn="net.scn", state="state"):
    """The config and backend flags, and the store's unless `state` is None
    (`scan` has no store)."""
    flags = ["--config", str(ws / "edge.conf"), "--backend", f"sim:{ws / scn}"]
    return flags + ["--state-dir", str(ws / state)] if state else flags


class TestBaselineAndMonitor:
    def test_baseline_then_monitor_quiet(self, ws):
        code, text = run(["baseline"] + common(ws))
        assert code == 0
        assert "baseline hosts=2 open_ports=1" in text
        code, _ = run(["monitor", "--epochs", "1"] + common(ws))
        assert code == 0

    def test_baseline_twice_is_exit_2(self, ws):
        assert run(["baseline"] + common(ws))[0] == 0
        assert run(["baseline"] + common(ws))[0] == 2

    def test_rebaseline_replaces(self, ws):
        (ws / "added.scn").write_text(BASE_SCN + "host 10.0.0.3 port=7\n")
        assert run(["baseline"] + common(ws))[0] == 0
        code, text = run(["rebaseline", "--force"] + common(ws, "added.scn"))
        assert code == 0
        assert text.splitlines()[0] == "previous trusted baseline discarded"
        assert "baseline hosts=3 open_ports=2" in text
        (path,) = (ws / "state").glob("*.fp")
        fp = loads_fingerprint(path.read_bytes())
        assert fp.trusted and len(fp.hosts) == 3

    def test_a_failed_rebaseline_keeps_the_old_baseline(self, ws, monkeypatch):
        _baseline(ws)
        (path,) = (ws / "state").glob("*.trusted.fp")
        before = path.read_bytes()
        assert run(["rebaseline", "--force"] + common(ws, "missing.scn")) == (6, "")
        assert path.read_bytes() == before
        assert run(["monitor", "--epochs", "1"] + common(ws))[0] == 0

        def gone(self, target, timeout):
            raise TransportDown("no ICMP socket available")

        monkeypatch.setattr(SimNetwork, "icmp_ping", gone)
        assert run(["rebaseline", "--force"] + common(ws)) == (3, "")
        assert path.read_bytes() == before
        assert not list((ws / "state").glob("*.tmp"))

    def test_rebaseline_without_force_is_usage_error(self, ws):
        with pytest.raises(SystemExit) as excinfo:
            run(["rebaseline"] + common(ws))
        assert excinfo.value.code == 2

    def test_monitor_without_baseline_is_exit_4(self, ws):
        assert run(["monitor", "--epochs", "1"] + common(ws))[0] == 4

    def test_syn_monitor_has_no_connect_scan_baseline(self, ws):
        # a SYN scan reads no banners: held against a connect-scan baseline,
        # every banner would read as changed
        (ws / "added.scn").write_text(BASE_SCN + "host 10.0.0.3 port=7\n")
        _baseline(ws)
        log = ws / "events.log"
        code, _ = run(["monitor", "--syn", "--epochs", "1", "--sink", f"file:{log}"]
                      + common(ws, "added.scn"))
        assert code == 4
        assert not log.exists()

    def test_syn_on_os_backend_is_refused_before_any_probe(self, ws, monkeypatch):
        # with no host answering, a late refusal would never come at all
        probes = []
        monkeypatch.setattr(OsNetwork, "icmp_ping",
                            lambda self, target, timeout: probes.append(target) or ProbeReply(False))
        for command in ("baseline", "scan", "monitor"):
            store = [] if command == "scan" else ["--state-dir", str(ws / "state")]
            code, _ = run([command, "--syn", "--backend", "os", "--range", "192.0.2.1-192.0.2.3",
                           *store])
            assert code == 2, command
        assert probes == []
        assert not list((ws / "state").glob("*.trusted.fp"))


class TestScan:
    def test_scan_prints_hosts_and_writes_fingerprint(self, ws):
        out_file = ws / "scan.fp"
        code, text = run(["scan", "--out", str(out_file)] + common(ws, state=None))
        assert code == 0
        assert "host 10.0.0.1 up open=[5]" in text
        assert "host 10.0.0.2 silent open=[]" in text
        fp = loads_fingerprint(out_file.read_bytes())
        assert len(fp.hosts) == 2 and not fp.trusted

    def test_missing_range_is_exit_2(self, ws):
        code, _ = run(["scan", "--backend", f"sim:{ws / 'net.scn'}"])
        assert code == 2

    def test_a_config_key_given_twice_is_refused(self, ws, capsys):
        # the second value would silently win
        conf = ws / "twice.conf"
        conf.write_text(CONF + "port_range = 1-4\n")
        code, text = run(["scan", "--config", str(conf), "--backend", f"sim:{ws / 'net.scn'}"])
        assert (code, text) == (2, "")
        line = len(CONF.splitlines()) + 1
        assert capsys.readouterr().err == \
            f"error: {conf}:{line}: config key 'port_range' given twice\n"

    def test_unknown_config_key_is_exit_2(self, ws):
        (ws / "bad.conf").write_text("warp_speed = 9\n")
        code, _ = run(["scan", "--config", str(ws / "bad.conf"),
                       "--backend", f"sim:{ws / 'net.scn'}"])
        assert code == 2


class TestDiff:
    def fingerprint(self, ws, name, scn, extra=()):
        path = ws / name
        code, _ = run(["scan", "--out", str(path)] + common(ws, scn, state=None) + list(extra))
        assert code == 0
        return path

    def test_identical_files_exit_0(self, ws):
        a = self.fingerprint(ws, "a.fp", "net.scn")
        b = self.fingerprint(ws, "b.fp", "net.scn")
        code, text = run(["diff", str(a), str(b)])
        assert code == 0 and text == ""

    def test_deviations_exit_1_and_print(self, ws):
        (ws / "open7.scn").write_text(BASE_SCN.replace(
            'port=5:"hello svc\\r\\n"', 'port=5:"hello svc\\r\\n" port=7'))
        a = self.fingerprint(ws, "a.fp", "net.scn")
        b = self.fingerprint(ws, "b.fp", "open7.scn")
        code, text = run(["diff", str(a), str(b)])
        assert code == 1
        assert "PortOpened 10.0.0.1 port 7" in text
        code, text = run(["diff", str(a), str(b), "--format", "lines"])
        assert code == 1
        assert "kind=PortOpened addr=10.0.0.1 port=7" in text

    def test_tampered_file_exit_5(self, ws):
        a = self.fingerprint(ws, "a.fp", "net.scn")
        (ws / "b.fp").write_bytes(a.read_bytes().replace(b"port 5 open",
                                                         b"port 5 close"))
        code, _ = run(["diff", str(a), str(ws / "b.fp")])
        assert code == 5  # checksum no longer matches

    def test_mismatched_configs_exit_5(self, ws):
        a = self.fingerprint(ws, "a.fp", "net.scn")
        b = self.fingerprint(ws, "b16.fp", "net.scn", extra=["--ports", "1-16"])
        code, _ = run(["diff", str(a), str(b)])
        assert code == 5

    def test_corrupt_file_exit_5(self, ws):
        a = self.fingerprint(ws, "a.fp", "net.scn")
        (ws / "junk.fp").write_bytes(b"not a fingerprint\n")
        assert run(["diff", str(a), str(ws / "junk.fp")])[0] == 5

    def test_syn_and_connect_scans_are_incomparable(self, ws):
        a = self.fingerprint(ws, "a.fp", "net.scn")
        b = self.fingerprint(ws, "syn.fp", "net.scn", extra=["--syn"])
        assert run(["diff", str(a), str(b)]) == (5, "")

    def test_a_thresholds_only_config_sets_the_latency_rule(self, ws, capsys):
        (ws / "slow.scn").write_text(BASE_SCN.replace("10.0.0.1 ", "10.0.0.1 rtt=2ms "))
        a = self.fingerprint(ws, "a.fp", "net.scn")
        b = self.fingerprint(ws, "b.fp", "slow.scn")
        code, text = run(["diff", str(a), str(b)])
        assert code == 1 and text.startswith("LatencyAnomaly 10.0.0.1 ")
        # a fourfold median is under a factor of 5
        (ws / "lenient.conf").write_text("rtt_anomaly_factor = 5.0\n")
        assert run(["diff", str(a), str(b), "--config", str(ws / "lenient.conf")]) == (0, "")
        (ws / "bad.conf").write_text("rtt_anomaly_factor = 0.5\n")
        capsys.readouterr()
        assert run(["diff", str(a), str(b), "--config", str(ws / "bad.conf")]) == (2, "")
        assert capsys.readouterr().err.startswith("error: rtt_anomaly_factor")

    def test_missing_file_exit_5(self, ws):
        a = self.fingerprint(ws, "a.fp", "net.scn")
        assert run(["diff", str(a), str(ws / "nope.fp")])[0] == 5


class TestSimulate:
    def test_quiet_scenario(self, ws):
        code, text = run(["simulate", str(ws / "net.scn"),
                          "--config", str(ws / "edge.conf"),
                          "--epochs", "1", "--rates", "none"])
        assert code == 0
        assert "baseline recorded" in text
        assert text.rstrip().endswith("tags None")

    def test_change_scenario_tags(self, ws):
        code, text = run(["simulate", str(ws / "change.scn"),
                          "--config", str(ws / "edge.conf"),
                          "--epochs", "1", "--rates", "none"])
        assert code == 0
        assert "kind=PortOpened addr=10.0.0.1 port=7" in text
        assert text.rstrip().endswith("tags ServiceChanged")

    def test_tags_are_the_union_over_epochs(self, ws):
        # epoch 1 sees 10.0.0.2 gone; by epoch 2 it is back and port 7 is open
        (ws / "union.scn").write_text(BASE_SCN + "at 30s remove-host 10.0.0.2\n"
                                      "at 100s add-host 10.0.0.2 icmp=off\n"
                                      "at 100s open-port 10.0.0.1 7\n")
        code, text = run(_simulate(ws, "union.scn", "--epochs", "2", "--rates", "none"))
        assert code == 0
        kinds = [line.split(" kind=")[1].split()[0] for line in text.splitlines()
                 if " kind=" in line and "kind=Operational" not in line]
        assert kinds == ["HostRemoved", "PortOpened"]
        assert text.rstrip().endswith("tags NodeRemoved,ServiceChanged")

    def test_rates_table_and_peaks(self, ws):
        code, text = run(["simulate", str(ws / "net.scn"),
                          "--config", str(ws / "edge.conf"), "--epochs", "0"])
        assert code == 0
        lines = text.splitlines()
        assert any(line.startswith("# per-second") for line in lines)
        peak = next(line for line in lines if line.startswith("peak "))
        assert "discovery_pps=" in peak and "tcp_pps=" in peak

    # each pacing flag beats the value scenarios/sim.conf gives it
    @pytest.mark.parametrize("flags, ts", [
        ([], 187425500), (["--rescan-interval", "60s"], 127425500),
        (["--port-delay", "50ms"], 174625500), (["--ping-delay", "200ms"], 191025500)])
    def test_a_pacing_flag_moves_the_first_event(self, flags, ts):
        code, text = run(["simulate", str(SCENARIOS / "02-service-changed.scn"),
                          "--config", str(SCENARIOS / "sim.conf"), "--rates", "none", *flags])
        assert code == 0
        first = next(line for line in text.splitlines() if " epoch=1 " in line)
        assert first.split()[2] == f"ts={ts}"

    def test_malformed_scenario_exit_6(self, ws):
        (ws / "bad.scn").write_text("host not-an-ip\n")
        code, _ = run(["simulate", str(ws / "bad.scn"),
                       "--config", str(ws / "edge.conf")])
        assert code == 6

    def test_repeat_runs_are_byte_identical(self, ws):
        argv = ["simulate", str(ws / "change.scn"),
                "--config", str(ws / "edge.conf"), "--seed", "7", "--epochs", "2"]
        assert run(argv) == run(argv)

    def test_explicit_state_dir_persists(self, ws):
        argv = ["simulate", str(ws / "net.scn"),
                "--config", str(ws / "edge.conf"), "--epochs", "1",
                "--state-dir", str(ws / "simstate")]
        code, first = run(argv)
        assert code == 0 and "baseline recorded" in first
        code, second = run(argv)
        assert code == 0 and "baseline recorded" not in second

    def test_restart_numbers_epochs_on(self, ws):
        argv = ["simulate", str(ws / "change.scn"), "--config", str(ws / "edge.conf"),
                "--epochs", "2", "--rates", "none", "--state-dir", str(ws / "simstate")]
        assert run(argv)[0] == 0
        assert run(argv)[0] == 0
        assert sorted(p.name.split(".")[1] for p in (ws / "simstate").glob("*.fp")) == [
            "epoch000001", "epoch000002", "epoch000003", "epoch000004", "trusted"]


def _baseline(ws):
    assert run(["baseline"] + common(ws))[0] == 0


def _corrupt_baseline(ws):
    _baseline(ws)
    for path in (ws / "state").glob("*.trusted.fp"):
        path.write_bytes(b"not a fingerprint\n")


def _untrusted_baseline(ws):
    # a well-formed record, checksum and all, that says trusted 0
    _baseline(ws)
    for path in (ws / "state").glob("*.trusted.fp"):
        fp = loads_fingerprint(path.read_bytes())
        path.write_bytes(dumps_fingerprint(replace(fp, trusted=False)))


def _plain_file(ws):
    (ws / "plain").write_text("")


def _simulate(ws, scn, *extra):
    return ["simulate", str(ws / scn), "--config", str(ws / "edge.conf"),
            "--epochs", "1", *extra]


def _with_no_probe(ws, monkeypatch, command):
    """The argv of `simulate`, or of `monitor` after a baseline, on the
    change scenario, with every simulated probe failing the test."""
    if command == "monitor":
        _baseline(ws)
        argv = ["monitor", "--epochs", "1"] + common(ws)
    else:
        argv = _simulate(ws, "change.scn", "--state-dir", str(ws / "state"))

    def no_probe(*args, **kwargs):
        raise AssertionError("probe sent")

    for name in ("arp_probe", "icmp_ping", "tcp_connect", "tcp_syn"):
        monkeypatch.setattr(SimNetwork, name, no_probe)
    return argv


def _write(name, text):
    return lambda ws: (ws / name).write_text(text)


# (command, failure) -> exit code; each failure has one code whatever the command.
# The classes above cover the other codes: 2 for an existing baseline or bad
# flags, 4 for no baseline, 5 from diff.
# "plain/..." puts a path under a regular file.
EXIT_CODE_ROWS = [
    ("baseline", "unusable state dir", _plain_file,
     lambda ws: ["baseline"] + common(ws, state="plain/sub"), 3),
    ("rebaseline", "unusable state dir", _plain_file,
     lambda ws: ["rebaseline", "--force"] + common(ws, state="plain/sub"), 3),
    ("monitor", "unusable state dir", _plain_file,
     lambda ws: ["monitor", "--epochs", "1"] + common(ws, state="plain/sub"), 3),
    ("simulate", "unusable state dir", _plain_file,
     lambda ws: _simulate(ws, "net.scn", "--state-dir", str(ws / "plain" / "sub")), 3),
    ("scan", "unwritable out file", _plain_file,
     lambda ws: ["scan", "--out", str(ws / "plain" / "a.fp")] + common(ws, state=None), 3),
    ("monitor", "corrupt trusted baseline", _corrupt_baseline,
     lambda ws: ["monitor", "--epochs", "1"] + common(ws), 5),
    ("monitor", "baseline not marked trusted", _untrusted_baseline,
     lambda ws: ["monitor", "--epochs", "1"] + common(ws), 5),
    ("baseline", "missing scenario", None,
     lambda ws: ["baseline"] + common(ws, "missing.scn"), 6),
    ("rebaseline", "missing scenario", None,
     lambda ws: ["rebaseline", "--force"] + common(ws, "missing.scn"), 6),
    ("scan", "missing scenario", None,
     lambda ws: ["scan"] + common(ws, "missing.scn", state=None), 6),
    ("monitor", "missing scenario", _baseline,
     lambda ws: ["monitor", "--epochs", "1"] + common(ws, "missing.scn"), 6),
    ("simulate", "missing scenario", None,
     lambda ws: _simulate(ws, "missing.scn"), 6),
    ("baseline", "bad action value",
     _write("bad.scn", BASE_SCN + "at 30s close-port 10.0.0.1 abc\n"),
     lambda ws: ["baseline"] + common(ws, "bad.scn"), 6),
    # due after the baseline sweep: refused before it, not when reached
    ("simulate", "action on unknown address",
     _write("bad.scn", BASE_SCN + "at 30s remove-host 10.0.0.9\n"),
     lambda ws: _simulate(ws, "bad.scn"), 6),
    # a spec no probe could use: refused at load, not when the latency is read
    ("simulate", "infinite latency factor",
     _write("bad.scn", BASE_SCN + "at 30s set-latency 10.0.0.1 inf\n"),
     lambda ws: _simulate(ws, "bad.scn"), 6),
    ("scan", "non-boolean config value", _write("bad.conf", CONF + "syn_scan = ture\n"),
     lambda ws: ["scan", "--config", str(ws / "bad.conf"),
                 "--backend", f"sim:{ws / 'net.scn'}"], 2),
    ("scan", "config key given twice", _write("bad.conf", CONF + "port_range = 1-4\n"),
     lambda ws: ["scan", "--config", str(ws / "bad.conf"),
                 "--backend", f"sim:{ws / 'net.scn'}"], 2),
    ("scan", "config line without =", _write("bad.conf", CONF + "syn_scan on\n"),
     lambda ws: ["scan", "--config", str(ws / "bad.conf"),
                 "--backend", f"sim:{ws / 'net.scn'}"], 2),
    ("scan", "unknown backend", None,
     lambda ws: ["scan", "--config", str(ws / "edge.conf"), "--backend", "pcap:eth0"], 2),
    ("simulate", "unknown sink", None, lambda ws: _simulate(ws, "net.scn", "--sink", "syslog"), 2),
    ("scan", "port range with no upper end", None,
     lambda ws: ["scan", "--ports", "1-"] + common(ws, state=None), 2),
    ("simulate", "backend given", None,
     lambda ws: _simulate(ws, "net.scn", "--backend", f"sim:{ws / 'change.scn'}"), 2),
    # a factor no ratio reaches: LatencyAnomaly would be off without a word
    *(("simulate", f"{factor} rtt anomaly factor",
       _write("edge.conf", CONF + f"rtt_anomaly_factor = {factor}\n"),
       lambda ws: _simulate(ws, "change.scn"), 2) for factor in ("nan", "inf")),
    # refused before the baseline sweep or the startup wait
    ("simulate", "negative epoch budget", None,
     lambda ws: _simulate(ws, "net.scn", "--epochs", "-3"), 2),
    ("monitor", "negative epoch budget", _baseline,
     lambda ws: ["monitor", "--epochs", "-1"] + common(ws), 2),
    # every line would fail into sink.reports
    *(("simulate", f"udp sink {spec}", None,
       lambda ws, spec=spec: _simulate(ws, "change.scn", "--sink", spec), 2)
      for spec in ("udp:127.0.0.1:70000", "udp:127.0.0.1:0", "udp:127.0.0.1:-5",
                   "udp::514", "udp:514")),
    # an IPv6 literal, or a dotted quad out of range: the IPv4 socket
    # could send no line to it
    *((command, f"udp sink {spec}", prepare,
       lambda ws, spec=spec, argv=argv: argv(ws) + ["--sink", spec], 2)
      for spec in ("udp:::1:514", "udp:[::1]:514", "udp:10.0.0.300:514")
      for command, prepare, argv in (
          ("simulate", None, lambda ws: _simulate(ws, "change.scn")),
          ("monitor", _baseline, lambda ws: ["monitor", "--epochs", "1"] + common(ws)))),
    # one target in two spellings would get every line twice
    *((command, f"{kind} sink named twice", prepare,
       lambda ws, specs=specs, argv=argv: argv(ws) + [
           arg for spec in specs for arg in ("--sink", spec.format(ws=ws))], 2)
      for kind, specs in (("file", ("file:{ws}/dup.log", "file:{ws}/./dup.log")),
                          ("udp", ("udp:127.0.0.1:514", "udp:127.0.0.1:0514")),
                          ("udp host", ("udp:LocalHost:514", "udp:localhost:514")))
      for command, prepare, argv in (
          ("simulate", None, lambda ws: _simulate(ws, "change.scn")),
          ("monitor", _baseline, lambda ws: ["monitor", "--epochs", "1"] + common(ws)))),
    # an empty path: every line would fail into sink.reports
    ("simulate", "file sink with no path", None,
     lambda ws: _simulate(ws, "change.scn", "--sink", "file:"), 2),
    ("monitor", "file sink with no path", _baseline,
     lambda ws: ["monitor", "--epochs", "1", "--sink", "file:"] + common(ws), 2),
    # a directory, or a path in no directory: every line would fail into sink.reports
    ("simulate", "file sink on a directory", None,
     lambda ws: _simulate(ws, "change.scn", "--sink", f"file:{ws}"), 3),
    ("monitor", "file sink on a directory", _baseline,
     lambda ws: ["monitor", "--epochs", "1", "--sink", f"file:{ws}"] + common(ws), 3),
    ("simulate", "file sink in a missing directory", None,
     lambda ws: _simulate(ws, "change.scn", "--sink", f"file:{ws / 'missing' / 'x.log'}"), 3),
    ("monitor", "file sink in a missing directory", _baseline,
     lambda ws: ["monitor", "--epochs", "1", "--sink", f"file:{ws / 'missing' / 'x.log'}"]
     + common(ws), 3),
    # a line break in the node id would split every event line in two
    ("simulate", "node id with a line break", None,
     lambda ws: _simulate(ws, "change.scn", "--node-id", "edge\nkind=HostRemoved"), 2),
    ("monitor", "node id with a line break", _baseline,
     lambda ws: ["monitor", "--epochs", "1", "--node-id", "a\nb"] + common(ws), 2),
]

# the failures that come after the command has printed its report
LATE_FAILURES = {"unwritable out file"}


@pytest.mark.parametrize(
    "command,failure,prepare,argv,code", EXIT_CODE_ROWS,
    ids=[f"{row[0]}-{row[1].replace(' ', '-')}" for row in EXIT_CODE_ROWS])
def test_exit_code_table(ws, capsys, command, failure, prepare, argv, code):
    if prepare is not None:
        prepare(ws)
    capsys.readouterr()
    assert run(argv(ws)) == (code, ANY if failure in LATE_FAILURES else "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestSinkWiring:
    def test_env_logger_receives_datagrams(self, ws, monkeypatch):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as recv:
            recv.bind(("127.0.0.1", 0))
            recv.settimeout(2.0)
            port = recv.getsockname()[1]
            monkeypatch.setenv(cli.LOGGER_ENV, f"127.0.0.1:{port}")
            code, _ = run(["simulate", str(ws / "change.scn"),
                           "--config", str(ws / "edge.conf"),
                           "--epochs", "1", "--rates", "none"])
            assert code == 0
            data, _ = recv.recvfrom(2048)
        assert b"baseline recorded" in data or b"kind=" in data

    def test_env_logger_with_a_bad_port_is_refused(self, ws, capsys, monkeypatch):
        monkeypatch.setenv(cli.LOGGER_ENV, "127.0.0.1:70000")
        assert run(_simulate(ws, "change.scn")) == (2, "")
        assert capsys.readouterr().err == (
            "error: sink 'udp:127.0.0.1:70000' is not udp:<host>:<port 1-65535>\n")

    def test_file_sink(self, ws):
        log = ws / "events.log"
        code, _ = run(["simulate", str(ws / "change.scn"),
                       "--config", str(ws / "edge.conf"),
                       "--epochs", "1", "--rates", "none",
                       "--sink", f"file:{log}", "--sink", "stdout"])
        assert code == 0
        assert "kind=PortOpened" in log.read_text()

    @pytest.mark.parametrize("path, problem", [
        ("{ws}", " is a directory"),
        ("{ws}/missing/x.log", ": {ws}/missing is not a directory"),
        ("{ws}/edge.conf/x.log", ": {ws}/edge.conf is not a directory")],
        ids=["a-directory", "in-a-missing-directory", "in-a-file"])
    @pytest.mark.parametrize("command", ["simulate", "monitor"])
    def test_an_unusable_file_sink_is_refused_before_any_probe(
            self, ws, capsys, monkeypatch, command, path, problem):
        argv = _with_no_probe(ws, monkeypatch, command)
        before = sorted(ws.rglob("*"))
        capsys.readouterr()
        spec = f"file:{path.format(ws=ws)}"
        assert run(argv + ["--sink", spec]) == (3, "")
        assert capsys.readouterr().err == f"error: sink {spec!r}{problem.format(ws=ws)}\n"
        assert sorted(ws.rglob("*")) == before

    @pytest.mark.parametrize("spec", ["file:{log}", "stdout"])
    def test_repeated_sink_is_refused(self, ws, capsys, spec):
        log = ws / "dup.log"
        sink = spec.format(log=log)
        assert run(_simulate(ws, "change.scn", "--sink", sink, "--sink", sink)) == (2, "")
        assert capsys.readouterr().err == f"error: sink given more than once: {sink}\n"
        assert not log.exists()


    @pytest.mark.parametrize("first, second", [
        ("file:{ws}/dup.log", "file:{ws}/./dup.log"),
        ("file:{ws}/dup.log", "file:{ws}/logs/../dup.log"),
        ("udp:127.0.0.1:514", "udp:127.0.0.1:00514"),
        ("udp:LocalHost:514", "udp:localhost:514"),
    ])
    def test_one_target_in_two_spellings_is_refused(self, ws, capsys, first, second):
        first, second = first.format(ws=ws), second.format(ws=ws)
        (ws / "logs").mkdir()
        before = sorted(ws.rglob("*"))
        assert run(_simulate(ws, "change.scn", "--sink", first, "--sink", second)) == (2, "")
        assert capsys.readouterr().err == (
            f"error: sink {second!r} names the same target as {first!r}\n")
        assert sorted(ws.rglob("*")) == before

    @pytest.mark.parametrize("logger", ["[::1]:514", "::1:514"])
    def test_env_logger_on_an_ipv6_host_is_refused(self, ws, capsys, monkeypatch, logger):
        monkeypatch.setenv(cli.LOGGER_ENV, logger)
        assert run(_simulate(ws, "change.scn")) == (2, "")
        assert capsys.readouterr().err == (
            f"error: sink 'udp:{logger}' names an IPv6 host; UDP sinks send over IPv4 only\n")

    # out of range, or a short form the C library reads as some other address
    @pytest.mark.parametrize("host", ["10.0.0.300", "127.1", "127.0.1"])
    def test_a_udp_host_of_digits_and_dots_must_be_an_ipv4_address(self, ws, capsys, host):
        assert run(_simulate(ws, "change.scn", "--sink", f"udp:{host}:514")) == (2, "")
        assert capsys.readouterr().err == (
            f"error: sink 'udp:{host}:514': {host} is not an IPv4 address\n")


UNPRINTABLE_NODE_IDS = ["edge\nkind=HostRemoved", "a\rb", "a\tb", "a\u2028b", "a\x00b", ""]


@pytest.mark.parametrize("node_id", UNPRINTABLE_NODE_IDS)
@pytest.mark.parametrize("command", ["simulate", "monitor"])
def test_a_node_id_that_is_not_printable_is_refused_before_any_probe(
        ws, capsys, monkeypatch, command, node_id):
    argv = _with_no_probe(ws, monkeypatch, command)
    before = sorted(ws.rglob("*"))
    capsys.readouterr()
    # refused once the outputs are built, which leaves no log file
    assert run(argv + ["--node-id", node_id, "--sink", f"file:{ws / 'events.log'}"]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: --node-id must be nonempty and printable, not {node_id!r}\n")
    assert sorted(ws.rglob("*")) == before


def test_a_printable_node_id_with_spaces_and_quotes_is_quoted(ws):
    code, text = run(_simulate(ws, "change.scn", "--rates", "none",
                               "--node-id", "edge 7 'north' é"))
    events = [line for line in text.splitlines() if line.startswith("node=")]
    assert code == 0 and events
    assert all(line.startswith("node='edge 7 '\"'\"'north'\"'\"' é' epoch=")
               for line in events)


# each flag a command would accept and ignore: scan keeps no store, and
# neither scan nor the baseline commands send events
@pytest.mark.parametrize("command, flag, value", [
    ("scan", "--state-dir", "{ws}/D"), ("scan", "--sink", "file:{ws}/X"),
    ("scan", "--node-id", "n9"),
    ("baseline", "--sink", "file:{ws}/X"), ("baseline", "--node-id", "n9"),
    ("rebaseline", "--sink", "file:{ws}/X"), ("rebaseline", "--node-id", "n9"),
])
def test_a_flag_the_command_does_not_read_is_refused(ws, capsys, command, flag, value):
    before = sorted(ws.rglob("*"))
    argv = [command, *(["--force"] if command == "rebaseline" else []),
            *common(ws, state=None if command == "scan" else "state"),
            flag, value.format(ws=ws)]
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(ws.rglob("*")) == before


def test_simulate_defaults_leave_the_live_commands_alone(ws, monkeypatch, capsys):
    # the scanning commands share their flag sets; simulate's
    # throwaway state dir and scenario backend must not become the defaults
    # of the live commands, which store in ./edgemap-state and probe through
    # the os backend
    monkeypatch.chdir(ws)
    assert run(_simulate(ws, "net.scn"))[0] == 0
    assert not (ws / "edgemap-state").exists()
    assert run(["monitor", "--config", str(ws / "edge.conf")])[0] == 4
    assert (ws / "edgemap-state").is_dir()
    capsys.readouterr()
    # the os backend refuses a SYN scan before the store is opened
    assert run(["monitor", "--config", str(ws / "edge.conf"), "--syn"])[0] == 2
    assert capsys.readouterr().err == (
        "error: the os backend runs unprivileged; SYN scan unavailable\n")
