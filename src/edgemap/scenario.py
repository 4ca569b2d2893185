"""Declarative scenario files for the simulated network.

Line-oriented format, shell-style tokenization, '#' comments:

    host <ip> [arp=on|off] [icmp=on|off] [rtt=<dur>] [jitter=<dur>]
              [mac=aa:bb:cc:dd:ee:ff] [port=<n>[:<banner>]]...
              [filtered=<n>[,<n>...]] [modbus=<vendor>,<product>,<revision>]

    at <time> remove-host <ip>
    at <time> add-host <ip> [host keys...]
    at <time> open-port <ip> <port> [banner=<text>]
    at <time> close-port <ip> <port>
    at <time> set-latency <ip> <factor>
    at <time> set-icmp <ip> on|off
    at <time> set-arp <ip> on|off

`host` lines declare the network at time zero; `at` lines are timed
actions with non-decreasing times.  Durations use unit suffixes
(us/ms/s/min).  Banners may be double-quoted and use \\r \\n \\t \\\\
escapes.  One canonical file per evaluated attack scenario ships in
scenarios/.
"""

from __future__ import annotations

import codecs
import ipaddress
import shlex
from dataclasses import dataclass

from .errors import MalformedScript
from .simnet import (AddHost, ClosePort, OpenPort, RemoveHost, SetArp,
                     SetIcmpEcho, SetLatencyFactor, SimHostSpec, SimNetwork,
                     SimScript)
from .timebase import parse_duration


@dataclass(frozen=True)
class Scenario:
    hosts: tuple
    script: SimScript

    def build(self, seed: int = 0) -> SimNetwork:
        return SimNetwork(self.hosts, self.script, seed=seed)


def _unescape(text: str) -> bytes:
    return codecs.decode(text, "unicode_escape").encode("latin-1")


def _parse_bool(value: str, where: str) -> bool:
    if value in ("on", "true", "1"):
        return True
    if value in ("off", "false", "0"):
        return False
    raise MalformedScript(f"{where}: expected on/off, got {value!r}")


def _parse_addr(value: str, where: str):
    try:
        return ipaddress.IPv4Address(value)
    except ipaddress.AddressValueError as exc:
        raise MalformedScript(f"{where}: bad IPv4 address {value!r}") from exc


def _parse_host_spec(addr_token: str, kv_tokens, where: str) -> SimHostSpec:
    address = _parse_addr(addr_token, where)
    kwargs = {"address": address}
    open_ports = {}
    filtered = set()
    for token in kv_tokens:
        if "=" not in token:
            raise MalformedScript(f"{where}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        try:
            if key == "arp":
                kwargs["arp_enabled"] = _parse_bool(value, where)
            elif key == "icmp":
                kwargs["icmp_echo_enabled"] = _parse_bool(value, where)
            elif key == "rtt":
                kwargs["base_rtt"] = parse_duration(value)
            elif key == "jitter":
                kwargs["rtt_jitter"] = parse_duration(value)
            elif key == "mac":
                kwargs["mac"] = bytes(int(b, 16) for b in value.split(":"))
            elif key == "port":
                port_text, _, banner_text = value.partition(":")
                open_ports[int(port_text)] = _unescape(banner_text) if banner_text else None
            elif key == "filtered":
                filtered.update(int(p) for p in value.split(",") if p)
            elif key == "modbus":
                vendor, product, revision = value.split(",")
                kwargs["modbus_identity"] = {0: vendor, 1: product, 2: revision}
            else:
                raise MalformedScript(f"{where}: unknown host key {key!r}")
        except (ValueError, MalformedScript) as exc:
            if isinstance(exc, MalformedScript):
                raise
            raise MalformedScript(f"{where}: bad value for {key!r}: {exc}") from exc
    kwargs["open_ports"] = open_ports
    kwargs["filtered_ports"] = frozenset(filtered)
    try:
        return SimHostSpec(**kwargs)
    except ValueError as exc:
        raise MalformedScript(f"{where}: {exc}") from exc


def _parse_action(at: int, verb: str, args, where: str):
    def need(n):
        if len(args) < n:
            raise MalformedScript(f"{where}: {verb} needs at least {n} argument(s)")

    if verb == "remove-host":
        need(1)
        return RemoveHost(at, _parse_addr(args[0], where))
    if verb == "add-host":
        need(1)
        return AddHost(at, _parse_host_spec(args[0], args[1:], where))
    if verb == "open-port":
        need(2)
        banner = None
        for token in args[2:]:
            key, _, value = token.partition("=")
            if key != "banner":
                raise MalformedScript(f"{where}: unknown open-port key {key!r}")
            banner = _unescape(value)
        return OpenPort(at, _parse_addr(args[0], where), int(args[1]), banner)
    if verb == "close-port":
        need(2)
        return ClosePort(at, _parse_addr(args[0], where), int(args[1]))
    if verb == "set-latency":
        need(2)
        return SetLatencyFactor(at, _parse_addr(args[0], where), float(args[1]))
    if verb == "set-icmp":
        need(2)
        return SetIcmpEcho(at, _parse_addr(args[0], where), _parse_bool(args[1], where))
    if verb == "set-arp":
        need(2)
        return SetArp(at, _parse_addr(args[0], where), _parse_bool(args[1], where))
    raise MalformedScript(f"{where}: unknown action {verb!r}")


def loads(text: str) -> Scenario:
    hosts = []
    actions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        try:
            tokens = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise MalformedScript(f"{where}: {exc}") from exc
        if not tokens:
            continue
        if tokens[0] == "host":
            if len(tokens) < 2:
                raise MalformedScript(f"{where}: host line needs an address")
            hosts.append(_parse_host_spec(tokens[1], tokens[2:], where))
        elif tokens[0] == "at":
            if len(tokens) < 3:
                raise MalformedScript(f"{where}: at line needs a time and an action")
            try:
                at = parse_duration(tokens[1])
            except ValueError as exc:
                raise MalformedScript(f"{where}: {exc}") from exc
            actions.append(_parse_action(at, tokens[2], tokens[3:], where))
        else:
            raise MalformedScript(f"{where}: unknown directive {tokens[0]!r}")
    seen = set()
    for spec in hosts:
        if spec.address in seen:
            raise MalformedScript(f"duplicate host {spec.address}")
        seen.add(spec.address)
    return Scenario(tuple(hosts), SimScript(tuple(actions)))


def load(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedScript(f"cannot read scenario {path}: {exc}") from exc
    return loads(text)
