"""Declarative scenario files for the simulated network.

Line-oriented format, '#' comments:

    host <ip> [arp=on|off] [icmp=on|off] [rtt=<dur>] [jitter=<dur>]
              [port=<n>[:<banner>]]... [filtered=<n>[,<n>...]]

    at <time> remove-host <ip>
    at <time> add-host <ip> [host keys...]
    at <time> open-port <ip> <port> [banner=<text>]
    at <time> close-port <ip> <port>
    at <time> set-latency <ip> <factor>
    at <time> set-icmp <ip> on|off
    at <time> set-arp <ip> on|off

`host` lines declare the network at time zero, wherever they stand; `at`
lines are timed actions with non-decreasing times, each naming a host
present at its time (absent, for add-host).  The load works out the
host's spec after each action, and `SimHostSpec` checks it as it checks a
host line's: ports in 1-65535, a latency factor finite and above zero.
Durations use unit suffixes (us/ms/s/min); on/off also reads true/false,
yes/no or 1/0, in any case.  Banners may be double-quoted and use
\\r \\n \\t \\\\ escapes.  A bad line fails the whole load, naming its
number; a token past an action's arguments and a port given twice on
one line are bad too.  One canonical file per evaluated attack scenario
ships in scenarios/.

A line splits into tokens by POSIX shell word rules with '#' comments;
`edgemap.shellwords` states them.
"""

from __future__ import annotations

import codecs
import ipaddress
from dataclasses import dataclass, replace

from .errors import MalformedScript
from .shellwords import split_line
from .simnet import SimHostSpec, SimNetwork
from .timebase import format_duration, parse_duration


@dataclass(frozen=True)
class Scenario:
    hosts: tuple
    actions: tuple

    def build(self, seed: int = 0) -> SimNetwork:
        return SimNetwork(self.hosts, self.actions, seed=seed)


def _unescape(text: str) -> bytes:
    return codecs.decode(text, "unicode_escape").encode("latin-1")


def parse_bool(value: str) -> bool:
    """The on/off switch of scenario and config files, in any case."""
    lowered = value.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {value!r}")


def _parse_addr(value: str):
    try:
        return ipaddress.IPv4Address(value)
    except ValueError:
        raise ValueError(f"bad IPv4 address {value!r}") from None


def _parse_host_spec(addr_token: str, kv_tokens) -> SimHostSpec:
    kwargs = {"address": _parse_addr(addr_token)}
    open_ports = {}
    filtered = set()
    for token in kv_tokens:
        if "=" not in token:
            raise ValueError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key == "arp":
            kwargs["arp_enabled"] = parse_bool(value)
        elif key == "icmp":
            kwargs["icmp_echo_enabled"] = parse_bool(value)
        elif key == "rtt":
            kwargs["base_rtt"] = parse_duration(value)
        elif key == "jitter":
            kwargs["rtt_jitter"] = parse_duration(value)
        elif key == "port":
            port_text, _, banner_text = value.partition(":")
            port = int(port_text)
            if port in open_ports:
                raise ValueError(f"port {port} given twice")
            open_ports[port] = _unescape(banner_text) if banner_text else None
        elif key == "filtered":
            filtered.update(map(int, filter(None, value.split(","))))
        else:
            raise ValueError(f"unknown host key {key!r}")
    return SimHostSpec(open_ports=open_ports, filtered_ports=frozenset(filtered), **kwargs)


# set-<what> <ip> <value>: the spec field the value replaces, and its parser
_SETTERS = {
    "set-latency": ("latency_factor", float),
    "set-icmp": ("icmp_echo_enabled", parse_bool),
    "set-arp": ("arp_enabled", parse_bool),
}


def _parse_action(verb: str, args):
    """An at line's address and edit: the edit maps the host's spec before
    the action to its spec after it, None standing for an absent host."""
    def need(n, keys=False):
        """n arguments, then key=value tokens if the verb takes `keys`."""
        if len(args) < n:
            raise ValueError(f"{verb} needs at least {n} argument(s)")
        if not keys and len(args) > n:
            raise ValueError(f"{verb} takes {n} argument(s); unexpected {args[n]!r}")

    if verb == "remove-host":
        need(1)
        return _parse_addr(args[0]), lambda spec: None
    if verb == "add-host":
        need(1, keys=True)
        added = _parse_host_spec(args[0], args[1:])
        return added.address, lambda spec: added
    if verb == "open-port":
        need(2, keys=True)
        banner = None
        for token in args[2:]:
            key, _, value = token.partition("=")
            if key != "banner":
                raise ValueError(f"unknown open-port key {key!r}")
            banner = _unescape(value)
        address, port = _parse_addr(args[0]), int(args[1])
        return address, lambda spec: replace(
            spec, open_ports={**spec.open_ports, port: banner},
            filtered_ports=spec.filtered_ports - {port})
    if verb == "close-port":
        need(2)
        address, port = _parse_addr(args[0]), int(args[1])
        return address, lambda spec: replace(
            spec, open_ports={p: b for p, b in spec.open_ports.items() if p != port},
            filtered_ports=spec.filtered_ports - {port})
    if verb in _SETTERS:
        need(2)
        name, parse = _SETTERS[verb]
        address, value = _parse_addr(args[0]), parse(args[1])
        return address, lambda spec: replace(spec, **{name: value})
    raise ValueError(f"unknown action {verb!r}")


def loads(text: str) -> Scenario:
    hosts = {}
    edits = []  # (line number, time, verb, address, edit)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # every bad token, value or line shape is a ValueError named here
        try:
            tokens = split_line(raw)
            if not tokens:
                continue
            if tokens[0] == "host":
                if len(tokens) < 2:
                    raise ValueError("host line needs an address")
                spec = _parse_host_spec(tokens[1], tokens[2:])
                if spec.address in hosts:
                    raise ValueError(f"duplicate host {spec.address}")
                hosts[spec.address] = spec
            elif tokens[0] == "at":
                if len(tokens) < 3:
                    raise ValueError("at line needs a time and an action")
                at = parse_duration(tokens[1])
                edits.append((lineno, at, tokens[2], *_parse_action(tokens[2], tokens[3:])))
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except ValueError as exc:
            raise MalformedScript(f"line {lineno}: {exc}") from exc
    # walked once every line is read: a host line may follow the at lines naming it
    current, last, actions = dict(hosts), 0, []
    for lineno, at, verb, address, edit in edits:
        adding = verb == "add-host"
        if at < last:
            raise MalformedScript(f"line {lineno}: times must be non-decreasing "
                                  f"({format_duration(at)} after {format_duration(last)})")
        before = current.get(address)
        if (before is not None) == adding:
            raise MalformedScript(f"line {lineno}: host {address} is "
                                  f"{'already present' if adding else 'absent'}")
        last = at
        try:
            current[address] = after = edit(before)
        except ValueError as exc:  # the host's spec after the action is invalid
            raise MalformedScript(f"line {lineno}: {exc}") from exc
        actions.append((at, address, after))
    return Scenario(tuple(hosts.values()), tuple(actions))


def load(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedScript(f"cannot read scenario {path}: {exc}") from exc
    return loads(text)
