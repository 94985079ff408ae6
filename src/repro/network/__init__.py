"""Network simulation: wiring switches, links, hosts and control channels.

* :mod:`repro.network.link` — point-to-point links with latency and
  failure injection.
* :mod:`repro.network.channel` — OpenFlow control channels (with
  latency, in order), designed so proxies — Monocle — can interpose.
* :mod:`repro.network.host` — end hosts that send and record traffic.
* :mod:`repro.network.network` — builds a full network from a
  :mod:`networkx` topology: switches, links, port maps, hosts.
* :mod:`repro.network.traffic` — constant-rate flow generators used by
  the consistent-update experiments.
* :mod:`repro.network.conditioning` — seed-deterministic control
  message loss for chaos scenarios.
"""

from repro.network.channel import ControlChannel
from repro.network.conditioning import ChannelConditioner
from repro.network.host import Host
from repro.network.link import Link
from repro.network.network import Network
from repro.network.traffic import FlowSpec, TrafficGenerator

__all__ = [
    "ChannelConditioner",
    "ControlChannel",
    "Host",
    "Link",
    "Network",
    "FlowSpec",
    "TrafficGenerator",
]
