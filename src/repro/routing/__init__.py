"""Deterministic balanced routing (the library's stand-in for Lenzen's
O(1)-round congested-clique routing [28]; see README "Departures from
the paper" #1)."""

from repro.routing.lenzen import (
    BitRoute,
    FrameRoute,
    kernel_route_bits,
    kernel_route_frames,
    payload_demand,
    route_frames,
    route_kernel_program,
    route_payloads,
    route_program,
)
from repro.routing.schedule import FrameRef, RoutingSchedule, build_schedule

__all__ = [
    "FrameRef",
    "RoutingSchedule",
    "build_schedule",
    "route_frames",
    "route_payloads",
    "payload_demand",
    "route_program",
    "FrameRoute",
    "kernel_route_frames",
    "BitRoute",
    "kernel_route_bits",
    "route_kernel_program",
]
