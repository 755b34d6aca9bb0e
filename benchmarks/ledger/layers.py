"""Split a cProfile run's self time and calls across the program's layers.

A layer is a set of modules of the ``repro`` package.  A function outside
the package (stdlib, builtins, the benchmark itself) has no layer of its
own: its self time is handed up the caller graph, split by each caller
edge's time, until it reaches ``repro`` frames.  Time that reaches no
``repro`` frame is ``unattributed``.  Because every profiled second lands
in exactly one layer, the layer self times sum to the profile's total.
"""

from __future__ import annotations

import os

#: Layer names, in report order.
LAYERS = (
    "net.simclock",
    "net",
    "world.engine",
    "sdp.slp",
    "sdp.upnp",
    "sdp.jini",
    "units",
    "core",
    "federation",
    "serving",
    "obs",
    "world",
    "unattributed",
)

#: The partitioned and multiprocess engines, wherever their modules live.
_ENGINE_FILES = frozenset(
    ("net/parallel.py", "net/partition.py", "world/engine.py", "world/partition.py")
)
_PACKAGES = frozenset(("net", "units", "core", "federation", "serving", "obs", "world"))
#: Substitution rounds at most; call graphs settle in a few dozen.
_ROUNDS = 200


def layer_of(relpath: str) -> str:
    """The layer of a module, given its path inside the ``repro`` package."""
    if relpath == "net/simclock.py":
        return "net.simclock"
    if relpath in _ENGINE_FILES:
        return "world.engine"
    top, _, rest = relpath.partition("/")
    if top == "sdp":
        protocol = rest.partition("/")[0]
        # sdp/base.py is the protocol-neutral record the core's cache and
        # composers work over.
        return f"sdp.{protocol}" if protocol in ("slp", "upnp", "jini") else "core"
    if top in _PACKAGES:
        return top
    # repro/__init__.py and repro/bench (cost calibration) serve construction.
    return "world"


def _label(code) -> tuple:
    if isinstance(code, str):  # a builtin
        return ("~", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _graph(profiler) -> dict:
    """``{func: (tottime, {caller: [ncalls, cumtime, tottime]})}``.

    Built from the raw entries rather than ``pstats``, which keeps only one
    of several code objects sharing a label -- the functions generated by
    ``dataclasses`` and ``namedtuple`` all read ``<string>:1`` -- and so
    loses their time.  Here same-label entries are summed.
    """
    entries = profiler.getstats()
    graph: dict = {}
    for entry in entries:
        func = _label(entry.code)
        tottime, callers = graph.get(func, (0.0, {}))
        graph[func] = (tottime + entry.inlinetime, callers)
    for entry in entries:
        caller = _label(entry.code)
        for sub in entry.calls or ():
            callers = graph.setdefault(_label(sub.code), (0.0, {}))[1]
            edge = callers.setdefault(caller, [0, 0.0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.totaltime
            edge[2] += sub.inlinetime
    return graph


def _weights(callers: dict, column: int, func) -> dict:
    """Caller -> share of one edge column (by call count when all zero)."""
    weights = {c: e[column] for c, e in callers.items() if c != func}
    if not any(weights.values()):
        weights = {c: e[0] for c, e in callers.items() if c != func}
    total = sum(weights.values())
    return {c: w / total for c, w in weights.items() if w} if total else {}


def _mix(weights: dict, own: dict, shares: dict) -> dict:
    mix: dict = {}
    for caller, weight in weights.items():
        source = {own[caller]: 1.0} if caller in own else shares.get(caller, {})
        for layer, fraction in source.items():
            mix[layer] = mix.get(layer, 0.0) + weight * fraction
    return mix


def attribute(profiler, package_dir: str) -> dict:
    """``{"layers": {layer: {"self_s", "calls_in"}}, "total_s": float}``.

    The layer shares of a non-``repro`` function solve ``share(f) =
    sum over callers c of w(c, f) * share(c)``, with ``w`` the caller
    edge's share of ``f``'s cumulative time and a ``repro`` caller counting
    wholly for its layer.  Caller cycles (nested imports, recursion) make
    this a fixed point, found by repeated substitution; share that never
    reaches a ``repro`` frame is ``unattributed``.

    ``calls_in`` counts the calls on caller edges that enter the layer from
    a function of another layer (a non-``repro`` caller belongs to the
    layer that receives most of its time).
    """
    graph = _graph(profiler)
    prefix = os.path.join(os.path.realpath(package_dir), "")
    own: dict = {}
    for func in graph:
        path = os.path.realpath(func[0]) if func[0].endswith(".py") else ""
        if path.startswith(prefix):
            own[func] = layer_of(path[len(prefix):].replace(os.sep, "/"))

    upward = {
        func: _weights(callers, 1, func)
        for func, (_, callers) in graph.items() if func not in own
    }
    shares: dict = {}
    for _ in range(_ROUNDS):
        moved = 0.0
        for func, weights in upward.items():
            mix = _mix(weights, own, shares)
            old = shares.get(func, {})
            for layer in mix.keys() | old.keys():
                moved = max(moved, abs(mix.get(layer, 0.0) - old.get(layer, 0.0)))
            shares[func] = mix
        if moved < 1e-9:
            break

    layers = {name: {"self_s": 0.0, "calls_in": 0} for name in LAYERS}
    total = 0.0
    for func, (tottime, callers) in graph.items():
        total += tottime
        if func in own:
            layers[own[func]]["self_s"] += tottime
            continue
        # Self time is split by the self time spent under each caller edge,
        # then carried up from each caller.
        mix = _mix(_weights(callers, 2, func), own, shares)
        for layer, fraction in mix.items():
            layers[layer]["self_s"] += tottime * fraction
        layers["unattributed"]["self_s"] += tottime * max(0.0, 1.0 - sum(mix.values()))

    def home(func) -> str:
        if func in own:
            return own[func]
        mix = shares.get(func) or {"unattributed": 1.0}
        return max(mix, key=mix.get)

    for func, layer in own.items():
        for caller, edge in graph[func][1].items():
            if home(caller) != layer:
                layers[layer]["calls_in"] += edge[0]
    return {"layers": layers, "total_s": total}
