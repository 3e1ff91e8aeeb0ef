"""Span recorder that times twistlab's layers from outside the package.

``Tracer.install`` replaces every public function of each layer module
with a wrapper that records a span: function name, start, end, parent
span and request id.  Because ``from ... import`` copies bindings, the
wrapper replaces the function in every twistlab module that holds it
(``determinant`` lives in both ``polynomials`` and ``homology``, for
instance).  ``Tracer.restore`` puts every original binding back.

Counters are read at the same boundaries from arguments and results.
``Derivation.__init__`` is wrapped without a span to count derivation
nodes as they are built.

Spans of one request are folded into per-layer self time when the
request ends: a span's self time is its duration minus the time its
child spans cover, and a layer's self time is the sum over its spans.
Complete span records are kept in memory for the first requests, up to
``KEEP_SPANS``, and written out when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

PACKAGE = "twistlab"
KEEP_SPANS = 50_000

LAYERS = ("cli", "wordparse", "homology", "polynomials", "obstruction", "pants", "sclbound", "reporting")

COUNTERS = (
    "homology.letters_folded",
    "homology.max_rank",
    "homology.max_entry_bits",
    "polynomials.determinants",
    "polynomials.charpolys",
    "polynomials.max_coeff_bits",
    "obstruction.certificates",
    "obstruction.words_verified",
    "sclbound.height_queries",
    "sclbound.search_steps",
    "sclbound.replays",
    "sclbound.derivation_nodes",
    "reporting.bytes_out",
    "pants.rows",
    "wordparse.letters",
)

# Counters that hold a maximum rather than a total.
MAXIMA = ("homology.max_rank", "homology.max_entry_bits", "polynomials.max_coeff_bits")


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _word_action(tracer, args, result):
    word = args[0]
    tracer.add("homology.letters_folded", len(word.letters))
    tracer.raise_to("homology.max_rank", word.surface.betti)
    tracer.raise_to("homology.max_entry_bits", _max_bits(v for row in result.entries for v in row))


def _charpoly(tracer, args, result):
    tracer.add("polynomials.charpolys", 1)
    tracer.raise_to("polynomials.max_coeff_bits", _max_bits(result.coefficients))


def _height_chain_bound(tracer, args, result):
    if tracer.inside("sclbound.height_lower_bound"):
        tracer.add("sclbound.search_steps", 1)


# Counter hooks, keyed by "<layer>.<function>"; each runs after its call returns.
HOOKS = {
    "homology.word_action": _word_action,
    "polynomials.determinant": lambda t, a, r: t.add("polynomials.determinants", 1),
    "polynomials.characteristic_polynomial_from_rows": _charpoly,
    "obstruction.knot_monodromy_obstruction": lambda t, a, r: t.add("obstruction.certificates", r is not None),
    "obstruction.verify_certificate": lambda t, a, r: t.add("obstruction.words_verified", 1),
    "sclbound.height_lower_bound": lambda t, a, r: t.add("sclbound.height_queries", 1),
    "sclbound.height_chain_bound": _height_chain_bound,
    "sclbound.replay": lambda t, a, r: t.add("sclbound.replays", 1),
    "pants.pants_twist_length": lambda t, a, r: t.add("pants.rows", 1),
    "wordparse.canonicalize_word": lambda t, a, r: t.add("wordparse.letters", len(a[0].split())),
}


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            yield name, value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.request_s = 0.0
        self.kept: list[tuple] = []
        self._layer_of: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []
        self.request = -1
        self._reset_spans()

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, function in _public_functions(module):
                wrappers[id(function)] = self._wrap(layer, name, function)
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._replaced.append((module, name, value))
                    setattr(module, name, wrapper)
        derivation = sys.modules[f"{PACKAGE}.sclbound"].Derivation
        original_init = derivation.__init__

        def counting_init(node, *args, **kwargs):
            self.counters["sclbound.derivation_nodes"] += 1
            original_init(node, *args, **kwargs)

        self._replaced.append((derivation, "__init__", original_init))
        derivation.__init__ = counting_init

    def restore(self) -> None:
        for owner, name, original in reversed(self._replaced):
            setattr(owner, name, original)
        self._replaced.clear()

    def _wrap(self, layer: str, name: str, function):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self._layer_of.append(LAYERS.index(layer))
        hook = HOOKS.get(f"{layer}.{name}")
        tracer = self

        def span(*args, **kwargs):
            index = len(tracer.fids)
            parent = tracer.current
            tracer.fids.append(fid)
            tracer.parents.append(parent)
            tracer.ends.append(0.0)
            tracer.current = index
            tracer.starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.ends[index] = perf_counter()
                tracer.current = parent
            if hook is not None:
                hook(tracer, args, result)
            return result

        return span

    # -- counters ------------------------------------------------------------

    def add(self, counter: str, amount) -> None:
        self.counters[counter] += amount

    def raise_to(self, counter: str, value: int) -> None:
        if value > self.counters[counter]:
            self.counters[counter] = value

    def inside(self, name: str) -> bool:
        """True if a span of the named function is open."""
        index = self.current
        while index >= 0:
            if self.names[self.fids[index]] == name:
                return True
            index = self.parents[index]
        return False

    # -- requests ------------------------------------------------------------

    def _reset_spans(self) -> None:
        self.fids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1

    def begin_request(self, request: int) -> None:
        self.request = request
        self._reset_spans()

    def end_request(self, bytes_out: int) -> None:
        """Fold this request's spans into per-layer self time and calls."""
        self.counters["reporting.bytes_out"] += bytes_out
        count = len(self.fids)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += durations[i]
            else:
                self.request_s += durations[i]
        for i in range(count):
            layer = LAYERS[self._layer_of[self.fids[i]]]
            self.self_s[layer] += durations[i] - covered[i]
            self.calls[layer] += 1
        if len(self.kept) + count <= KEEP_SPANS:
            self.kept.extend(
                (self.request, self.names[self.fids[i]], self.parents[i], self.starts[i], self.ends[i])
                for i in range(count)
            )
        self._reset_spans()

    def summary(self, rounds: int) -> dict:
        """Per-layer self time, share and calls, and counters, per round."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / rounds
            out[f"{layer}.share"] = self.self_s[layer] / self.request_s if self.request_s else 0.0
            out[f"{layer}.calls"] = self.calls[layer] / rounds
        for name in COUNTERS:
            value = self.counters[name]
            out[name] = value if name in MAXIMA else value / rounds
        return out
