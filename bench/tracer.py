"""Spans around the public functions of the ``edense`` modules.

The tracer wraps every public function of every ``edense.*`` module and
rebinds each name that refers to it in every ``edense.*`` namespace, so
calls made through aliases such as ``construction.build_semigroup`` (an
import of ``core.build_semigroup``) are caught as well as calls made
through the defining module.  Nothing in the package itself changes.

Each call records one span: name, parent span, start and end.  A
generator function records one span per ``next()``, since that is where
its work runs.  A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

_EXHAUSTED = object()

# Structure queries summed into the core.query metrics.
CORE_QUERIES = frozenset(
    f"core.{name}"
    for name in (
        "idempotents",
        "classify_idempotents",
        "weak_inverses",
        "left_pre_inverses",
        "inverse_sets",
        "mitsch_leq",
        "h_leq",
        "green_l_class",
        "is_group",
        "is_e_dense",
        "is_e_unitary",
        "regular_elements",
        "is_inverse_semigroup",
    )
)


def _positional(fn, args, kwargs) -> tuple:
    """The arguments of one call as a tuple in parameter order."""
    if not kwargs:
        return args
    return tuple(inspect.signature(fn).bind(*args, **kwargs).arguments.values())


def _is_traceable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    """In-memory span recorder with per-name aggregates.

    ``names``, ``parents``, ``starts`` and ``ends`` are parallel arrays,
    one entry per span; ``parents[i]`` is the index of the enclosing span
    or -1.  ``self_s``, ``total_s`` and ``calls`` aggregate by span name.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids: dict[str, int] = {}
        self.name_list: list[str] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, name, time in children]
        self._seen: set = set()
        self._canon: dict = {}
        self._by_id: dict[int, tuple] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.name_list)
            self.name_list.append(name)
        stack = self._stack
        idx = len(self.names)
        self.names.append(nid)
        self.parents.append(stack[-1][0] if stack else -1)
        self.ends.append(0.0)
        stack.append([idx, name, 0.0])
        self.starts.append(self.clock())

    def _exit(self) -> None:
        end = self.clock()
        idx, name, child = self._stack.pop()
        self.ends[idx] = end
        duration = end - self.starts[idx]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def spans(self):
        """(name, parent index, start, end) for every recorded span."""
        return [
            (self.name_list[n], p, s, e)
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]

    # --- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records a span per call of ``fn``.

        ``observe(args, result)`` runs after a successful call, outside
        the span, to update counters; ``args`` holds every argument passed,
        in parameter order.  A generator is observed once, with result
        None, when its body has first run without raising.
        """
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                observed = observe is None
                while True:
                    enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        item = _EXHAUSTED
                    finally:
                        exit_()
                    if not observed:
                        observed = True
                        observe(_positional(fn, args, kwargs), None)
                    if item is _EXHAUSTED:
                        return
                    self.counters[f"{name}.yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(_positional(fn, args, kwargs), result)
            return result

        return wrapper

    def install(self, package) -> int:
        """Wrap the public functions of every loaded ``package.*`` module
        and rebind every alias to them; returns the number wrapped."""
        prefix = package.__name__ + "."
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        observers = self._observers()
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, observers.get(name)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    # --- counters ---------------------------------------------------------

    def _key(self, obj, value):
        """A small int standing for ``value``, looked up once per object.

        The object is kept alive so its id cannot be reused by another.
        """
        hit = self._by_id.get(id(obj))
        if hit is None:
            hit = (obj, self._canon.setdefault(value(obj), len(self._canon)))
            self._by_id[id(obj)] = hit
        return hit[1]

    def _repeat(self, name: str, key) -> None:
        self.counters[f"{name}.asked"] += 1
        if key in self._seen:
            self.counters[f"{name}.repeats"] += 1
        else:
            self._seen.add(key)

    def _observers(self):
        def table_of(S):
            return S.table

        def query(name):
            def observe(args, result):
                self._repeat("core.query", (name, self._key(args[0], table_of), args[1:]))

            return observe

        def build_semigroup(args, S):
            self.counters["core.build_semigroup.triples"] += S.n ** 3

        def build_category(args, C):
            self.counters["construction.build_category.morphisms"] += C.n_morphisms

        def enumerate_semigroups(args, _):
            n = args[0]
            self.counters["construction.enumerate_semigroups.candidates"] += n ** (n * n)

        def decrypt_key_space(args, _):
            sys_, x, *rest = args
            s = sys_.cipher_key if not rest or rest[0] is None else rest[0]
            self._repeat(
                "crypto.decrypt_key_space",
                (
                    "decrypt_key_space",
                    self._key(sys_.semigroup, table_of),
                    self._key(sys_.act, table_of),
                    x,
                    s,
                ),
            )

        observers = {name: query(name) for name in CORE_QUERIES}
        observers["core.build_semigroup"] = build_semigroup
        observers["construction.build_category"] = build_category
        observers["construction.enumerate_semigroups"] = enumerate_semigroups
        observers["crypto.decrypt_key_space"] = decrypt_key_space
        return observers

    # --- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metric values of everything recorded so far."""
        calls, self_s, total_s, counters = self.calls, self.self_s, self.total_s, self.counters

        def ratio(num, den):
            return counters[num] / counters[den] if counters[den] else 0.0

        out: dict[str, float] = {}
        for fn in ("build_semigroup", "mitsch_leq", "h_leq"):
            out[f"core.{fn}.calls"] = calls[f"core.{fn}"]
            out[f"core.{fn}.self_s"] = self_s[f"core.{fn}"]
        out["core.build_semigroup.triples"] = counters["core.build_semigroup.triples"]
        out["core.query.calls"] = sum(calls[q] for q in CORE_QUERIES)
        out["core.query.self_s"] = sum(self_s[q] for q in CORE_QUERIES)
        out["core.query.repeat_ratio"] = ratio("core.query.repeats", "core.query.asked")
        out["core.find_semigroup_isomorphism.self_s"] = self_s["core.find_semigroup_isomorphism"]
        for fn in ("omega_h", "omega_m"):
            out[f"closures.{fn}.calls"] = calls[f"closures.{fn}"]
            out[f"closures.{fn}.self_s"] = self_s[f"closures.{fn}"]
        out["closures.closed_e_dense_subsemigroups.self_s"] = self_s[
            "closures.closed_e_dense_subsemigroups"
        ]
        for fn in ("validate_act", "find_act_isomorphism"):
            out[f"acts.{fn}.calls"] = calls[f"acts.{fn}"]
            out[f"acts.{fn}.self_s"] = self_s[f"acts.{fn}"]
        out["acts.wagner_preston.self_s"] = self_s["acts.wagner_preston"]
        out["acts.munn_act.self_s"] = self_s["acts.munn_act"]
        out["cosets.coset_space.calls"] = calls["cosets.coset_space"]
        out["cosets.coset_space.self_s"] = self_s["cosets.coset_space"]
        out["cosets.are_conjugate.self_s"] = self_s["cosets.are_conjugate"]
        out["cosets.quotient_group.self_s"] = self_s["cosets.quotient_group"]
        for fn in ("build_category", "validate_group_action"):
            out[f"construction.{fn}.calls"] = calls[f"construction.{fn}"]
            out[f"construction.{fn}.self_s"] = self_s[f"construction.{fn}"]
        out["construction.build_category.morphisms"] = counters[
            "construction.build_category.morphisms"
        ]
        out["construction.c_u_monoid.calls"] = calls["construction.c_u_monoid"]
        out["construction.c_u_monoid.self_s"] = self_s["construction.c_u_monoid"]
        out["construction.enumerate_semigroups.self_s"] = self_s[
            "construction.enumerate_semigroups"
        ]
        out["construction.enumerate_semigroups.yield_ratio"] = ratio(
            "construction.enumerate_semigroups.yielded",
            "construction.enumerate_semigroups.candidates",
        )
        for fn in (
            "decrypt_key_space",
            "uniform_decrypt_keys",
            "build_cryptosystem",
            "massey_omura",
        ):
            out[f"crypto.{fn}.calls"] = calls[f"crypto.{fn}"]
            out[f"crypto.{fn}.self_s"] = self_s[f"crypto.{fn}"]
        out["crypto.decrypt_key_space.repeat_ratio"] = ratio(
            "crypto.decrypt_key_space.repeats", "crypto.decrypt_key_space.asked"
        )
        out["crypto.elgamal.self_s"] = self_s["crypto.elgamal"]
        out["crypto.modexp_system.self_s"] = self_s["crypto.modexp_system"]
        for suite in ("core", "closures", "acts", "cosets", "construction", "crypto"):
            out[f"verify.suite_{suite}.total_s"] = total_s[f"verify.suite_{suite}"]
        out["verify.small_order_sweep.total_s"] = total_s["verify.small_order_sweep"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            )
        return out


LAYERS = ("core", "closures", "acts", "cosets", "construction", "crypto", "verify", "cli", "report")
