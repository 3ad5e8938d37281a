"""Span tracer for the loccon layers, installed from outside the program.

The tracer wraps the public callables of each loccon module (module-level
functions without a leading underscore, plus the public methods, ``__init__``
and arithmetic/comparison dunders of the classes the module defines) and
rebinds every reference to them that the program holds:

* the defining module's attribute, so runtime imports such as
  ``from loccon.lattice import iso_mod`` inside a function body see the
  wrapper;
* every other loccon module's global bound by ``from ... import ...``, and
  the values of module-level dicts (dispatch tables);
* every name a class binds to the same function, so aliases such as
  ``__radd__ = __add__`` are counted under the function they alias.

Spans are aggregated as they close, not stored: for each wrapped function
the tracer keeps its call count, its primitive call count (calls made while
the function was not already running, the count cProfile reports as
``cc``), and its self time (span time minus the time of child spans).
Generator functions get one span per resumption, which is also how
cProfile counts them.

``PadicElement.__init__`` is not wrapped: element construction happens on
every ring operation and is almost always made by a padic method, whose
span then holds it.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("padic", "chainring", "series", "domains", "families", "lattice",
          "pseudo", "galois", "groups", "specfile", "cli")

DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__eq__", "__bool__",
})

SKIP = frozenset({"padic.PadicElement.__init__"})

MUL_KEY = "padic.PadicElement.__mul__"
SAMPLE_KEY = "domains.ResidueDomain.sample"

# (outer, inner): count calls of inner made while outer is running
NESTED = (
    (SAMPLE_KEY, "domains.ResidueDomain.member"),
    ("lattice.semisimplify_mod_p", "chainring.mat_mul"),
    ("lattice.iso_mod", "chainring.determinant"),
)

_MARK = "_perfbench_original"


def context_shape(ctx):
    """'zp', 'unram' or 'ram': the three kinds of coefficient arithmetic."""
    if ctx.e > 1:
        return "ram"
    return "unram" if ctx.f > 1 else "zp"


def _loccon_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "loccon" or name.startswith("loccon."))]


def _plain(obj):
    """The function inside obj, or None when obj is not a wrappable one."""
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return obj if inspect.isfunction(obj) else None


def _rewrap(template, fn):
    if isinstance(template, staticmethod):
        return staticmethod(fn)
    if isinstance(template, classmethod):
        return classmethod(fn)
    return fn


class Tracer:
    """Wraps the loccon layers; ``install`` and ``uninstall`` bracket a run."""

    def __init__(self):
        self.stats = {}       # key -> [calls, primitive calls, self seconds]
        self.codes = {}       # key -> code object of the wrapped function
        self.nested = {pair: 0 for pair in NESTED}
        self.mul_by_shape = {s: [0, 0.0] for s in ("zp", "unram", "ram")}
        self.sample_points = 0
        self._active = {outer: 0 for outer, _ in NESTED}
        self._stack = []
        self._wrappers = {}   # id(original function) -> wrapper
        self._patches = []    # restore callbacks, in the order applied
        self.installed = False

    # -- target discovery --------------------------------------------------

    def _targets(self):
        """(key, function) for every callable the tracer wraps."""
        out = []
        for layer in LAYERS:
            mod = sys.modules.get(f"loccon.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                fn = _plain(obj)
                if fn is not None and fn.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    out.append((f"{layer}.{fn.__qualname__}", fn))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in vars(obj).items():
                        fn = _plain(val)
                        if fn is None or (attr.startswith("_")
                                          and attr not in DUNDERS):
                            continue
                        key = f"{layer}.{obj.__name__}.{fn.__name__}"
                        if key not in SKIP:
                            out.append((key, fn))
        return out

    # -- wrappers ------------------------------------------------------------

    def _make_wrapper(self, key, fn):
        rec = self.stats.setdefault(key, [0, 0, 0.0])
        self.codes[key] = fn.__code__
        active = self._active
        active[key] = 0
        stack = self._stack
        nested = self.nested
        outers = [pair for pair in NESTED if pair[1] == key]
        perf = time.perf_counter
        is_mul = key == MUL_KEY
        is_sample = key == SAMPLE_KEY
        shapes = self.mul_by_shape

        def enter():
            depth = active[key]
            rec[0] += 1
            if not depth:
                rec[1] += 1
            for pair in outers:
                if active[pair[0]]:
                    nested[pair] += 1
            active[key] = depth + 1
            frame = [0.0]
            stack.append(frame)
            return depth, frame

        def leave(depth, frame, dt):
            stack.pop()
            active[key] = depth
            own = dt - frame[0]
            rec[2] += own
            if stack:
                stack[-1][0] += dt
            return own

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return self._resumptions(fn(*args, **kwargs), enter, leave)
        elif is_mul or is_sample:
            def wrapper(*args, **kwargs):
                depth, frame = enter()
                t0 = perf()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    own = leave(depth, frame, perf() - t0)
                    if is_mul:
                        slot = shapes[context_shape(args[0].context)]
                        slot[0] += 1
                        slot[1] += own
                    elif result is not None:
                        self.sample_points += len(result)
        else:
            def wrapper(*args, **kwargs):
                depth, frame = enter()
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(depth, frame, perf() - t0)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    @staticmethod
    def _resumptions(gen, enter, leave):
        """Re-yield gen, one span per resumption of its frame."""
        perf = time.perf_counter
        while True:
            depth, frame = enter()
            t0 = perf()
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                leave(depth, frame, perf() - t0)
            try:
                yield value
            except GeneratorExit:
                depth, frame = enter()
                t0 = perf()
                try:
                    gen.close()
                finally:
                    leave(depth, frame, perf() - t0)
                raise

    # -- install / uninstall -----------------------------------------------

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        for key, fn in self._targets():
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = self._make_wrapper(key, fn)
        wrapped = self._wrappers
        for mod in _loccon_modules():
            space = vars(mod)
            for name, obj in list(space.items()):
                fn = _plain(obj)
                if fn is not None and id(fn) in wrapped:
                    self._patch_mapping(space, name, obj, wrapped[id(fn)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        f = _plain(v)
                        if f is not None and id(f) in wrapped:
                            self._patch_mapping(obj, k, v, wrapped[id(f)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        f = _plain(val)
                        if f is not None and id(f) in wrapped:
                            self._patch_class(obj, attr, val, wrapped[id(f)])
        self.installed = True

    def _patch_mapping(self, mapping, name, old, fn):
        mapping[name] = _rewrap(old, fn)
        self._patches.append(lambda: mapping.__setitem__(name, old))

    def _patch_class(self, cls, attr, old, fn):
        setattr(cls, attr, _rewrap(old, fn))
        self._patches.append(lambda: setattr(cls, attr, old))

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()
        self.installed = False
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left[:5]}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, [0, 0, 0.0])[0]

    def self_s(self, key):
        return self.stats.get(key, [0, 0, 0.0])[2]

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(rec[2] for key, rec in self.stats.items()
                   if key.startswith(prefix))

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(rec[0] for key, rec in self.stats.items()
                   if key.startswith(prefix))

    def table(self):
        """Every traced function that ran, as key -> {calls, prim, self_s}."""
        return {key: {"calls": rec[0], "prim": rec[1], "self_s": rec[2]}
                for key, rec in sorted(self.stats.items()) if rec[0]}


def leftover_wrappers():
    """Places in the loccon modules still bound to a tracer wrapper."""
    found = []
    for mod in _loccon_modules():
        for name, obj in vars(mod).items():
            items = [(name, obj)]
            if isinstance(obj, dict):
                items = [(f"{name}[{k!r}]", v) for k, v in obj.items()]
            elif inspect.isclass(obj):
                items += [(f"{name}.{a}", v) for a, v in vars(obj).items()]
            for where, val in items:
                fn = _plain(val)
                if fn is not None and hasattr(fn, _MARK):
                    found.append(f"{mod.__name__}.{where}")
    return found


def profile_mismatches(tracer, profiler):
    """Functions whose traced primitive-call count differs from cProfile's.

    Functions are matched by code location; functions that share one
    (dataclass-generated methods all live in "<string>") are compared by
    their summed counts.  Returns a list of (keys, traced, cprofile).
    """
    import pstats
    groups = {}
    for key, code in tracer.codes.items():
        if code.co_filename.startswith("<"):
            continue
        loc = (code.co_filename, code.co_firstlineno, code.co_name)
        groups.setdefault(loc, []).append(key)
    counted = {loc: 0 for loc in groups}
    for loc, row in pstats.Stats(profiler).stats.items():
        if loc in counted:
            counted[loc] += row[0]  # primitive calls
    out = []
    for loc, keys in sorted(groups.items(), key=lambda kv: kv[1]):
        traced = sum(tracer.stats[k][1] for k in keys)
        if traced != counted[loc]:
            out.append((tuple(keys), traced, counted[loc]))
    return out
