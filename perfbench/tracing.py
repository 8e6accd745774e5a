"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` rebinds each wrapped name on its module (every layer calls
the others through the module attribute, so this sees every call) and
`uninstall` puts the originals back.  A span is (name, start, end, parent,
job); spans live in flat arrays until `write` puts them in a CSV file.
Self time is a span's duration minus the time covered by its children.
"""

import contextlib
import time
from array import array

# (module, attribute, span name) of every wrapped boundary, per layer.
# Helpers such as find_map_fixed_points and classify_stability stay inside
# their caller's span, so find_fixed_points' self time is its grid, bisection
# and classification work, not glue.
BOUNDARIES = (
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "derivative", "expr.derivative"),
    ("dynamics", "make_system", "dynamics.make_system"),
    # The CLI builds ReflexiveSystem itself; its validation is the part of
    # make_system that costs, so both carry the make_system name.
    ("dynamics.ReflexiveSystem", "__post_init__", "dynamics.make_system"),
    ("dynamics", "step", "dynamics.step"),
    ("dynamics", "orbit", "dynamics.orbit"),
    ("dynamics", "find_fixed_points", "dynamics.find_fixed_points"),
    ("analysis", "function_distance", "analysis.function_distance"),
    ("analysis", "detect_period", "analysis.detect_period"),
    ("analysis", "detect_boom_bust", "analysis.detect_boom_bust"),
    ("analysis", "verify_conjugacy", "analysis.verify_conjugacy"),
    ("render", "staircase", "render.staircase"),
    ("render", "phase_portrait", "render.phase_portrait"),
    ("render", "to_csv", "render.to_csv"),
    ("render", "to_svg", "render.to_svg"),
    ("cli", "main", "cli.main"),
)


# Boundaries whose results feed a count (see Tracer._after).
_AFTER = frozenset(("expr.parse", "dynamics.orbit", "dynamics.find_fixed_points",
                    "analysis.function_distance", "analysis.detect_period",
                    "render.to_svg", "render.to_csv"))


def _tree_nodes(node):
    n, stack = 0, [node]
    while stack:
        nd = stack.pop()
        n += 1
        for attr in ("operand", "left", "right", "arg"):
            child = getattr(nd, attr, None)
            if child is not None:
                stack.append(child)
    return n


def _owner(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def wrapped(package):
    """Boundaries that currently carry a wrapper; untraced runs need none."""
    return [f"{path}.{attr}" for path, attr, _ in BOUNDARIES
            if hasattr(getattr(_owner(package, path), attr), "__wrapped__")]


class Tracer:
    def __init__(self, package):
        self.package = package  # the imported `reflexivity` package
        self.names = []
        self.name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.job_of = array("l")
        self.stack = [-1]
        self.job = -1
        self.counts = {}
        self.parsed_nodes = []
        self.saved = []

    def _nid(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def install(self):
        for path, attr, name in BOUNDARIES:
            owner = _owner(self.package, path)
            original = owner.__dict__[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
        left = wrapped(self.package)
        if left:
            raise RuntimeError(f"wrappers left installed on {left}")

    def _add(self, key, v):
        self.counts[key] = self.counts.get(key, 0) + v

    def _after(self, name, result):
        if name == "expr.parse":
            self.parsed_nodes.append(_tree_nodes(result.root))
        elif name == "dynamics.orbit":
            self._add("dynamics.orbit.steps", len(result.states) - 1)
        elif name == "dynamics.find_fixed_points":
            self._add("dynamics.find_fixed_points.roots", len(result))
        elif name == "analysis.function_distance":
            self._add("analysis.function_distance.samples", result.samples)
        elif name == "analysis.detect_period":
            self._add("analysis.detect_period.found", result is not None)
        elif name in ("render.to_svg", "render.to_csv"):
            self._add(name + ".bytes", len(result.encode("utf-8")))

    def _open(self, nid):
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        nid = self._nid(name)
        open_, close = self._open, self._close
        domain_error = self.package.expr.EvalDomainError
        counts_errors = name in ("expr.evaluate", "expr.derivative")
        after = self._after if name in _AFTER else None

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except domain_error:
                if counts_errors:
                    self._add("expr.domain_errors", 1)
                raise
            finally:
                close(i)
            if after is not None:
                after(name, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself (a job, a set-up)."""
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    # -----------------------------------------------------------------------

    def totals(self):
        """{name: (calls, total_s, self_s)} and the evaluate calls below each
        named ancestor."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            total[k] += dur[i]
            own[k] += dur[i] - child[i]
        out = {self.names[k]: (calls[k], total[k], own[k]) for k in range(len(self.names))}
        return out, self._evals_under(("dynamics.find_fixed_points", "analysis.function_distance"))

    def _evals_under(self, ancestors):
        """Evaluate calls that have a span named in `ancestors` above them.
        Parents are recorded before children, so one forward pass suffices."""
        ev = self.name_ids.get("expr.evaluate")
        result = {}
        for anc in ancestors:
            a = self.name_ids.get(anc)
            inside = bytearray(len(self.start))
            count = 0
            for i in range(len(self.start)):
                p = self.parent[i]
                if self.name[i] == a or (p >= 0 and inside[p]):
                    inside[i] = 1
                    if self.name[i] == ev:
                        count += 1
            result[anc] = count
        return result

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.job_of[i]))
