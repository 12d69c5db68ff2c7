"""Per-layer spans around exacthom's public callables, installed from outside.

The wrappers replace attributes on exacthom's classes and modules for the
life of one traced sample; no file of the package changes.  Every call of a
wrapped callable records a span (layer, parent span, start, end, end of
bookkeeping) tagged with the sample's run id.  Spans stay in memory until
the sample ends; the per-layer table is derived from them and they are then
written out.

A layer's self time is its spans' duration minus the time their child
spans cover, bookkeeping included.  A call nested directly inside a span of
the same layer joins that span instead of opening one.  Time outside every
layer span is reported as ``other`` and the wrappers' own counter work as
``trace``; with the layer self times they add up to the traced wall time.
"""

import time
from array import array

from exacthom import chains, gamma, groupalg, hochschild, sparse, symhom

LAYERS = (
    "hochschild.basis", "hochschild.boundary", "hochschild.action",
    "groupalg.mul", "gamma.basis", "gamma.boundary_terms", "gamma.prune",
    "symhom.basis", "symhom.boundary", "symhom.comparison",
    "chains.ddcheck", "chains.homology", "chains.les",
    "sparse.elim", "sparse.matmul",
)

COUNTERS = (
    "hochschild.basis.elems", "hochschild.boundary.nnz",
    "hochschild.action.calls", "groupalg.mul.calls", "groupalg.mul.terms",
    "gamma.basis.elems", "gamma.boundary_terms.calls", "gamma.prune.calls",
    "symhom.boundary.nnz", "chains.ddcheck.calls", "sparse.elim.calls",
    "sparse.elim.in_nnz", "sparse.elim.rank", "sparse.elim.fill_nnz",
    "sparse.elim.max_row", "sparse.elim.repeat_ratio", "sparse.matmul.calls",
    "sparse.matmul.out_nnz",
)

_ROOT = "run"


class Tracer:
    """Span store and counters of one traced sample."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.layer = []               # layer name per span
        self.parent = array("l")      # parent span id, -1 for the root
        self.start = array("d")
        self.end = array("d")
        self.post = array("d")        # end of the wrapper's bookkeeping
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._seen = set()            # content digests of eliminated inputs
        self._repeats = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, layer):
        sid = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.post.append(0.0)
        self.stack.append(sid)
        return sid

    def _joins(self, layer):
        top = self.stack[-1]
        return top >= 0 and self.layer[top] == layer

    def wrap(self, layer, fn, after=None):
        """fn wrapped in a span of `layer`; after(result, args) updates the
        counters and is timed as bookkeeping."""
        clock = time.perf_counter
        open_, joins, stack = self._open, self._joins, self.stack
        starts, ends, posts = self.start, self.end, self.post

        def traced(*args, **kwargs):
            if joins(layer):
                return fn(*args, **kwargs)
            sid = open_(layer)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                posts[sid] = ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            posts[sid] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, layer, fn, counter):
        """Generator function fn wrapped so that drawing each item is a span
        of `layer` and adds one to `counter`."""
        clock = time.perf_counter
        open_, joins, stack, counts = (self._open, self._joins, self.stack,
                                       self.counts)
        starts, ends, posts = self.start, self.end, self.post

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                if joins(layer):
                    item = next(items, _DONE)
                else:
                    sid = open_(layer)
                    starts[sid] = clock()
                    try:
                        item = next(items, _DONE)
                    finally:
                        posts[sid] = ends[sid] = clock()
                        stack.pop()
                if item is _DONE:
                    return
                counts[counter] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def root(self, fn):
        """Run fn inside the root span of the sample and return its result."""
        sid = self._open(_ROOT)
        self.start[sid] = time.perf_counter()
        try:
            return fn()
        finally:
            self.post[sid] = self.end[sid] = time.perf_counter()
            self.stack.pop()

    # -- counters ------------------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] += amount

    def eliminated(self, result, args):
        ech, matrix = args[0], args[1]
        counts = self.counts
        counts["sparse.elim.calls"] += 1
        counts["sparse.elim.in_nnz"] += matrix.nnz
        counts["sparse.elim.rank"] += len(ech.rows)
        rows = list(ech.rows.values()) + ech.residuals
        counts["sparse.elim.fill_nnz"] += sum(len(r) for r in rows)
        longest = max((len(r) for r in rows), default=0)
        if longest > counts["sparse.elim.max_row"]:
            counts["sparse.elim.max_row"] = longest
        digest = (matrix.nrows, matrix.ncols, ech.pivot_limit,
                  hash(frozenset(matrix.entries.items())))
        if digest in self._seen:
            self._repeats += 1
        else:
            self._seen.add(digest)

    # -- the per-layer table -------------------------------------------------

    def table(self):
        """Per-layer self times and counters of the finished sample."""
        n = len(self.layer)
        covered = [0.0] * n
        parent, start, end, post = self.parent, self.start, self.end, self.post
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += post[sid] - start[sid]
        self_s = dict.fromkeys(LAYERS + (_ROOT,), 0.0)
        bookkeeping = 0.0
        wall = 0.0
        for sid in range(n):
            self_s[self.layer[sid]] += end[sid] - start[sid] - covered[sid]
            bookkeeping += post[sid] - end[sid]
            if parent[sid] < 0:
                wall += end[sid] - start[sid]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        calls = self.counts["sparse.elim.calls"]
        out["sparse.elim.repeat_ratio"] = self._repeats / calls if calls else 0.0
        out["other.self_s"] = self_s[_ROOT]
        out["trace.self_s"] = bookkeeping
        out["trace.wall_s"] = wall
        return out

    def write_spans(self, path):
        """Write the spans as tab-separated lines: run id, span id, layer,
        parent id, start, end, end of bookkeeping (seconds)."""
        with open(path, "w") as fh:
            fh.write("run\tspan\tlayer\tparent\tstart\tend\tpost\n")
            for sid, layer in enumerate(self.layer):
                fh.write(f"{self.run_id}\t{sid}\t{layer}\t{self.parent[sid]}\t"
                         f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t"
                         f"{self.post[sid]:.9f}\n")


_DONE = object()


def _on_miss(cache_attr, fn):
    """fn(result) applied only when the (n, w) slice was not yet cached."""
    def wrapper(method):
        def call(self, n, w):
            fresh = (n, w) not in getattr(self, cache_attr)
            result = method(self, n, w)
            if fresh:
                fn(result)
            return result
        return call
    return wrapper


def install(tracer):
    """Wrap the public callables of every layer; tracer.uninstall() undoes it."""
    t = tracer
    hc, gc, sc = (hochschild.HochschildComplex, gamma.GammaComplex,
                  symhom.SymmetricComplex)

    def counted(name):
        return lambda result, args: t.add(name)

    t.patch(hc, "basis", t.wrap("hochschild.basis", _on_miss(
        "_basis", lambda r: t.add("hochschild.basis.elems", len(r)))(
            hc.basis)))
    t.patch(hc, "boundary", t.wrap("hochschild.boundary", _on_miss(
        "_boundary", lambda r: t.add("hochschild.boundary.nnz", r.nnz))(
            hc.boundary)))
    t.patch(hc, "action_matrix", t.wrap(
        "hochschild.action", hc.action_matrix,
        counted("hochschild.action.calls")))

    def multiplied(result, args):
        t.add("groupalg.mul.calls")
        t.add("groupalg.mul.terms",
              len(args[0].coeffs) * len(args[1].coeffs))

    t.patch(groupalg.GroupAlgebraElement, "mul", t.wrap(
        "groupalg.mul", groupalg.GroupAlgebraElement.mul, multiplied))

    t.patch(gc, "basis", t.wrap("gamma.basis", gc.basis))
    t.patch(gc, "iter_basis", t.wrap_generator(
        "gamma.basis", gc.iter_basis, "gamma.basis.elems"))
    t.patch(gc, "boundary_terms", t.wrap(
        "gamma.boundary_terms", gc.boundary_terms,
        counted("gamma.boundary_terms.calls")))
    for name in ("prune_generator", "prune_normalized"):
        t.patch(gamma, name, t.wrap("gamma.prune", getattr(gamma, name),
                                    counted("gamma.prune.calls")))

    t.patch(sc, "basis", t.wrap("symhom.basis", sc.basis))
    t.patch(sc, "boundary", t.wrap("symhom.boundary", _on_miss(
        "_boundary", lambda r: t.add("symhom.boundary.nnz", r.nnz))(
            sc.boundary)))
    cd = symhom.ComparisonData
    t.patch(cd, "__init__", t.wrap("symhom.comparison", cd.__init__))
    t.patch(cd, "kernel", t.wrap("symhom.comparison", cd.kernel))

    cs = chains.ChainSlice
    t.patch(cs, "__init__", t.wrap("chains.ddcheck", cs.__init__,
                                   counted("chains.ddcheck.calls")))
    t.patch(cs, "homology", t.wrap("chains.homology", cs.homology))
    t.patch(chains, "long_exact_sequence_nodes", t.wrap(
        "chains.les", chains.long_exact_sequence_nodes))

    t.patch(sparse.Echelon, "__init__", t.wrap(
        "sparse.elim", sparse.Echelon.__init__, t.eliminated))

    def multiplied_sparse(result, args):
        t.add("sparse.matmul.calls")
        t.add("sparse.matmul.out_nnz", result.nnz)

    t.patch(sparse.SparseMatrix, "mul", t.wrap(
        "sparse.matmul", sparse.SparseMatrix.mul, multiplied_sparse))
