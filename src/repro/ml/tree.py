"""CART regression tree (the random forest's base learner).

Standard variance-reduction splitting: at every node the best (feature,
threshold) pair minimises the summed squared error of the two children.
``max_features`` enables the random feature subsampling that random
forests rely on.

Trees are built by the ``build_trees`` kernel of :mod:`repro.native`,
every tree of one bootstrap *plan* (the trees that share a sample) in
one call; a lone tree is the one-tree case.  Its compiled form works
over *rank classes*: columns whose dense value ranks
(:func:`_rank_classes`) are equal row for row sort their samples the
same way and share a class, so constant and duplicate columns cost one.
It sorts every class once per plan (a counting sort by rank), so no
node sorts again, and it scans a class once per node however many of
its columns were drawn.  A tree does not partition every class at every
split: a class's order rows are brought up to date only at the nodes
that draw it, by replaying the splits it missed since, and a node of at
most 16 rows sorts its rows by the class's ranks directly instead.  Its
Python form, the recursive :func:`_best_split` search that argsorts
every drawn column at every node, tree by tree, is the oracle the
compiled form matches bit for bit and the fallback without a C
compiler.  Both draw each node's candidate features from the tree's own
``rng``, which must be a :class:`numpy.random.Generator` (anything else
raises :class:`~repro.errors.MLError`): the Python form calls
``rng.choice(p, size=k, replace=False)`` and the compiled form replays
that call in C through the generator's public ``bitgen_t`` interface.
The first build of the compiled form in a process checks the replay
against ``choice`` (:func:`_replays_choice`); should a numpy release
change ``choice``, a warning is logged and trees are built by the
Python form.

A fitted tree is the kernel's preorder node arrays, nothing else.
Prediction is :func:`descend`, the ``descend`` kernel: it walks one
tree or, over the :func:`node_table` of a whole forest, every tree at
once, for any number of rows.  Its compiled form walks each row down
each tree after checking the table's indices, so a damaged table raises
instead of reading out of bounds; its numpy form, which moves every row
down one level per gather in fixed-size blocks of rows, is the oracle.
Rows to predict must be finite, as training data must.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Callable

import numpy as np

from .. import native
from ..errors import MLError, NotFittedError
from ..obs import get_logger

log = get_logger("repro.ml.tree")


def _resolve_max_features(max_features, n_features: int) -> int:
    """Number of features examined per split."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "third":
            return max(1, n_features // 3)
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise MLError(f"unknown max_features {max_features!r}")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise MLError("fractional max_features must be in (0, 1]")
        return max(1, int(max_features * n_features))
    value = int(max_features)
    if value < 1:
        raise MLError("max_features must be >= 1")
    return min(value, n_features)


def _check_fit_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float64, validated for fitting.

    Non-finite values fail loud: a NaN target would otherwise leak into
    node means silently, and the presort ranks assume ordered values.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise MLError("X must be 2-D")
    if len(X) != len(y):
        raise MLError("X and y length mismatch")
    if len(y) == 0:
        raise MLError("cannot fit on an empty dataset")
    if X.shape[1] == 0:
        raise MLError("cannot fit without features")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise MLError("X and y must be finite (found NaN or inf)")
    return X, y


def _dense_ranks(columns: np.ndarray) -> np.ndarray:
    """Dense ranks of every row of ``columns`` (equal values share one).

    ``columns`` is a feature-major ``(p, n)`` matrix.  A stable sort of
    any sample subset by rank is that subset's stable ``argsort`` by
    value, which is how the compiled ``build_trees`` presorts a plan.
    """
    order = np.argsort(columns, axis=1, kind="stable")
    xs = np.take_along_axis(columns, order, axis=1)
    dense = np.zeros(columns.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks


def _rank_classes(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank classes of the columns of a feature-major ``(p, n)``
    matrix: ``(ranks, classes)``, the ``(u, n)`` distinct rows of
    :func:`_dense_ranks` and the class of each of the ``p`` columns.

    Columns of one class have equal values wherever any of them does and
    order every sample subset alike (constant columns form one class), so
    everything a split search keeps per column but the threshold value
    is the class's.
    """
    dense = _dense_ranks(columns)
    first: dict[bytes, int] = {}
    classes = np.array(
        [first.setdefault(row.tobytes(), f) for f, row in enumerate(dense)],
        dtype=np.int64,
    )
    members = np.fromiter(first.values(), dtype=np.int64, count=len(first))
    # Number the classes by their first column.
    number = np.empty(len(columns), dtype=np.int64)
    number[members] = np.arange(len(members))
    return dense[members], number[classes]


def _best_split(
    X, y, idx: np.ndarray, features: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best ``(feature, threshold, gain)`` cut of node ``idx`` over the
    candidate ``features``, or None when no cut reduces the SSE."""
    n = len(idx)
    y_node = y[idx]
    sum_all = y_node.sum()
    sq_all = float(np.sum(y_node**2))
    sse_parent = sq_all - sum_all**2 / n

    # Vectorised over the feature subset: sort each candidate feature's
    # column, prefix-sum the targets, and score every admissible cut of
    # every feature in one shot.
    Xn = X[np.ix_(idx, features)]                       # (n, k)
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)          # sorted values
    ys = y_node[order]                                  # aligned targets
    cum = np.cumsum(ys, axis=0)
    cum2 = np.cumsum(ys**2, axis=0)
    pos = np.arange(1, n)[:, None]                      # left-side sizes
    valid = (
        (xs[1:] != xs[:-1])
        & (pos >= min_leaf)
        & (n - pos >= min_leaf)
    )
    if not valid.any():
        return None
    left_sum = cum[:-1]
    left_sq = cum2[:-1]
    right_sum = sum_all - left_sum
    right_sq = sq_all - left_sq
    with np.errstate(invalid="ignore"):
        sse = (
            left_sq - left_sum**2 / pos
            + right_sq - right_sum**2 / (n - pos)
        )
    sse[~valid] = np.inf
    flat = int(np.argmin(sse))
    cut, col = divmod(flat, sse.shape[1])
    gain = sse_parent - float(sse[cut, col])
    if gain <= 1e-12:
        return None
    # Split predicate is `x <= threshold` with the threshold at the left
    # boundary value itself: the float midpoint of two adjacent values
    # can round up to the right value and produce an empty child.
    threshold = float(xs[cut, col])
    return (int(features[col]), threshold, gain)


def _build_tree_py(
    columns, y, k, max_depth, min_samples_split, min_samples_leaf, rng,
) -> tuple[np.ndarray, ...]:
    """One tree of the Python form of ``build_trees``.

    Fits the samples of the feature-major ``(p, n)`` matrix ``columns``
    depth-first, drawing the ``k`` candidate features of every split
    search with ``rng.choice(p, size=k, replace=False)``, and returns the
    preorder node arrays ``(feature, threshold, left, right, value)``
    plus the per-feature summed gains.
    """
    X = columns.T
    p = X.shape[1]
    nodes: list[list] = []  # [feature, threshold, left, right, value]
    importance = np.zeros(p)

    def _build(idx: np.ndarray, depth: int) -> int:
        node_id = len(nodes)
        node = [-1, 0.0, -1, -1, float(y[idx].mean())]
        nodes.append(node)
        if (
            len(idx) < min_samples_split
            or (max_depth is not None and depth >= max_depth)
            or np.ptp(y[idx]) == 0.0
        ):
            return node_id
        features = rng.choice(p, size=k, replace=False)
        split = _best_split(X, y, idx, features, min_samples_leaf)
        if split is None:
            return node_id
        feature, threshold, gain = split
        mask = X[idx, feature] <= threshold
        importance[feature] += gain
        node[0], node[1] = feature, threshold
        node[2] = _build(idx[mask], depth + 1)
        node[3] = _build(idx[~mask], depth + 1)
        return node_id

    _build(np.arange(len(y)), 0)
    feature, threshold, left, right, value = zip(*nodes)
    return (
        np.array(feature, dtype=np.int64), np.array(threshold),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
        np.array(value), importance,
    )


def _build_trees_py(columns, y, ranks, classes, sample, trees) -> list[tuple]:
    """Python form of the ``build_trees`` kernel (the oracle): the plan's
    bootstrap gather, then :func:`_build_tree_py` for each of its trees
    in turn.  ``ranks`` and ``classes`` only feed the compiled form."""
    if sample is not None:
        columns, y = columns.take(sample, axis=1), y[sample]
    return [_build_tree_py(columns, y, *tree) for tree in trees]


def _choice_cc(lib: native.Library) -> Callable:
    """The C replay of ``rng.choice(p, size=k, replace=False)``."""
    fn = lib.choice
    fn.restype = None
    fn.argtypes = (
        [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 3
    )

    def choice(rng: np.random.Generator, p: int, k: int) -> np.ndarray:
        out, pool = np.empty(k, dtype=np.int64), np.empty(p, dtype=np.int64)
        seen = np.zeros(p, dtype=np.uint8)
        bitgen = rng.bit_generator
        with bitgen.lock:
            fn(bitgen.ctypes.bit_generator, p, k, out.ctypes.data,
               seen.ctypes.data, pool.ctypes.data)
        return out

    return choice


#: ``(p, k)`` shapes the build-time check draws both ways: the forests'
#: p = 419 (395 profile features plus 24 arch and derived columns) with
#: the k of "sqrt", "third" and None, and both branches of numpy's
#: ``choice`` for p > 10000 (Floyd's algorithm, tail shuffle).
_CHECK_SHAPES = ((419, 20), (419, 139), (419, 419), (20000, 1000), (20000, 5))


def _replays_choice(choice: Callable) -> bool:
    """Whether ``choice`` returns what ``Generator.choice`` does and
    leaves the generator in the same state, on :data:`_CHECK_SHAPES`."""
    for seed, (p, k) in enumerate(_CHECK_SHAPES):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            if not np.array_equal(
                want.choice(p, size=k, replace=False), choice(got, p, k)
            ):
                return False
        if want.bit_generator.state != got.bit_generator.state:
            return False
    return True


def _build_trees_cc(lib: native.Library) -> Callable | None:
    """The compiled ``build_trees``, or None when its feature draw does
    not replay this numpy's ``choice``.

    Its arguments: the feature-major ``(p, N)`` ``columns`` and ``(N,)``
    targets ``y`` of the whole data, the ``(u, N)`` class ``ranks`` and
    the ``(p,)`` column ``classes`` of :func:`_rank_classes`, the plan's
    ``sample`` (``n`` row indices, or None for all ``N`` rows) and one
    ``(k, max_depth, min_samples_split, min_samples_leaf, rng)`` per
    tree.  Index contract: every ``classes[f] < u``, every rank ``< N``
    (dense ranks over ``N`` samples), every sample row ``< N``, ``1 <=
    n``, ``N`` and ``n`` below ``2**31`` and ``1 <= k <= p``; the C side
    checks all of it before it reads and returns a status, raised here
    as :class:`~repro.errors.MLError`.  Each node of a tree owns one
    ``[lo, hi)`` segment of every class's order row.  Each tree gets
    ``2n - 1`` nodes of output capacity (no empty leaf), which the C
    side checks too (MLError past it), as it
    does its scratch allocation (MemoryError).  Returns one ``(feature,
    threshold, left, right, value, importance)`` per tree, as the
    Python form does.
    """
    if not _replays_choice(_choice_cc(lib)):
        log.warning(
            "the C feature draw does not replay this numpy's "
            "Generator.choice; trees are built by the Python form",
            extra={"ctx": {"numpy": np.__version__}},
        )
        return None
    fn = lib.build_trees
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 5
        + [ctypes.c_void_p] * 9 + [ctypes.c_int64]
    )
    # A generator's bitgen_t, from its documented "BitGenerator" capsule.
    bitgen_of = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", ctypes.pythonapi))

    def kernel(columns, y, ranks, classes, sample, trees) -> list[tuple]:
        p, N = columns.shape
        u = len(ranks)
        if ranks.shape != (u, N) or np.shape(y) != (N,) or (
            np.shape(classes) != (p,)
        ):
            raise MLError(
                "build_trees: columns, ranks, classes and y do not align"
            )
        columns = np.ascontiguousarray(columns, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        ranks = np.ascontiguousarray(ranks, dtype=np.int64)
        classes = np.ascontiguousarray(classes, dtype=np.int64)
        sample = np.ascontiguousarray(
            np.arange(N) if sample is None else sample, dtype=np.int64
        )
        n, m = len(sample), len(trees)
        params = np.array(
            [
                (k, -1 if max_depth is None else max_depth, split, leaf)
                for k, max_depth, split, leaf, _rng in trees
            ],
            dtype=np.int64,
        ).reshape(m, 4)
        bitgens = [tree[-1].bit_generator for tree in trees]
        pointers = (ctypes.c_void_p * m)(
            *(bitgen_of(bitgen.capsule, b"BitGenerator") for bitgen in bitgens)
        )
        # A binary tree over n samples with no empty leaf has at most
        # 2n - 1 nodes; the kernel still checks it never writes past cap.
        cap = m * max(2 * n - 1, 0)
        feature, left, right = (np.empty(cap, dtype=np.int64) for _ in range(3))
        threshold, value = np.empty(cap), np.empty(cap)
        importance = np.zeros((m, p))
        counts = np.zeros(m, dtype=np.int64)
        with contextlib.ExitStack() as stack:
            for lock in {id(b.lock): b.lock for b in bitgens}.values():
                stack.enter_context(lock)
            status = fn(
                columns.ctypes.data, y.ctypes.data, ranks.ctypes.data,
                classes.ctypes.data, sample.ctypes.data, N, n, p, u, m,
                params.ctypes.data, pointers, feature.ctypes.data,
                threshold.ctypes.data, left.ctypes.data, right.ctypes.data,
                value.ctypes.data, importance.ctypes.data,
                counts.ctypes.data, cap,
            )
        if status == -3:
            raise MemoryError("build_trees: scratch allocation failed")
        if status == -4:
            raise MLError("build_trees: an index or a size is out of range")
        if status < 0:
            raise MLError(f"build_trees: more than {cap} nodes")
        # One compact copy per array, split by tree: a view of the
        # buffers would pin their whole capacity for as long as a tree
        # lives.
        ends = np.cumsum(counts).tolist()
        compact = [
            a[:ends[-1] if m else 0].copy()
            for a in (feature, threshold, left, right, value)
        ]
        return [
            (*(a[lo:hi] for a in compact), gains)
            for lo, hi, gains in zip([0] + ends[:-1], ends, importance)
        ]

    return kernel


native.register("build_trees", _build_trees_py, _build_trees_cc)


def node_table(trees) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Fitted ``trees``, each the kernel's ``(feature, threshold, left,
    right, value, ...)`` arrays, as one ``(nodes, roots, values)`` table
    for :func:`descend`: their node arrays concatenated in tree order,
    child indices shifted by each tree's root offset (leaves keep
    ``left < 0``).
    """
    sizes = [len(tree[4]) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    feature, threshold, left, right, values = (
        np.concatenate(field) for field in list(zip(*trees))[:5]
    )
    shift = np.repeat(roots, sizes)
    leaf = left < 0
    left = np.where(leaf, left, left + shift)
    right = np.where(leaf, right, right + shift)
    return (feature, threshold, left, right), roots, values


#: (tree, row) pairs the numpy form of :func:`descend` walks at once.
#: Larger matrices go down in blocks of rows, which keeps the walk's
#: index arrays in cache (a 60-tree forest walks 273 rows per block).
_DESCEND_BLOCK = 1 << 14


def _descend_py(nodes: tuple[np.ndarray, ...], roots, X: np.ndarray) -> np.ndarray:
    """Python form of the ``descend`` kernel (the oracle): every row of
    every tree still at a split moves down one level per step, one numpy
    gather for all of them."""
    feature, threshold, left, right = nodes
    roots = np.asarray(roots, dtype=np.int64)
    n, p = X.shape
    leaves = np.empty((len(roots), n), dtype=np.int64)
    step = max(1, _DESCEND_BLOCK // len(roots))
    for lo in range(0, n, step):
        block = X[lo:lo + step]
        flat = block.ravel()
        at = np.repeat(roots, len(block))
        row_start = np.tile(np.arange(len(block), dtype=np.int64) * p, len(roots))
        live = np.flatnonzero(left[at] >= 0)
        while len(live):
            node = at[live]
            go_left = flat[row_start[live] + feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
            at[live] = node
            live = live[left[node] >= 0]
        leaves[:, lo:lo + step] = at.reshape(len(roots), len(block))
    return leaves


def _descend_cc(lib: native.Library) -> Callable:
    """The compiled ``descend``: each row walks each tree in C, reading
    ``X`` in place through its strides.  Index contract: every split's
    feature is below ``X``'s column count, both its children lie above
    it and inside the table, and every root lies inside the table; the C
    side checks all of it before it reads and returns a status, raised
    here as :class:`~repro.errors.MLError`."""
    fn = lib.descend
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_void_p] * 4 + [ctypes.c_int64, ctypes.c_void_p]
        + [ctypes.c_int64, ctypes.c_void_p] + [ctypes.c_int64] * 4
        + [ctypes.c_void_p]
    )

    def kernel(nodes, roots, X) -> np.ndarray:
        feature, left, right = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (nodes[0], nodes[2], nodes[3])
        )
        threshold = np.ascontiguousarray(nodes[1], dtype=np.float64)
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        count = len(feature)
        if not len(threshold) == len(left) == len(right) == count:
            raise MLError("descend: the node arrays do not align")
        X = np.asarray(X, dtype=np.float64)
        if any(stride % X.itemsize for stride in X.strides):
            X = np.ascontiguousarray(X)
        n, p = X.shape
        leaves = np.empty((len(roots), n), dtype=np.int64)
        status = fn(
            feature.ctypes.data, threshold.ctypes.data, left.ctypes.data,
            right.ctypes.data, count, roots.ctypes.data, len(roots),
            X.ctypes.data, n, p, X.strides[0] // X.itemsize,
            X.strides[1] // X.itemsize, leaves.ctypes.data,
        )
        if status:
            raise MLError("descend: a node or root index is out of range")
        return leaves

    return kernel


native.register("descend", _descend_py, _descend_cc)


def descend(nodes: tuple[np.ndarray, ...], roots, X: np.ndarray) -> np.ndarray:
    """Leaf reached by every row of ``X`` in every tree: a
    ``(len(roots), len(X))`` matrix of node indices.

    ``nodes`` is a preorder ``(feature, threshold, left, right)`` table
    with ``left < 0`` marking a leaf, and ``roots`` index the trees'
    root nodes in it.  A row goes to the left child where ``x <=
    threshold`` (so a NaN goes right).  Runs the ``descend`` kernel of
    :mod:`repro.native`.
    """
    fn, _backend = native.resolve("descend")
    return fn(nodes, roots, X)


def _normalized(importance: np.ndarray) -> np.ndarray:
    """A tree's summed split gains as shares of their total."""
    total = importance.sum()
    return importance / total if total > 0 else importance


def _check_rows(X, n_features: int | None, model: str) -> np.ndarray:
    """``X`` as float64 rows for a ``model`` fitted on ``n_features``.

    Non-finite values fail loud, as they do in fitting: a NaN would
    otherwise go right at every split and predict silently."""
    if n_features is None:
        raise NotFittedError(f"{model} is not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise MLError(
            f"X must be 2-D with {n_features} features, got {X.shape}"
        )
    if not np.isfinite(X).all():
        raise MLError("X must be finite (found NaN or inf)")
    return X


class RegressionTree:
    """A CART regression tree.

    Parameters mirror the usual conventions: ``max_depth`` bounds tree
    height (None = unbounded), ``min_samples_leaf`` the smallest allowed
    child, ``max_features`` the per-split feature subsample ("sqrt",
    "third", "log2", an int, a float fraction, or None for all).

    The fitted tree is the ``build_trees`` kernel's preorder arrays:
    ``nodes_ = (feature, threshold, left, right)``, where ``left < 0``
    marks a leaf, and the node means ``value_``.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features=None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise MLError("max_depth must be >= 1 or None")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise MLError("invalid min_samples_leaf / min_samples_split")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        if rng is not None and not isinstance(rng, np.random.Generator):
            raise MLError(
                f"rng must be a numpy.random.Generator or None, not {rng!r}"
            )
        self.rng = np.random.default_rng() if rng is None else rng
        self.nodes_: tuple[np.ndarray, ...] | None = None
        self.value_: np.ndarray | None = None
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None

    # --------------------------------------------------------------- fit

    def fit(self, X, y) -> "RegressionTree":
        X, y = _check_fit_data(X, y)
        columns = np.ascontiguousarray(X.T)
        build, _backend = native.resolve("build_trees")
        ((*nodes, self.value_, importance),) = build(
            columns, y, *_rank_classes(columns), None,
            [(*self._settings(len(columns)), self.rng)],
        )
        self.nodes_ = tuple(nodes)
        self.n_features_ = len(columns)
        self.feature_importances_ = _normalized(importance)
        return self

    def _settings(self, n_features: int) -> tuple:
        """This tree's ``(k, max_depth, min_samples_split,
        min_samples_leaf)`` row of a ``build_trees`` call over
        ``n_features`` columns."""
        return (
            _resolve_max_features(self.max_features, n_features),
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
        )

    # ----------------------------------------------------------- predict

    def predict(self, X) -> np.ndarray:
        return self.value_[self.apply(X)]

    def apply(self, X) -> np.ndarray:
        """Leaf index reached by every row (used by the model tree)."""
        X = _check_rows(X, self.n_features_, "RegressionTree")
        return descend(self.nodes_, [0], X)[0]

    @property
    def n_nodes(self) -> int:
        return 0 if self.value_ is None else len(self.value_)

    @property
    def depth(self) -> int:
        """Height of the fitted tree (0 for a single leaf)."""
        if self.nodes_ is None:
            raise NotFittedError("RegressionTree is not fitted")
        _feature, _threshold, left, right = self.nodes_
        level, height = np.zeros(1, dtype=np.int64), 0
        while True:
            level = level[left[level] >= 0]
            if not len(level):
                return height
            level = np.concatenate([left[level], right[level]])
            height += 1
