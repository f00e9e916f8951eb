"""Array engine for weighted graphs.

Sources run in the fixed blocks of ``_sweep``. For one block of b sources:

- compiled Dijkstra (``scipy.sparse.csgraph``) gives the b x V distances;
- the shortest-path DAGs of all b sources are one mask over the edge
  arrays: p -> w is an arc when d[p] < d[w] and d[p] + weight ties d[w]
  within ``TIE_TOL``, the rule of ``paths.sssp``;
- the b DAGs are stacked into one graph whose nodes are numbered in
  (source, distance) order, so every arc runs from a lower to a higher
  node number. Each recurrence over the DAG, the path counts sigma, the
  path-variant forward state and the backward credit (Brandes 2001; the
  path variants follow Brandes 2008), is linear, so each one is a single
  sparse triangular solve over the stacked graph.

Path counts are float64. They are exact integers while below 2**53, and
then sigma_p / sigma_w is the correctly rounded ratio of the exact
counts. A block whose counts reach 2**53 recomputes them with Python
integers over the same arcs: pairwise f then takes the exact ratios and
never needs a count as a float, while path f needs the counts themselves
and raises ``SigmaOverflowError`` when one does not fit a float.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve_triangular

from .errors import SigmaOverflowError
from .paths import TIE_TOL
from .relevance import Variant, pair_value_block

EXACT_LIMIT = 2.0**53


def _distances(g, S: np.ndarray) -> np.ndarray:
    u, v = g.edge_endpoints
    W = sparse.csr_array((g.edge_weights, (u, v)), shape=(g.vertex_count,) * 2)
    return dijkstra(W, directed=False, indices=S)


def _closes_shortest_path(dp: np.ndarray, w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Where p -> w is a DAG arc: d[p] < d[w] and d[p] + weight ties d[w]."""
    via = dp + w
    # edges of components a source does not reach compare inf with inf
    with np.errstate(invalid="ignore"):
        tied = np.abs(via - dw) <= TIE_TOL * np.maximum(np.maximum(via, dw), 1.0)
    return (dp < dw) & tied


class _StackedDag:
    """Shortest-path DAGs of one source block as arc arrays.

    Node k of the stacked graph is vertex ``vertex[k]`` seen from block
    source ``k // V``; nodes ascend by distance within each source, and
    node ``i * V`` is source i itself. Arcs are sorted by tail.
    """

    def __init__(self, g, D: np.ndarray):
        b, n = D.shape
        u, v = g.edge_endpoints
        w = g.edge_weights
        self.shape, self.edge_count = D.shape, g.edge_count
        order = np.argsort(D, axis=1, kind="stable")
        # flat index into a (b, V) array for each node, and its inverse
        self.flat = (order + n * np.arange(b)[:, None]).ravel()
        node = np.empty(b * n, dtype=np.int64)
        node[self.flat] = np.arange(b * n)
        node = node.reshape(b, n)

        du, dv = D[:, u], D[:, v]
        r1, e1 = np.nonzero(_closes_shortest_path(du, w, dv))
        r2, e2 = np.nonzero(_closes_shortest_path(dv, w, du))
        tail = np.concatenate([node[r1, u[e1]], node[r2, v[e2]]])
        head = np.concatenate([node[r1, v[e1]], node[r2, u[e2]]])
        by_tail = np.lexsort((head, tail))
        self.tail, self.head = tail[by_tail], head[by_tail]
        self.edge = np.concatenate([e1, e2])[by_tail]
        self.vertex = order.ravel()
        self.sources = n * np.arange(b)
        self.size = b * n

        # CSC pattern of the unit lower-triangular I - P, with P[head, tail]
        # an arc; read as CSR the same arrays hold its transpose
        nodes, arcs = self.size, len(self.tail)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.tail, minlength=nodes) + 1)]
        )
        self._arc_slot = np.arange(arcs) + self.tail + 1
        self._indices = np.empty(nodes + arcs, dtype=np.int64)
        self._indices[self._indptr[:-1]] = np.arange(nodes)
        self._indices[self._arc_slot] = self.head

    def to_nodes(self, X: np.ndarray) -> np.ndarray:
        """A (b, V) array in node order."""
        return X.ravel()[self.flat]

    def to_block(self, x: np.ndarray) -> np.ndarray:
        """A node-order vector as a (b, V) array."""
        out = np.empty(self.size)
        out[self.flat] = x
        return out.reshape(self.shape)

    def forward(self, coef, rhs: np.ndarray) -> np.ndarray:
        """x[w] = rhs[w] + sum over arcs p -> w of coef * x[p]."""
        return self._solve(coef, rhs, backward=False)

    def backward(self, coef, rhs: np.ndarray) -> np.ndarray:
        """x[p] = rhs[p] + sum over arcs p -> w of coef * x[w]."""
        return self._solve(coef, rhs, backward=True)

    def _solve(self, coef, rhs, backward: bool) -> np.ndarray:
        data = np.ones(len(self._indices))
        data[self._arc_slot] = -np.asarray(coef, dtype=np.float64)
        fmt = sparse.csr_array if backward else sparse.csc_array
        M = fmt((data, self._indices, self._indptr), shape=(self.size, self.size))
        return spsolve_triangular(
            M, np.array(rhs, dtype=np.float64), lower=not backward,
            unit_diagonal=True, overwrite_A=True, overwrite_b=True,
        )

    def at_tails(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of per-arc ``values`` over the arcs leaving it."""
        return np.bincount(self.tail, weights=values, minlength=self.size)

    def vertex_credit(self, x: np.ndarray) -> np.ndarray:
        """Per vertex, the sum of a node vector over all non-source nodes."""
        x = x.copy()
        x[self.sources] = 0.0
        return np.bincount(self.vertex, weights=x, minlength=self.shape[1])

    def edge_credit(self, values: np.ndarray) -> np.ndarray:
        """Per edge, the sum of per-arc ``values``."""
        return np.bincount(self.edge, weights=values, minlength=self.edge_count)

    def _counts(self):
        """Path counts as float64, plus Python integers when the floats
        may be inexact (None otherwise)."""
        rhs = np.zeros(self.size)
        rhs[self.sources] = 1.0
        sigma = self.forward(1.0, rhs)
        if np.all(sigma < EXACT_LIMIT):  # also false for inf and nan
            return sigma, None
        exact = [0] * self.size
        for s in self.sources.tolist():
            exact[s] = 1
        # arcs ascend by tail and every arc into a node has a lower tail,
        # so a count is complete before it is propagated
        for t, h in zip(self.tail.tolist(), self.head.tolist()):
            exact[h] += exact[t]
        return sigma, exact

    def count_ratios(self) -> np.ndarray:
        """sigma[tail] / sigma[head] per arc, correctly rounded."""
        sigma, exact = self._counts()
        if exact is None:
            return sigma[self.tail] / sigma[self.head]
        arcs = zip(self.tail.tolist(), self.head.tolist())
        return np.array([exact[t] / exact[h] for t, h in arcs])

    def float_counts(self) -> np.ndarray:
        """Path counts per node, rounded to float64 where not exact."""
        sigma, exact = self._counts()
        if exact is None:
            return sigma
        try:
            return np.array(exact, dtype=np.float64)
        except OverflowError as exc:
            raise SigmaOverflowError(
                f"shortest-path counts exceed float64 range: {exc}"
            ) from exc


def block(g, R, f, S: np.ndarray, harmonic: bool, betweenness: bool):
    """Harmonic values of the sources S and their betweenness credit."""
    D = _distances(g, S)
    reach = np.isfinite(D) & (D > 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if f.variant.is_pairwise:
            fv = pair_value_block(f, S, R)
            hv = np.where(reach, fv / D, 0.0).sum(axis=1) if harmonic else None
            if not betweenness:
                return hv, None, None
            dag = _StackedDag(g, D)
            h = dag.head
            ratio = dag.count_ratios()
            f_head = dag.to_nodes(fv)[h]
            delta = dag.backward(ratio, dag.at_tails(ratio * f_head))
            return hv, dag.vertex_credit(delta), dag.edge_credit(ratio * (f_head + delta[h]))

        dag = _StackedDag(g, D)
        t, h = dag.tail, dag.head
        sigma = dag.float_counts()
        r = R.values[dag.vertex]
        r_head = r[h]
        if f.variant is Variant.PATH_PROD:
            rhs = np.zeros(dag.size)
            rhs[dag.sources] = r[dag.sources]
            fwd = dag.forward(r_head, rhs)
        else:  # PATH_SUM
            fwd = dag.forward(1.0, r * sigma)
        hv = None
        if harmonic:
            hv = np.where(reach, dag.to_block(fwd / sigma) / D, 0.0).sum(axis=1)
        if not betweenness:
            return hv, None, None

        inv_head = 1.0 / sigma[h]
        if f.variant is Variant.PATH_PROD:
            # succ[p]: the sum over DAG suffixes from a successor of p of
            # their path product over sigma_t; K the same from p itself
            succ = dag.backward(r_head, dag.at_tails(r_head * inv_head))
            K = r_head * (inv_head + succ[h])
            return hv, dag.vertex_credit(fwd * succ), dag.edge_credit(fwd[t] * K)
        # PATH_SUM needs two suffix aggregates: plain 1/sigma_t mass (cnt)
        # and suffix-sum-of-R mass (tot)
        cnt = dag.backward(1.0, dag.at_tails(inv_head))
        kc = inv_head + cnt[h]
        tot = dag.backward(1.0, dag.at_tails(r_head * kc))
        ks = r_head * kc + tot[h]
        return (
            hv,
            dag.vertex_credit(fwd * cnt + sigma * tot),
            dag.edge_credit(fwd[t] * kc + sigma[t] * ks),
        )
