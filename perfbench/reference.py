"""Expected results computed without relcentral's engines.

Distances come from ``scipy.sparse.csgraph``. On unweighted graphs the
shortest-path DAG is read off those distances (a -> b is a DAG edge for
source s when d(s,b) = d(s,a) + 1) and path counts and path-product
weights are propagated over it level by level. On the weighted workload
the weights are continuous, so every shortest path is unique (asserted
at construction) and scipy's predecessor trees give every value exactly.

Every value of every table is checked at relative tolerance ``RTOL``.
Unweighted pairwise-f betweenness comes from the dependency recurrence
over the DAG, and is itself checked against the identities
sum_e eb = sum_{s!=t} f(s,t) d(s,t) and sum_v vb = sum_{s!=t} f(s,t) (d(s,t) - 1)
before any output is compared with it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

RTOL = 1e-9
ALL_METRICS = ["degree", "harmonic", "betweenness", "edge-betweenness"]  # the CLI's --metric all
TIE_RTOL = 1e-9  # weighted paths closer than this would count as ties
_TRIPLE_CHUNK = 4_000_000  # candidate (source, edge) pairs examined at once


def close(got, want) -> np.ndarray:
    """Elementwise: equal at relative tolerance RTOL, with an absolute floor
    of 1e-12 times the largest expected value."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    return np.abs(got - want) <= RTOL * np.maximum(np.abs(got), np.abs(want)) + 1e-12 * scale


class Reference:
    """Graph-level reference data; ``expected`` adds one relevance vector."""

    def __init__(self, gi, need_paths: bool):
        self.n = n = gi.n
        self.u, self.v = gi.u, gi.v
        self.m = len(gi.u)
        self.weighted = gi.w is not None
        ones = np.ones(2 * self.m)
        rows = np.concatenate([gi.u, gi.v])
        cols = np.concatenate([gi.v, gi.u])
        self.A = sparse.csr_array((ones, (rows, cols)), shape=(n, n))
        self.edge_of = {(a, b): e for e, (a, b) in enumerate(zip(gi.u.tolist(), gi.v.tolist()))}
        self.D = None
        if not need_paths:
            return
        if self.weighted:
            W = sparse.csr_array((np.concatenate([gi.w, gi.w]), (rows, cols)), shape=(n, n))
            self.D, self.pred = csgraph.shortest_path(
                W, method="D", directed=False, return_predecessors=True
            )
            self._assert_unique_paths(gi.w)
            self.order = np.argsort(self.D, axis=1, kind="stable")
            self.eidmat = np.full((n, n), -1, dtype=np.int64)
            self.eidmat[gi.u, gi.v] = np.arange(self.m)
            self.eidmat[gi.v, gi.u] = np.arange(self.m)
        else:
            D = csgraph.shortest_path(self.A, method="D", directed=False, unweighted=True)
            self.D = D
            self.L = np.where(np.isfinite(D), D, -1).astype(np.int32)
            self._build_dag()

    # --- construction ---

    def _assert_unique_paths(self, w: np.ndarray) -> None:
        n, D = self.n, self.D
        tight = np.zeros((n, n), dtype=np.int64)
        for a, b in ((self.u, self.v), (self.v, self.u)):
            cand = D[:, a] + w[None, :]
            hit = np.abs(cand - D[:, b]) <= TIE_RTOL * np.maximum(1.0, D[:, b])
            s_idx, e_idx = np.nonzero(hit & np.isfinite(cand))
            np.add.at(tight, (s_idx, b[e_idx]), 1)
        reach = np.isfinite(D)
        np.fill_diagonal(reach, False)
        if not np.all(tight[reach] == 1):
            raise RuntimeError("weighted workload has tied shortest paths; reference needs unique ones")

    def _build_dag(self) -> None:
        """DAG edges (s, a -> b, edge id) as flat indices, sorted by d(s,b)."""
        n, L = self.n, self.L
        if n * n >= 2**31:
            raise ValueError("graph too large for the flat-index reference")
        a_all = np.concatenate([self.u, self.v]).astype(np.int32)
        b_all = np.concatenate([self.v, self.u]).astype(np.int32)
        e_all = np.concatenate([np.arange(self.m)] * 2).astype(np.int32)
        step = max(1, _TRIPLE_CHUNK // len(a_all))
        parts = []
        for s0 in range(0, n, step):
            La = L[s0:s0 + step][:, a_all]
            Lb = L[s0:s0 + step][:, b_all]
            s_loc, k = np.nonzero((La >= 0) & (Lb == La + 1))
            s = (s_loc + s0).astype(np.int32)
            parts.append((s * n + a_all[k], s * n + b_all[k], e_all[k], Lb[s_loc, k]))
        src, dst, eid, lev = (np.concatenate(x) for x in zip(*parts))
        order = np.argsort(lev, kind="stable")
        self.src, self.dst, self.eid = src[order], dst[order], eid[order]
        self.max_level = int(L.max())
        self.bounds = np.searchsorted(lev[order], np.arange(1, self.max_level + 2))
        sigma = np.zeros(n * n)
        sigma[np.arange(n) * (n + 1)] = 1.0
        for sl in self._levels():
            np.add.at(sigma, self.dst[sl], sigma[self.src[sl]])
        self.sigma = sigma

    def _levels(self, reverse: bool = False):
        ks = range(self.max_level - 1, -1, -1) if reverse else range(self.max_level)
        for k in ks:
            yield slice(self.bounds[k], self.bounds[k + 1])

    # --- expected values for one request ---

    def expected(self, f: str, metric: str, r: np.ndarray) -> dict:
        """Map of table name -> ("vertex" | "edge", values)."""
        out = {}
        wanted = ALL_METRICS if metric == "all" else [metric]
        if f == "product" and "degree" in wanted:
            out["degree"] = ("vertex", r * (self.A @ r))
        if wanted == ["degree"]:
            return out
        if self.weighted:
            h, vb, eb = self._tree_values(f, r)
            out.update(harmonic=("vertex", h), betweenness=("vertex", vb))
            out["edge-betweenness"] = ("edge", eb)
        elif f == "product":
            reach = self.L > 0
            F = np.where(reach, r[:, None] * r[None, :], 0.0)
            Dm = np.where(reach, self.D, 1.0)
            vb, eb = self._dag_pairwise(r)
            for total, want in ((vb.sum(), (F * (Dm - 1.0)).sum()), (eb.sum(), (F * Dm).sum())):
                if not close(np.array([total]), np.array([want]))[0]:
                    raise RuntimeError(f"reference betweenness sums to {total!r}, identity gives {want!r}")
            out["harmonic"] = ("vertex", (F / Dm).sum(axis=1))
            out["betweenness"] = ("vertex", vb)
            out["edge-betweenness"] = ("edge", eb)
        else:
            h, vb, eb = self._dag_path_prod(r)
            out.update(harmonic=("vertex", h), betweenness=("vertex", vb))
            out["edge-betweenness"] = ("edge", eb)
        return {k: v for k, v in out.items() if k in wanted}

    def _dag_pairwise(self, r: np.ndarray):
        """Product-f vertex and edge betweenness: the dependency of a on b,
        sigma(s,a) / sigma(s,b) * (f(s,b) + delta(s,b)), summed from the
        deepest level up."""
        n = self.n
        delta = np.zeros(n * n)
        eb = np.zeros(self.m)
        for sl in self._levels(reverse=True):
            dst, src = self.dst[sl], self.src[sl]
            c = self.sigma[src] / self.sigma[dst] * (r[dst // n] * r[dst % n] + delta[dst])
            np.add.at(delta, src, c)
            eb += np.bincount(self.eid[sl], weights=c, minlength=self.m)
        delta[np.arange(n) * (n + 1)] = 0.0
        return delta.reshape(n, n).sum(axis=0), eb

    def _dag_path_prod(self, r: np.ndarray):
        n = self.n
        diag = np.arange(n) * (n + 1)
        fwd = np.zeros(n * n)
        fwd[diag] = r
        for sl in self._levels():
            dst = self.dst[sl]
            np.add.at(fwd, dst, fwd[self.src[sl]] * r[dst % n])
        K = np.zeros(n * n)
        eb = np.zeros(self.m)
        inv_sigma = np.divide(1.0, self.sigma, out=np.zeros_like(self.sigma), where=self.sigma > 0)
        for sl in self._levels(reverse=True):
            dst, src = self.dst[sl], self.src[sl]
            J = r[dst % n] * (inv_sigma[dst] + K[dst])
            np.add.at(K, src, J)
            eb += np.bincount(self.eid[sl], weights=fwd[src] * J, minlength=self.m)
        reach = (self.L > 0).ravel()
        Dm = np.where(reach, self.D.ravel(), 1.0)
        h = np.where(reach, fwd * inv_sigma / Dm, 0.0).reshape(n, n).sum(axis=1)
        vb = np.where(reach, fwd * K, 0.0).reshape(n, n).sum(axis=0)
        return h, vb, eb

    def _tree_values(self, f: str, r: np.ndarray):
        n, D, pred, order = self.n, self.D, self.pred, self.order
        rows = np.arange(n)
        reach = np.isfinite(D)
        np.fill_diagonal(reach, False)
        if f == "product":
            val = r[:, None] * r[None, :]
        else:
            val = np.zeros((n, n))
            val[rows, rows] = r
            for j in range(1, n):
                t = order[:, j]
                p = pred[rows, t]
                ok = p >= 0
                val[rows[ok], t[ok]] = val[rows[ok], p[ok]] * r[t[ok]]
        val = np.where(reach, val, 0.0)
        h = (val / np.where(reach, D, 1.0)).sum(axis=1)
        acc = val.copy()
        eb = np.zeros(self.m)
        for j in range(n - 1, 0, -1):
            t = order[:, j]
            p = pred[rows, t]
            ok = p >= 0
            s_ok, t_ok, p_ok = rows[ok], t[ok], p[ok]
            acc[s_ok, p_ok] += acc[s_ok, t_ok]
            eb += np.bincount(self.eidmat[p_ok, t_ok], weights=acc[s_ok, t_ok], minlength=self.m)
        vb = np.where(reach, acc - val, 0.0).sum(axis=0)
        return h, vb, eb

    # --- comparing a result document ---

    def check(self, doc: dict, expected: dict) -> list[str]:
        """Mismatch messages; an empty list means the document is correct."""
        errors = []
        vtables, etables = doc.get("vertices", {}), doc.get("edges", {})
        want_v = {k for k, (kind, _) in expected.items() if kind == "vertex"}
        if set(vtables) != want_v or set(etables) != set(expected) - want_v:
            return [f"tables {sorted(vtables)} + {sorted(etables)}, expected {sorted(expected)}"]
        for name, (kind, want) in expected.items():
            if kind == "vertex":
                table = vtables[name]
                if len(table) != self.n:
                    errors.append(f"{name}: {len(table)} vertices, expected {self.n}")
                    continue
                got = np.zeros(self.n)
                for label, x in table.items():
                    got[int(label)] = x
            else:
                table = etables[name]
                if len(table) != self.m:
                    errors.append(f"{name}: {len(table)} edges, expected {self.m}")
                    continue
                got = np.zeros(self.m)
                for row in table:
                    a, b = int(row["source"]), int(row["target"])
                    got[self.edge_of[(min(a, b), max(a, b))]] = row["value"]
            bad = np.flatnonzero(~close(got, want))
            if len(bad):
                i = int(bad[0])
                errors.append(f"{name}: {len(bad)} values off, first at #{i}: {got[i]!r} vs {want[i]!r}")
        return errors

    # --- counts for the traced run ---

    def batched_counts(self, block: int = 256) -> dict:
        """Lockstep-BFS work implied by the reference distances, for blocks
        of ``block`` sources in the program's vertex order (first appearance
        in the edge file)."""
        seq = np.column_stack([self.u, self.v]).ravel()
        labels, first = np.unique(seq, return_index=True)
        internal = labels[np.argsort(first, kind="stable")]
        ecc = self.L.max(axis=1)[internal]
        levels = entries = denom = 0
        for b0 in range(0, self.n, block):
            lv = int(ecc[b0:b0 + block].max())
            b = len(ecc[b0:b0 + block])
            levels += lv
            denom += b * self.n * lv
        entries = int((self.L >= 0).sum())
        return {
            "blocks": -(-self.n // block),
            "levels": levels,
            "frontier_entries": entries,
            "frontier_slots": denom,
        }
