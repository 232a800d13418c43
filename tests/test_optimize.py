"""The simplex minimiser against scipy, bit for bit."""
import itertools
import math
import sys

import numpy as np
import scipy.optimize

from parabolic_sv.optimize import _ordered, minimize

SIMPLEX_OPTIONS = {"maxiter": 400, "xatol": 1e-10, "fatol": 1e-12}


def simplex_problem(seed):
    """A seeded 2-D or 3-D objective and start.

    The families are smooth (a weighted quadratic, Rosenbrock's valley),
    kinked (abs sums, a max) and quantised: a staircase whose plateaus tie
    vertex values, so the simplex ends on tied vertices.  Every seventh
    start has a zero coordinate and every eleventh is all zeros, which the
    initial simplex treats apart.
    """
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    kind = seed % 5
    centre = rng.normal(size=n).tolist()
    weight = rng.uniform(0.5, 10.0, n).tolist()

    def fun(x):
        x = [float(v) for v in x]
        if kind == 0:
            return sum(w * (v - c) * (v - c) for v, c, w in zip(x, centre, weight))
        if kind == 1:
            return sum(100.0 * (x[i + 1] - x[i] * x[i]) ** 2 + (1.0 - x[i]) ** 2 for i in range(n - 1))
        if kind == 2:
            return math.floor(8.0 * sum(abs(v - c) for v, c in zip(x, centre))) / 8.0
        if kind == 3:
            return sum(abs(v - c) for v, c in zip(x, centre)) + 0.1 * math.sin(5.0 * x[0])
        return max(abs(v - c) for v, c in zip(x, centre))

    x0 = rng.normal(size=n)
    if seed % 7 == 0:
        x0[0] = 0.0
    if seed % 11 == 0:
        x0[:] = 0.0
    return fun, x0


def scipy_simplex(fun, x0, **options):
    return scipy.optimize.minimize(fun, x0, method="Nelder-Mead", options={**options, "adaptive": True})


class TestSimplex:
    def test_matches_scipy_bit_for_bit(self):
        tied_ends = zero_starts = 0
        for seed in range(400):
            fun, x0 = simplex_problem(seed)
            want = scipy_simplex(fun, x0, **SIMPLEX_OPTIONS)
            got = minimize(fun, x0, **SIMPLEX_OPTIONS)
            assert list(got.x) == want.x.tolist(), seed
            assert (got.fun, got.nit, got.success) == (want.fun, want.nit, want.success), seed
            fsim = want.final_simplex[1].tolist()
            tied_ends += len(set(fsim)) < len(fsim)
            zero_starts += 0.0 in x0
        # the cases the port must order and start as scipy does are covered
        assert tied_ends >= 50 and zero_starts >= 80

    def test_iteration_cap(self):
        fun, x0 = simplex_problem(1)
        want = scipy_simplex(fun, x0, maxiter=7, xatol=1e-12, fatol=1e-12)
        got = minimize(fun, x0, maxiter=7, xatol=1e-12, fatol=1e-12)
        assert (got.nit, got.success) == (want.nit, want.success) == (7, False)
        assert list(got.x) == want.x.tolist()


class TestOrdering:
    """The vertex order is scipy's np.argsort order, ties included."""

    @staticmethod
    def value_sets(rng, n):
        for _ in range(300):
            yield rng.normal(size=n).tolist()  # distinct
            pool = rng.normal(size=2).tolist()
            yield [pool[i] for i in rng.integers(0, 2, n)]  # ties
            yield [1e9 if u < 0.6 else v for u, v in zip(rng.random(n), rng.normal(size=n))]  # plateaus
        yield [1e9] * n
        yield rng.normal(size=n - 1).tolist() + [math.nan]  # argsort puts NaN last
        yield [0.0] * (n - 1) + [-0.0]

    def test_matches_argsort(self):
        rng = np.random.default_rng(11)
        ties = unstable = 0
        for n in (3, 4):
            for fsim in self.value_sets(rng, n):
                sim = [(float(i),) for i in range(n)]
                got_sim, got_f = _ordered(sim, fsim)
                order = np.argsort(fsim).tolist()
                assert got_sim == [sim[i] for i in order], fsim
                assert got_f == [fsim[i] for i in order], fsim
                ties += len(set(fsim)) < n
                unstable += order != sorted(range(n), key=fsim.__getitem__)
        # the ties include orders that a stable sort would not give
        assert ties >= 400 and unstable >= 10

    def test_three_vertices_order_without_numpy(self, monkeypatch):
        # every rank, tie and NaN pattern of three values, with signed zeros
        # and infinities: a stable sort with NaN last is np.argsort's order
        values = [1.0, 2.0, 3.0, math.nan, 0.0, -0.0, math.inf, -math.inf]
        patterns = [list(p) for p in itertools.product(values, repeat=3)]
        orders = [np.argsort(fsim).tolist() for fsim in patterns]
        monkeypatch.setitem(sys.modules, "numpy", None)
        sim = [(0.0,), (1.0,), (2.0,)]
        for fsim, order in zip(patterns, orders):
            got_sim, got_f = _ordered(sim, fsim)
            assert got_sim == [sim[i] for i in order], fsim
            assert got_f == [fsim[i] for i in order], fsim

    def test_two_dimensional_search_needs_no_numpy(self, monkeypatch):
        # the 2-D staircases end on tied vertices, ordered as scipy orders them
        problems = [simplex_problem(seed) for seed in range(2, 400, 10)]
        wants = [scipy_simplex(fun, x0, **SIMPLEX_OPTIONS) for fun, x0 in problems]
        assert sum(len(set(w.final_simplex[1].tolist())) < 3 for w in wants) >= 10
        monkeypatch.setitem(sys.modules, "numpy", None)
        for (fun, x0), want in zip(problems, wants):
            got = minimize(fun, x0.tolist(), **SIMPLEX_OPTIONS)
            assert list(got.x) == want.x.tolist()
            assert (got.fun, got.nit, got.success) == (want.fun, want.nit, want.success)
