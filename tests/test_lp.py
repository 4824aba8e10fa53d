import time
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tabular_market, ub_fa_lp
from tsa import lp
from tsa.errors import TimeLimitError
from tsa.instances import MNL, CardinalityProfile, Instance, generate_random_instance
from tsa.lp import (PIVOT_TOL, LpProblem, _bland_enter, _bland_leave, maximize_concave,
                    packing_ipm, solve_lp)
from tsa.util import Deadline, check_deadline


def enumerate_vertices_best(problem: LpProblem):
    """Brute-force LP optimum via basis enumeration; test oracle for tiny LPs."""
    n = problem.c.size
    rows = [(problem.A[i], problem.b[i]) for i in range(problem.b.size)]
    rows += [(-(np.eye(n)[j]), 0.0) for j in range(n)]
    best = None
    feasible_any = False
    for combo in combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if (x < -1e-9).any() or (problem.A @ x - problem.b > 1e-9).any():
            continue
        feasible_any = True
        val = float(problem.c @ x)
        if best is None or val > best:
            best = val
    if not feasible_any:
        return None
    return best


def test_single_bound():
    sol = solve_lp(LpProblem(np.array([1.0]), np.array([[1.0]]), np.array([1.0])))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0)


def test_two_rows():
    sol = solve_lp(LpProblem(np.array([1.0]), np.array([[2.0], [1.0]]), np.array([1.0, 0.4])))
    assert sol.x[0] == pytest.approx(0.4)


def test_low_value_1x1_lp():
    # max 0.25 y  s.t. 1.5 y <= 1 (twice)  ->  y = 2/3, value 1/6
    sol = solve_lp(LpProblem(np.array([0.25]), np.array([[1.5], [1.5]]), np.array([1.0, 1.0])))
    assert sol.x[0] == pytest.approx(2.0 / 3.0)
    assert sol.value == pytest.approx(1.0 / 6.0)


def test_statuses():
    assert solve_lp(LpProblem(np.array([1.0, 1.0]), np.zeros((0, 2)), np.zeros(0))).status == "unbounded"
    infeas = LpProblem(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="b >= 0"):
        solve_lp(infeas)
    free = LpProblem(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
    assert solve_lp(free).status == "unbounded"


def test_equality_rows():
    # max x0 + x1  s.t.  x0 + x1 <= 2, x0 = 3 x1  ->  x = (1.5, 0.5)
    p = LpProblem(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([2.0]))
    p.add_equality(np.array([1.0, -3.0]), 0.0)
    sol = solve_lp(p)
    np.testing.assert_allclose(sol.x, [1.5, 0.5])
    assert sol.value == pytest.approx(2.0)
    p.add_equality(np.array([0.0, 1.0]), 0.25)  # its >= half has b = -0.25
    with pytest.raises(ValueError, match="b >= 0"):
        solve_lp(p)


def test_solve_lp_refuses_a_negative_rhs():
    """The slack basis is the start, so one b < 0, however small, is refused;
    -0.0 is not negative."""
    A, c = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="b >= 0"):
        solve_lp(LpProblem(c, A, np.array([1.0, -1e-300])))
    sol = solve_lp(LpProblem(c, A, np.array([1.0, -0.0])))
    assert sol.status == "optimal" and sol.value == pytest.approx(2.0)


@given(st.integers(0, 2000))
@settings(max_examples=120, deadline=None)
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    rows = int(rng.integers(1, 9))
    A = rng.normal(size=(rows, n))
    b = rng.uniform(-0.3, 2.0, size=rows)
    c = rng.normal(size=n)
    # Keep the region bounded so both methods agree on a finite optimum.
    A = np.vstack([A, np.ones((1, n))])
    b = np.concatenate([b, [5.0]])
    if (b < 0).any():
        with pytest.raises(ValueError, match="b >= 0"):
            solve_lp(LpProblem(c, A, b))
        return
    sol = solve_lp(LpProblem(c, A, b))
    best = enumerate_vertices_best(LpProblem(c, A, b))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(best, abs=1e-7)


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_duals_satisfy_complementary_slackness(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    rows = int(rng.integers(1, 6))
    A = rng.normal(size=(rows, n))
    b = rng.uniform(0.1, 2.0, size=rows)
    c = rng.normal(size=n)
    A = np.vstack([A, np.ones((1, n))])
    b = np.concatenate([b, [4.0]])
    sol = solve_lp(LpProblem(c, A, b))
    if sol.status != "optimal":
        return
    assert sol.cs_residual <= 1e-6
    assert (sol.dual >= -1e-8).all()
    assert abs(float(sol.dual @ b) - sol.value) <= 1e-6  # strong duality


def test_frank_wolfe_linear_matches_lp():
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    b = np.array([2.0, 3.0])
    c = np.array([1.0, 1.0])
    lp = solve_lp(LpProblem(c, A, b))
    res = maximize_concave(lambda x: float(c @ x), lambda x: c,
                           LpProblem(np.zeros(2), A, b))
    assert res.status == "optimal"
    assert res.certified_upper == pytest.approx(lp.value, abs=1e-6)
    assert res.value == pytest.approx(lp.value, abs=1e-6)


def test_frank_wolfe_concave_closed_form():
    # max z/(1+z) over 0 <= z <= 1: optimum 0.5 at z = 1.
    A = np.array([[1.0]])
    b = np.array([1.0])
    res = maximize_concave(lambda x: float(x[0] / (1 + x[0])),
                           lambda x: np.array([1.0 / (1 + x[0]) ** 2]),
                           LpProblem(np.zeros(1), A, b))
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.certified_upper >= 0.5 - 1e-9
    assert res.certified_upper >= res.value


def test_frank_wolfe_certifies_upper_bound():
    rng = np.random.default_rng(3)
    A = np.vstack([rng.random((3, 2)) + 0.2, np.eye(2)])
    b = np.ones(5)
    w = np.array([0.7, 1.3])

    def f(x):
        z = w @ x
        return float(z / (1 + z))

    def grad(x):
        z = w @ x
        return w / (1 + z) ** 2

    res = maximize_concave(f, grad, LpProblem(np.zeros(2), A, b))
    # Concave composition of a linear map: optimum equals f at the LP optimum of w.x.
    lp = solve_lp(LpProblem(w, A, b))
    true_opt = lp.value / (1 + lp.value)
    assert res.certified_upper >= true_opt - 1e-9
    assert res.value <= true_opt + 1e-9


def test_frank_wolfe_bound_history_nonincreasing():
    A = np.vstack([np.full((1, 2), 1.0), np.eye(2)])
    b = np.array([1.5, 1.0, 1.0])
    w = np.array([0.9, 0.4])
    res = maximize_concave(lambda x: float(np.log1p(w @ x)),
                           lambda x: w / (1 + w @ x),
                           LpProblem(np.zeros(2), A, b))
    hist = res.bound_history
    assert len(hist) >= 1
    assert all(hist[k + 1] <= hist[k] + 1e-12 for k in range(len(hist) - 1))


def test_frank_wolfe_gradient_check():
    A = np.array([[1.0]])
    b = np.array([1.0])
    with pytest.raises(ValueError, match="gradient"):
        maximize_concave(lambda x: float(x[0]), lambda x: np.array([5.0]),
                         LpProblem(np.zeros(1), A, b))


def test_frank_wolfe_infeasible_region():
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -2.0])
    with pytest.raises(ValueError, match="b >= 0"):
        maximize_concave(lambda x: float(x[0]), lambda x: np.array([1.0]),
                         LpProblem(np.zeros(1), A, b))


def _bland_enter_loop(obj_row):
    for j in range(obj_row.size):
        if obj_row[j] < -PIVOT_TOL:
            return j
    return -1


def _bland_leave_loop(T, basis, col):
    column = [T[i, col] for i in range(T.shape[0] - 1)]
    tol = PIVOT_TOL * max([1.0] + column)
    rows = [i for i, a in enumerate(column) if a > tol]
    if not rows:
        return -1
    bound = min((T[i, -1] + PIVOT_TOL) / column[i] for i in rows)
    return min((basis[i], i) for i in rows if T[i, -1] / column[i] <= bound)[1]


def test_bland_rules_match_row_loops_on_degenerate_tableaux():
    rng = np.random.default_rng(8)
    for _ in range(300):
        rows, cols = rng.integers(1, 9), rng.integers(1, 9)
        T = rng.integers(-2, 4, size=(rows + 1, cols + 1)).astype(float)
        T[:-1, -1] = rng.integers(0, 3, size=rows)  # many zero and tied ratios
        T[rng.random(T.shape) < 0.1] += rng.choice([1e-10, -1e-10, 1e-12])
        basis = rng.permutation(rows + cols)[:rows]
        for allowed in range(cols + 1):
            assert _bland_enter(T[-1, :allowed]) == _bland_enter_loop(T[-1, :allowed])
        for col in range(cols):
            assert _bland_leave(T, basis, col) == _bland_leave_loop(T, basis, col)


def test_ratio_test_takes_no_pivot_tiny_beside_the_column():
    """Both rows tie at ratio 0; row 0's entry is rounding beside 2.3e7, so
    row 1 leaves although row 0 has the lower basic index."""
    T = np.array([[2.6e-9, 0.0], [2.3e7, 0.0], [-1.0, 0.0]])
    assert _bland_leave(T, np.array([1, 2]), 0) == 1
    T[1, 0] = 0.5  # beside 1, 2.6e-9 is a pivot
    assert _bland_leave(T, np.array([1, 2]), 0) == 0


def test_ratio_test_keeps_basic_values_above_minus_pivot_tol():
    """Row 1's ratio exceeds row 0's by 5e-10, within an absolute window of
    PIVOT_TOL but past Harris's bound (10 + PIVOT_TOL) / 10: pivoting on it
    would leave row 0 at -5e-9.  Row 0 leaves, and no basic value is negative."""
    T = np.array([[10.0, 10.0], [1.0, 1.0 + 5e-10], [-1.0, 0.0]], order="F")
    basis = np.array([2, 1])
    row = _bland_leave(T, basis, 0)
    assert row == 0
    lp._pivot(T, basis, row, 0)
    assert T[:-1, -1].min() >= -PIVOT_TOL


# Beale's LP: Dantzig entering with a ratio test that breaks ties by row cycles
# on it through six degenerate bases at the origin.
BEALE = ([0.75, -20.0, 0.5, -6.0],
         [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
         [0.0, 0.0, 1.0])


def test_beale_lp_solves_with_the_bland_fallback():
    with Deadline(10.0):
        sol = solve_lp(LpProblem(*BEALE))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.25, abs=1e-12)
    assert 0 < sol.pivots <= 2 * lp.DEGENERATE_RUN


def test_beale_lp_cycles_without_the_fallback(monkeypatch):
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 10**9)  # Dantzig entering only
    with pytest.raises(TimeLimitError), Deadline(0.2):
        solve_lp(LpProblem(*BEALE))


def test_ub_fa_pivots_at_12x12():
    """Dantzig entering takes UB_FA's LP at 12x12 seed 0 in 283 pivots (805
    under Bland's rule throughout)."""
    problem = ub_fa_lp(generate_random_instance(12, 12, 0))
    assert solve_lp(problem).pivots <= 400


def test_solve_lp_stops_at_the_deadline_on_ub_fa_30x30():
    # One dense pivot of the 1,800-row tableau takes tens of milliseconds; the
    # simplex sees the limit within a pivot or two (it needs about 35 s in all).
    problem = ub_fa_lp(generate_random_instance(30, 30, 0))
    start = time.monotonic()
    with pytest.raises(TimeLimitError), Deadline(1):
        solve_lp(problem)
    assert time.monotonic() - start < 4.0


def _random_lp(kind, rng):
    """(c, A, b) for one LP of ``kind``: "feasible" (x = 0 feasible, bounded),
    "mixed" (some right-hand sides negative, which ``solve_lp`` refuses),
    "degenerate" (small integers, many zero right-hand sides and tied ratios),
    "infeasible" (refused: a.x >= 2 is a row with b = -2) or "unbounded"."""
    n, rows = int(rng.integers(1, 7)), int(rng.integers(1, 9))
    if kind == "degenerate":
        A = rng.integers(-2, 3, size=(rows, n)).astype(float)
        b = rng.integers(0, 3, size=rows).astype(float)
        c = rng.integers(-2, 4, size=n).astype(float)
    else:
        A = rng.normal(size=(rows, n))
        b = rng.uniform(-0.3 if kind == "mixed" else 0.1, 2.0, size=rows)
        c = rng.normal(size=n)
    if kind == "unbounded":
        j = int(rng.integers(n))
        A[:, j] = -np.abs(A[:, j])  # x_j grows without leaving the region
        c[j] = abs(c[j]) + 0.1
        return c, A, b
    A = np.vstack([A, np.ones((1, n))])
    b = np.concatenate([b, [5.0]])
    if kind == "infeasible":
        a = np.abs(rng.normal(size=n)) + 0.1  # a.x <= 1 and a.x >= 2
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [1.0, -2.0]])
    return c, A, b


# LP kind -> the statuses its draws must show; "refused" is the ValueError
# ``solve_lp`` raises on a draw with some b < 0.
LP_KINDS = {"feasible": {"optimal"}, "mixed": {"optimal", "refused"},
            "degenerate": {"optimal"}, "infeasible": {"refused"},
            "unbounded": {"unbounded"}}


def _solve_or_refused(problem):
    """``solve_lp(problem)``, or None after checking that it refuses b < 0."""
    if (problem.b < 0).any():
        with pytest.raises(ValueError, match="b >= 0"):
            solve_lp(problem)
        return None
    return solve_lp(problem)


@pytest.mark.parametrize("kind", list(LP_KINDS))
def test_solve_lp_agrees_with_highs(kind):
    linprog = pytest.importorskip("scipy.optimize").linprog
    status_of = {0: "optimal", 3: "unbounded"}
    rng = np.random.default_rng(list(LP_KINDS).index(kind))
    seen = set()
    for _ in range(100):
        c, A, b = _random_lp(kind, rng)
        sol = _solve_or_refused(LpProblem(c, A, b))
        if sol is None:
            seen.add("refused")
            continue
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert sol.status == status_of[ref.status]
        if sol.status == "optimal":
            assert sol.value == pytest.approx(-ref.fun, abs=1e-7)
        seen.add(sol.status)
    assert seen == LP_KINDS[kind]


# ---------------------------------------------------------------------------
# The formulations handed to the simplex, and UB_FA's dense LP
# (``helpers.ub_fa_lp``), written out by hand from their constraints.  Row
# order: per edge (i, j), row-major, its customer row then its supplier row;
# budget rows last, customers first; each equality as a <= row followed by
# its >= row (the row and right-hand side negated, so a right-hand side 0
# gives -0.0).


def _captured_lps(monkeypatch):
    """Every LP the bounds and the static approximation hand to the simplex."""
    import tsa.bounds
    import tsa.fullystatic

    seen = []

    def spy(problem):
        seen.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(tsa.bounds, "solve_lp", spy)
    monkeypatch.setattr(tsa.fullystatic, "solve_lp", spy)
    return seen


def _assert_lp(problem, c, A, b):
    for got, want in ((problem.c, c), (problem.A, A), (problem.b, b)):
        want = np.asarray(want, dtype=float)
        np.testing.assert_array_equal(got, want)
        assert (np.signbit(got) == np.signbit(want)).all()  # -0.0 stays -0.0


def _pairs(rows, rhs):
    rows, rhs = np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float)
    A = np.array([r for row in rows for r in (row, -row)])
    return A, np.array([x for r in rhs for x in (r, -r)])


# v[i, j] customer i's weight of supplier j; w[j, i] supplier j's of customer i.
V2 = np.array([[0.5, 0.25], [2.0, 4.0]])
W2 = np.array([[0.125, 8.0], [1.5, 3.0]])


def _market_2x2(k_customer=(None, None), k_supplier=(None, None)):
    from tsa.instances import MNL, Instance

    return Instance(2, 2, tuple(MNL(tuple(r)) for r in V2), tuple(MNL(tuple(r)) for r in W2),
                    k_customer, k_supplier)


def test_add_equality_appends_a_block_as_le_ge_pairs():
    p = LpProblem(np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]))
    p.add_equality(np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([3.0, 0.0]))
    _assert_lp(p, [0.0, 0.0], [[1.0, 1.0], [1.0, 0.0], [-1.0, -0.0], [0.0, 2.0], [-0.0, -2.0]],
               [2.0, 3.0, -3.0, 0.0, -0.0])


def test_ub_fa_layout():
    (v00, v01), (v10, v11) = V2
    (w00, w01), (w10, w11) = W2
    # x_ij + v_ij sum_l x_il <= v_ij, then x_ij + w_ji sum_k x_kj <= w_ji;
    # columns x00, x01, x10, x11.
    A = [[v00 + 1, v00, 0, 0], [w00 + 1, 0, w00, 0],
         [v01, v01 + 1, 0, 0], [0, w10 + 1, 0, w10],
         [0, 0, v10 + 1, v10], [w01, 0, w01 + 1, 0],
         [0, 0, v11, v11 + 1], [0, w11, 0, w11 + 1]]
    _assert_lp(ub_fa_lp(_market_2x2()), [1, 1, 1, 1], A, [v00, w00, v01, w10, v10, w01, v11, w11])


LOWLOW_2X2 = [  # y_ij + sum_l v_il y_il <= 1, then y_ij + sum_k w_jk y_kj <= 1
    [V2[0, 0] + 1, V2[0, 1], 0, 0], [W2[0, 0] + 1, 0, W2[0, 1], 0],
    [V2[0, 0], V2[0, 1] + 1, 0, 0], [0, W2[1, 0] + 1, 0, W2[1, 1]],
    [0, 0, V2[1, 0] + 1, V2[1, 1]], [W2[0, 0], 0, W2[0, 1] + 1, 0],
    [0, 0, V2[1, 0], V2[1, 1] + 1], [0, W2[1, 0], 0, W2[1, 1] + 1]]
LOWLOW_C = [V2[0, 0] * W2[0, 0], V2[0, 1] * W2[1, 0], V2[1, 0] * W2[0, 1], V2[1, 1] * W2[1, 1]]


def test_lowlow_lp_layout(monkeypatch):
    from tsa.fullystatic import lowlow_lp

    seen = _captured_lps(monkeypatch)
    lowlow_lp(_market_2x2())
    # Edges are sorted, so (1, 1) and (0, 1) give columns y01, y11.
    lowlow_lp(_market_2x2(), edges=[(1, 1), (0, 1)])
    full, sub = seen
    _assert_lp(full, LOWLOW_C, LOWLOW_2X2, np.ones(8))
    _assert_lp(sub, [LOWLOW_C[1], LOWLOW_C[3]],
               [[V2[0, 1] + 1, 0], [W2[1, 0] + 1, W2[1, 1]], [0, V2[1, 1] + 1], [W2[1, 0], W2[1, 1] + 1]],
               np.ones(4))


def test_lowlow_lp_budget_rows(monkeypatch):
    from tsa.fullystatic import lowlow_lp

    seen = _captured_lps(monkeypatch)
    lowlow_lp(_market_2x2((1, 2), (None, 1)))
    budgets = [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]  # customers 0, 1; supplier 1
    (problem,) = seen
    _assert_lp(problem, LOWLOW_C, LOWLOW_2X2 + budgets, [1.0] * 8 + [1, 2, 1])


def test_relaxation_layout(monkeypatch):
    from tsa.bounds import lp_relaxation_onesided
    from tsa.instances import MNL, Instance

    seen = _captured_lps(monkeypatch)
    # One customer (weights 1, 3 on suppliers 0, 1), suppliers of weight 1 and 3.
    lp_relaxation_onesided(Instance(1, 2, (MNL((1.0, 3.0)),), (MNL((1.0,)), MNL((3.0,)))), "C")
    # Columns lam[j, C] for j = 0, 1 and C = {}, {0}; then tau[0, S] for
    # S = {}, {0}, {1}, {0, 1}.  The objective is each supplier's demand f_j(C).
    c = [0, 1 / 2, 0, 3 / 4, 0, 0, 0, 0]
    sums = [[1, 1, 0, 0, 0, 0, 0, 0],  # supplier 0's distribution, <= 1
            [0, 0, 1, 1, 0, 0, 0, 0],  # supplier 1's
            [0, 0, 0, 0, 1, 1, 1, 1]]  # the customer's
    flow = [[0, 1, 0, 0, 0, -1 / 2, 0, -1 / 5],  # flow (0, 0): phi(0 | S) for S containing 0
            [0, 0, 0, 1, 0, 0, -3 / 4, -3 / 5]]  # flow (0, 1)
    A, b = _pairs(flow, [0, 0])
    (problem,) = seen
    _assert_lp(problem, c, np.vstack([sums, A]), np.concatenate([[1, 1, 1], b]))


# ---------------------------------------------------------------------------
# The pivot against its full-tableau reference (tests/lp_reference.py).


def _table_markets():
    """The table universes: sizes 2-4, seeds 0-13 unbudgeted and 0-5 two-way (2, 2)."""
    return [generate_random_instance(n, n, seed, profile)
            for profile, seeds in ((CardinalityProfile(), 14), (CardinalityProfile("two-way", 2, 2), 6))
            for n in (2, 3, 4) for seed in range(seeds)]


def _reference_lps(group, monkeypatch):
    from tsa.bounds import lp_relaxation_onesided
    from tsa.fullystatic import lowlow_lp, partition_edges

    if group == "random":
        problems = [LpProblem(*BEALE)]  # runs the Bland fallback
        for kind in LP_KINDS:
            rng = np.random.default_rng(list(LP_KINDS).index(kind))
            problems += [LpProblem(*_random_lp(kind, rng)) for _ in range(100)]
        return problems
    if group == "ub_fa":
        return [ub_fa_lp(generate_random_instance(n, n, n)) for n in range(1, 13)] + [
            ub_fa_lp(generate_random_instance(16, 16, 0))]
    seen = _captured_lps(monkeypatch)
    for inst in _table_markets():
        lp_relaxation_onesided(inst, "C")
        lp_relaxation_onesided(inst, "S")
        lowlow_lp(inst)
        low_low = partition_edges(inst)[2]
        if low_low:
            lowlow_lp(inst, low_low)
    return seen


@pytest.mark.parametrize("group", ["random", "ub_fa", "tables"])
def test_solve_lp_matches_full_tableau_reference_bit_for_bit(group, monkeypatch):
    """Skipping the pivot row's zero columns changes no bit: statuses, pivot
    counts, values, solutions and duals equal the full-tableau simplex's.
    Draws with some b < 0 are refused."""
    import lp_reference

    problems = _reference_lps(group, monkeypatch)
    assert problems
    for problem in problems:
        got = _solve_or_refused(problem)
        if got is None:
            continue
        want = lp_reference.solve_lp(problem)
        assert (got.status, got.pivots) == (want.status, want.pivots)
        if want.status == "optimal":
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert got.x.tobytes() == want.x.tobytes()
            assert got.dual.tobytes() == want.dual.tobytes()


def _zeroed_market(rng, n, m, profile):
    """A random MNL market with about 40% of the weights on each side exactly 0."""
    inst = generate_random_instance(n, m, int(rng.integers(1000)), profile)
    v, w = inst.mnl_weights()
    v, w = v * (rng.random(v.shape) < 0.6), w * (rng.random(w.shape) < 0.6)
    return Instance(n, m, tuple(MNL(tuple(r)) for r in v), tuple(MNL(tuple(r)) for r in w),
                    inst.k_customer, inst.k_supplier)


def _rel2_markets(group):
    if group == "tables":
        return _table_markets()
    profiles = (CardinalityProfile("one-way", 2), CardinalityProfile("two-way", 1, 1),
                CardinalityProfile("two-way", 2, 2))
    if group == "budgets":
        shapes = [(1, 1), (2, 3), (3, 2), (5, 5), (4, 6), (6, 4)]
        return [generate_random_instance(n, m, seed, profile)
                for profile in profiles for n, m in shapes for seed in range(2)]
    rng = np.random.default_rng(37)
    if group == "zero weights":
        return [_zeroed_market(rng, n, m, profile) for profile in (CardinalityProfile(),) + profiles
                for n, m in ((2, 2), (3, 3), (2, 4), (4, 3)) for _ in range(3)]
    return [random_tabular_market(rng) for _ in range(60)]  # "tabular"


@pytest.mark.parametrize("group", ["tables", "budgets", "zero weights", "tabular"])
def test_rel2_matches_its_equality_form(group, monkeypatch):
    """REL2 with <= 1 distribution rows is the value of the LP whose every row
    is an equality (each distribution summing to 1), solved by the two-phase
    reference, within 1e-12 relative, on both sides."""
    import lp_reference
    from tsa.bounds import lp_relaxation_onesided

    seen = _captured_lps(monkeypatch)
    for inst in _rel2_markets(group):
        for side in "CS":
            got = lp_relaxation_onesided(inst, side).value
            problem, k = seen[-1], inst.n + inst.m  # k distribution rows, then flow pairs
            assert (problem.b[:k] == 1).all() and (problem.b[k:] == 0).all()
            equalities = LpProblem(problem.c, np.zeros((0, problem.c.size)), np.zeros(0))
            equalities.add_equality(np.vstack([problem.A[:k], problem.A[k::2]]),
                                    np.concatenate([problem.b[:k], problem.b[k::2]]))
            want = lp_reference.solve_lp(equalities)
            assert want.status == "optimal"
            assert abs(got - want.value) <= 1e-12 * abs(want.value)


# (rng seed, draw, side) of random_tabular_market(rng, alpha=0.3) markets, whose
# choice probabilities reach 1e-8.  An absolute tie window in the ratio test,
# or an absolute pivot tolerance, leaves REL2 off its exact value on them by
# 2e-12 to 2.7%, above it or below it.
ILL_CONDITIONED = [(7, 32, "S"), (7, 34, "S"), (7, 47, "S"), (8, 149, "C"), (8, 284, "C"),
                   (8, 306, "S"), (8, 416, "S"), (8, 575, "C")]


def _ill_conditioned_rel2(monkeypatch, seed, draws):
    """(instance, side, REL2 value, its LP) for each draw -> sides in ``draws``
    of random_tabular_market(default_rng(seed), alpha=0.3)."""
    from tsa.bounds import lp_relaxation_onesided

    seen = _captured_lps(monkeypatch)
    rng = np.random.default_rng(seed)
    for draw in range(max(draws) + 1):
        inst = random_tabular_market(rng, alpha=0.3)
        for side in draws.get(draw, ()):
            yield inst, side, lp_relaxation_onesided(inst, side).value, seen[-1]


@pytest.mark.parametrize("seed, draw, side", ILL_CONDITIONED)
def test_rel2_is_exact_on_ill_conditioned_markets(seed, draw, side, monkeypatch):
    """REL2 is within 1e-12 relative of the optimum of its LP in rational arithmetic."""
    from helpers import exact_lp_value

    [(_, _, got, problem)] = _ill_conditioned_rel2(monkeypatch, seed, {draw: side})
    want = exact_lp_value(problem)
    assert abs(got - want) <= 1e-12 * want


def test_rel2_is_near_exact_on_dirichlet_03_markets(monkeypatch):
    """On the first 60 such markets from rng 7, both sides, REL2 is within
    1e-8 relative of its exact value (rounding alone reaches 5.3e-10 here)."""
    from helpers import exact_lp_value

    for inst, side, got, problem in _ill_conditioned_rel2(monkeypatch, 7, dict.fromkeys(range(60), "CS")):
        want = exact_lp_value(problem)
        assert abs(got - want) <= 1e-8 * want, (inst, side)


# ---------------------------------------------------------------------------
# The packing interior point, UB_FA's solver, against the simplex.


def _certificate(problem, y):
    """b.y / min_j (A^T y)_j / c_j."""
    return float(problem.b @ y) / float(np.min((problem.A.T @ y) / problem.c))


def _random_packing_lps(rng, count):
    """Packing LPs of up to 11 rows and columns: A dense or sparse, about a
    tenth of b and c zero, and a third on small integers (degenerate)."""
    for _ in range(count):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        A = rng.random((rows, cols)) * (rng.random((rows, cols)) < rng.uniform(0.2, 1.0))
        b = rng.uniform(0.0, 3.0, rows) * (rng.random(rows) < 0.9)
        c = rng.uniform(0.0, 2.0, cols) * (rng.random(cols) < 0.9)
        if rng.random() < 0.3:
            A, b, c = np.round(3.0 * A), np.round(b), np.round(c)
        yield LpProblem(c, A, b)


def _core(problem):
    """The part of a packing LP that ``packing_ipm`` takes, with the same
    optimum: the columns with c_j > 0 that meet no row with b_k = 0 (the others
    are 0 at an optimum) and the rows with b_k > 0 that meet them.  None when
    no column is left, or when one meets no row and the LP is unbounded."""
    A, b, c = problem.A, problem.b, problem.c
    cols = (c > 0) & ~(A[b == 0] > 0).any(axis=0)
    rows = (b > 0) & (A[:, cols] > 0).any(axis=1)
    core = LpProblem(c[cols], A[np.ix_(rows, cols)], b[rows])
    return core if cols.any() and (core.A > 0).any(axis=0).all() else None


def _dense_ipm(problem):
    """``packing_ipm`` on the dense A of ``problem``: (x, y, iterations)."""
    A, AT = problem.A, np.ascontiguousarray(problem.A.T)
    return packing_ipm(problem.b, problem.c, lambda x: A @ x, lambda y: AT @ y,
                       lambda d: (AT * d) @ A)


def _ub_fa_run(monkeypatch, inst):
    """(ub_fa(inst), run): run holds what its interior point was given (b, c,
    apply, apply_t, normal) and what it returned (x, y, iterations)."""
    import tsa.bounds

    runs = []

    def spy(b, c, apply, apply_t, normal):
        x, y, iterations = packing_ipm(b, c, apply, apply_t, normal)
        runs.append(SimpleNamespace(b=b, c=c, apply=apply, apply_t=apply_t, normal=normal,
                                    x=x, y=y, iterations=iterations))
        return x, y, iterations

    with monkeypatch.context() as patch:
        patch.setattr(tsa.bounds, "packing_ipm", spy)
        value = tsa.bounds.ub_fa(inst)
    (run,) = runs
    return value, run


def _kept_lp(inst):
    """``ub_fa_lp(inst)``, and the columns and rows ``ub_fa`` keeps in its
    order: the edges with both weights positive, then their customer rows
    followed by their supplier rows."""
    v, w = inst.mnl_weights()
    cols = np.flatnonzero((v > 0) & (w.T > 0))
    return ub_fa_lp(inst), cols, np.concatenate([2 * cols, 2 * cols + 1])


def _packing_universe(group):
    """Random packing LPs (their cores) or UB_FA's markets."""
    if group == "random":
        return [core for problem in _random_packing_lps(np.random.default_rng(34), 600)
                if (core := _core(problem)) is not None]
    if group == "tables":
        return _table_markets()
    markets = [(n, n, seed) for n in range(1, 13) for seed in range(3)]
    markets += [(n, m, seed) for n, m in ((1, 15), (3, 8), (8, 3)) for seed in range(3)]
    return [generate_random_instance(*market) for market in markets + [(16, 16, 0)]]


# The most iterations measured: 14 on the table universes, 16 on the markets
# (at 10x10, 12x12 and 16x16) and 11 on the random packing LPs.
PACKING_ITERATIONS = 20


@pytest.mark.parametrize("group", ["tables", "markets", "random"])
def test_solve_packing_certifies_the_simplex_optimum(group, monkeypatch):
    """The certificate of the returned dual lies within [-1e-12, +1e-9] *
    max(1, v) of the simplex's optimum v, and x is feasible: for UB_FA, whose
    value is that certificate, against ``ub_fa_lp`` on the table universes and
    the markets, and for the random packing LPs' cores on their dense A."""
    for item in _packing_universe(group):
        if group == "random":
            problem, cols, rows = item, slice(None), slice(None)
            x, y, iterations = _dense_ipm(problem)
            value = _certificate(problem, y)
        else:
            value, run = _ub_fa_run(monkeypatch, item)
            problem, cols, rows = _kept_lp(item)
            x, y, iterations = run.x, run.y, run.iterations
        want = solve_lp(problem)
        assert want.status == "optimal"
        scale = max(1.0, want.value)
        assert -1e-12 * scale <= value - want.value <= 1e-9 * scale
        assert (y >= 0).all() and (x >= 0).all()
        full_x, full_y = np.zeros(problem.c.size), np.zeros(problem.b.size)
        full_x[cols], full_y[rows] = x, y
        assert (problem.A @ full_x <= problem.b * (1 + 1e-12)).all()
        assert value == pytest.approx(_certificate(problem, full_y), rel=1e-13, abs=0)
        assert iterations <= PACKING_ITERATIONS


def test_solve_packing_takes_back_rounding_drift():
    """A degenerate LP of small integers (11 rows and 10 columns, 8 and 8 in
    its core).  Steps that let A x + s = b and A^T y - z = c drift leave its
    certificate 6e-10 loose; taking the drift back keeps it within 1e-10.  Near
    the optimum more steps only add rounding, and the solve stops."""
    *_, problem = _random_packing_lps(np.random.default_rng(0), 337)
    problem = _core(problem)
    _, y, iterations = _dense_ipm(problem)
    want = solve_lp(problem)
    assert 0.0 <= _certificate(problem, y) - want.value <= 1e-10 * max(1.0, want.value)
    assert iterations <= PACKING_ITERATIONS


def test_solve_packing_regularizes_a_singular_normal_matrix():
    """Two equal columns: near the optimum the diagonal of M drowns in rounding
    and M turns singular; a ridge lets the solve reach the target gap."""
    problem = LpProblem([1.0, 1.0], [[2.0, 2.0], [1.0, 1.0]], [1.0, 2.0])
    _, y, _ = _dense_ipm(problem)
    assert 0.5 <= _certificate(problem, y) <= 0.5 * (1 + 1e-11)


def test_ub_fa_zero_weights(monkeypatch):
    """An edge with a zero weight is 0 in every feasible point: the interior
    point sees only the other edges, and UB_FA bounds the simplex's optimum of
    the whole LP.  A market of zero weights has UB_FA 0.0."""
    from tsa.bounds import ub_fa

    assert ub_fa(Instance(1, 1, (MNL((0.0,)),), (MNL((0.0,)),))) == 0.0
    assert ub_fa(Instance(2, 3, (MNL((0.0,) * 3),) * 2, (MNL((0.0,) * 2),) * 3)) == 0.0
    v, w = V2.copy(), W2.copy()
    v[0, 1] = w[0, 1] = 0.0  # edges (0, 1) and (1, 0)
    inst = Instance(2, 2, tuple(MNL(tuple(r)) for r in v), tuple(MNL(tuple(r)) for r in w))
    value, run = _ub_fa_run(monkeypatch, inst)
    want = solve_lp(ub_fa_lp(inst))
    assert run.x.size == 2  # edges (0, 0) and (1, 1)
    assert want.value <= value <= want.value + 1e-9


def _zero_weight_market():
    """A 3x4 market with zero weights on edges (0, 1), (1, 3) and (2, 0): the
    first two have v = 0, the last w = 0."""
    inst = generate_random_instance(3, 4, 0)
    v, w = inst.mnl_weights()
    v[0, 1] = v[1, 3] = w[0, 2] = 0.0
    return Instance(3, 4, tuple(MNL(tuple(r)) for r in v), tuple(MNL(tuple(r)) for r in w))


@pytest.mark.parametrize("market", [(1, 1), (1, 5), (5, 1), (3, 7), (4, 4), (12, 12), "zero"])
def test_ub_fa_normal_matrix_matches_the_dense_product(market, monkeypatch):
    """UB_FA's interior point takes A x, A^T y and A^T diag(d) A from the
    weights.  On random x, y and d they agree with the products of
    ``ub_fa_lp``'s dense A at the kept edges' rows and columns, to 1e-15 of
    the largest entry."""
    inst = _zero_weight_market() if market == "zero" else generate_random_instance(*market, 0)
    _, run = _ub_fa_run(monkeypatch, inst)
    problem, cols, rows = _kept_lp(inst)
    A = problem.A[np.ix_(rows, cols)]
    assert cols.size == problem.c.size - 3 * (market == "zero")
    np.testing.assert_array_equal(run.b, problem.b[rows])
    np.testing.assert_array_equal(run.c, problem.c[cols])
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, (y, d) = rng.uniform(0.01, 1.0, A.shape[1]), rng.uniform(0.01, 1.0, (2, A.shape[0]))
        for got, want in ((run.apply(x), A @ x), (run.apply_t(y), A.T @ y),
                          (run.normal(d), (A.T * d) @ A)):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_solve_packing_polls_the_deadline_every_iteration(monkeypatch):
    """A deadline that passes at the third poll stops UB_FA's solve there;
    without one it polls once an iteration."""
    from tsa.bounds import ub_fa

    inst = generate_random_instance(4, 4, 0)
    polls = []

    def poll():
        polls.append(None)
        if len(polls) == 3:
            time.sleep(0.3)
        check_deadline()

    monkeypatch.setattr(lp, "check_deadline", poll)
    with pytest.raises(TimeLimitError), Deadline(0.2):
        ub_fa(inst)
    assert len(polls) == 3
    polls.clear()
    assert _ub_fa_run(monkeypatch, inst)[1].iterations == len(polls) > 3


@pytest.mark.parametrize("n", [20, 30])
def test_ub_fa_agrees_with_highs(n):
    linprog = pytest.importorskip("scipy.optimize").linprog
    from tsa.bounds import ub_fa

    problem = ub_fa_lp(generate_random_instance(n, n, 0))
    ref = linprog(-problem.c, A_ub=problem.A, b_ub=problem.b, bounds=(0, None), method="highs")
    value = ub_fa(generate_random_instance(n, n, 0))
    assert ref.status == 0 and abs(value + ref.fun) <= 1e-9 * value
