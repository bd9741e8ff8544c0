"""Degenerate inputs end in a typed error or a finite state, with no numpy
warning; and the trace's L is ``neg_log_posterior`` of the state, bit for bit.

Every solver sweep runs with numpy's overflow warnings silenced
(``jmap.alternate``), so what overflows must fail a check of its own: the
properties here hold the solvers to that.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bsi
from bsi import (
    DimensionMismatch,
    ForwardProblem,
    HyperParams,
    IgFamily,
    JmapConfig,
    ModelMismatch,
    NonFinite,
    NonPositiveHyper,
    NonPositiveVariance,
    OperatorSpec,
    SingularSystem,
    SolverState,
    VbaConfig,
    generate_operator,
    neg_log_posterior,
    solve_jmap,
    solve_vba,
)
from bsi.jmap import _positive
from bsi.model import _criterion, _variance_families

BSI_ERRORS = (DimensionMismatch, ModelMismatch, NonFinite, NonPositiveHyper,
              NonPositiveVariance, SingularSystem)


def solve(problem, hyper, method, **config):
    if method == "jmap":
        return solve_jmap(problem, hyper, JmapConfig(**config))
    return solve_vba(problem, hyper, VbaConfig(separability=method, **config))



def test_non_vector_g_is_dimension_mismatch():
    """A 2-D g used to be flattened into N = 4 observations."""
    with pytest.raises(DimensionMismatch):
        ForwardProblem(g=np.arange(4.0).reshape(2, 2), H=np.eye(4))


@pytest.mark.parametrize("model, method", [("direct", "jmap"), ("direct", "partial"),
                                           ("direct", "full"), ("indirect", "jmap"),
                                           ("indirect", "partial")])
@pytest.mark.parametrize("init", [np.ones((2, 2)), np.ones((4, 1)), np.ones(3)],
                         ids=["2x2", "4x1", "length-3"])
def test_non_vector_or_wrong_length_init_is_dimension_mismatch(model, method, init):
    """On M = 4 a 2-D init used to be flattened and solved from, and a
    wrong length raised a bare ValueError."""
    problem = ForwardProblem(g=[1.0, 2.0, 0.5, -1.0], H=np.eye(4),
                             D=np.eye(4) if model == "indirect" else None)
    with pytest.raises(DimensionMismatch):
        solve(problem, HyperParams(), method, init=init, max_iter=2)

@pytest.mark.parametrize("separability,model,error", [
    ("partial", "direct", NonPositiveVariance),
    ("partial", "indirect", NonPositiveVariance),
    # the coordinate pass has no positivity check of its own: its finite
    # precision-diagonal rule raises
    ("full", "direct", SingularSystem),
])
def test_overflowing_precision_raises_its_typed_error_alone(separability, model, error):
    """beta = 1e-309 seeds a subnormal IG scale from the zero start, and its
    expectancy <v^-1> = alpha_hat / beta_hat overflows in the first sweep.
    That used to raise numpy's overflow warning before the typed error."""
    problem = ForwardProblem(g=[1.0, -2.0, 0.5], H=np.eye(3),
                             D=np.eye(3) if model == "indirect" else None)
    hyper = HyperParams(beta_f=1e-309, beta_xi=1e-309, beta_z=1e-309)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            solve_vba(problem, hyper, VbaConfig(max_iter=3, separability=separability))


def test_loop_criterion_rejects_a_variance_that_underflowed_to_zero():
    """The loop's L checks only v > 0: every other check on the state was
    made by the sweep.  A variance step whose (beta + r^2 / 2) / (alpha +
    1/2 or 3/2) underflows still ends in NonPositiveVariance, not in a
    NaN L."""
    problem = ForwardProblem(g=[1.0, -2.0], H=np.eye(2))
    hyper = HyperParams()
    for bad in (0.0, np.nan, -1.0):
        state = SolverState(f_hat=np.zeros(2), v_eps=np.ones(2), v_f=np.array([1.0, bad]))
        with pytest.raises(NonPositiveVariance, match="v_f"):
            _criterion(state, _variance_families(problem, hyper, state.f_hat, None), _positive)


def test_jmap_on_the_same_input_raises_singular_system_alone():
    problem = ForwardProblem(g=[1.0, -2.0, 0.5], H=np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            solve_jmap(problem, HyperParams(beta_f=1e-309), JmapConfig(max_iter=3))


@st.composite
def degenerate_problems(draw):
    """(problem, hyper, method, init): H dense or diagonal up to 9 x 9, or
    bidiagonal from 48 x 48 to 60 x 60, where kl + ku = 1 takes the banded
    blocks (the diagonal H takes them at u = 0), with zero columns (all of
    them, at times); |g| up to 1e150; each alpha in 1e-3..1e5 and each beta
    in 1e-309..1e3, log-uniform; D = I or dense for the indirect model;
    JMAP, VBA-partial and, on the direct model, VBA-full."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "diagonal", "bidiagonal"]))
    sizes = st.integers(48, 60) if kind == "bidiagonal" else st.integers(1, 9)
    n, m = draw(sizes), draw(sizes)
    H = rng.randn(n, m) if kind == "dense" else np.eye(n, m) * rng.uniform(-2.0, 2.0, m)
    if kind == "bidiagonal":
        H += np.eye(n, m, 1) * rng.uniform(-2.0, 2.0, m)
    H[:, rng.rand(m) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    g = rng.randn(n) * 10.0 ** draw(st.floats(-3.0, 150.0))
    D = None
    if draw(st.booleans()):
        D = np.eye(m) if draw(st.booleans()) else rng.randn(m, m)
    scales = {}
    for family in ("eps", "xi", "z", "f"):
        scales["alpha_" + family] = 10.0 ** draw(st.floats(-3.0, 5.0))
        scales["beta_" + family] = 10.0 ** draw(st.floats(-309.0, 3.0))
    methods = ["jmap", "partial"] + (["full"] if D is None else [])
    return (ForwardProblem(g=g, H=H, D=D), HyperParams(**scales),
            draw(st.sampled_from(methods)), draw(st.sampled_from(["zeros", "least-squares"])))


@settings(max_examples=300, deadline=None)
@given(degenerate_problems())
def test_degenerate_inputs_end_in_a_typed_error_or_a_finite_state(case):
    problem, hyper, method, init = case
    op = problem._operators["f"]
    if problem.n_coef >= 48:   # a bidiagonal H: the banded solve and pass
        assert op.kl + op.ku <= 1 and op.banded_solve and op.banded_pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state, trace = solve(problem, hyper, method, max_iter=5, init=init)
        except BSI_ERRORS:
            return
    assert np.isfinite(state.f_hat).all()
    for name in ("z_hat", "v_eps", "v_xi", "v_z", "v_f"):
        value = getattr(state, name)
        assert value is None or np.isfinite(value).all(), name


def operator_problem(operator, model):
    """A problem on each kind of f block: a banded 3-tap H at M = 256 (banded
    products too) with D = I, a dense 40 x 40 H and a wide dense 24 x 70 H
    (the dual block), these two with a dense D."""
    rng = np.random.RandomState(5)
    if operator == "banded":
        m = 256
        H = generate_operator(OperatorSpec(kind="convolution", n_rows=m, n_cols=m,
                                           kernel=(0.25, 0.5, 0.25)))
        D = np.eye(m)
    else:
        n, m = (40, 40) if operator == "dense" else (24, 70)
        H = rng.randn(n, m) / np.sqrt(n)
        D = np.eye(m) + 0.3 * rng.randn(m, m) / np.sqrt(m)
    f = np.zeros(m)
    f[rng.choice(m, 4, replace=False)] = 3.0
    problem = ForwardProblem(g=H @ f + 0.05 * rng.randn(H.shape[0]), H=H,
                             D=D if model == "indirect" else None)
    op = problem._operators["f"]
    assert {"banded": op.banded_solve and op.banded_product, "dense": not op.banded_solve
            and not op.dual, "dual": op.dual}[operator]
    return problem


def zero_start(problem, hyper, method):
    """The state every solver starts from at init "zeros": JMAP's variances
    are each family's mode for a zero residual, VBA's come from the IG
    factors of the start's residuals (g for eps, zero for the others)."""
    m = problem.n_coef
    residuals = {"eps": problem.g, "f": np.zeros(m)} if problem.is_direct else {
        "eps": problem.g, "xi": np.zeros(m), "z": np.zeros(m)}
    fields = {}
    for kind, r in residuals.items():
        alpha, beta = getattr(hyper, "alpha_" + kind), getattr(hyper, "beta_" + kind)
        fields["v_" + kind] = (np.full(r.size, beta / (alpha + 1.5)) if method == "jmap"
                               else IgFamily.posterior(alpha, beta, r * r).point_variance())
    return SolverState(f_hat=np.zeros(m), z_hat=None if problem.is_direct else np.zeros(m),
                       **fields)


@pytest.mark.parametrize("operator,model,method", [
    (operator, model, method)
    for operator in ("banded", "dense", "dual")
    for model in ("direct", "indirect")
    for method in ("jmap", "partial", "full")
    if not (method == "full" and model == "indirect")])
def test_trace_criterion_is_neg_log_posterior_of_the_state(operator, model, method):
    """Record 0 and the last record of 1-, 2- and 5-sweep solves: the loop
    takes each sweep's L from the variance-family residuals a step already
    formed, and must give the public criterion's bits."""
    problem = operator_problem(operator, model)
    hyper = HyperParams(3.0, 0.05, 1.0, 0.1, 1.0, 0.5, 1.0, 0.5)
    first = neg_log_posterior(zero_start(problem, hyper, method), problem, hyper)
    for sweeps in (1, 2, 5):
        state, trace = solve(problem, hyper, method, max_iter=sweeps, tol_rel_f=1e-300)
        assert trace.iterations == sweeps
        assert trace.records[0].criterion == first
        assert trace.records[-1].criterion == neg_log_posterior(state, problem, hyper)


def singular_raises(tree):
    """The ``raise SingularSystem...`` statements under the AST node ``tree``."""
    return {node for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
            and "SingularSystem" in {getattr(n, "id", None) or getattr(n, "attr", None)
                                     for n in ast.walk(node.exc)}}


def test_only_the_failure_rule_raises_singular_system():
    """Every solver step raises SingularSystem through ``model._solved``,
    the one place the failure rule is written."""
    helper, elsewhere = set(), []
    for path in sorted(Path(bsi.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "model.py":
            helper = set().union(*(singular_raises(node) for node in ast.walk(tree)
                                   if isinstance(node, ast.FunctionDef)
                                   and node.name == "_solved"))
        elsewhere += [f"{path.name}:{node.lineno}" for node in singular_raises(tree) - helper]
    assert helper
    assert not elsewhere
