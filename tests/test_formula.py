import random

import pytest

from cnotpac.formula import (
    Constant,
    Product,
    Sum,
    Variable,
    _internals,
    arithmetize_cnf,
    eval_formula,
    formula_to_graph,
    num_variables,
    parse_formula,
    product_of,
    sum_of,
)

from formula_corpus import CORPUS, golden_formula


def test_eval_golden_formula():
    f = golden_formula()
    for a in range(16):
        x1, x2, x3, x4 = ((a >> i) & 1 for i in range(4))
        assert eval_formula(f, a) == (x1 & (x2 ^ x3)) ^ (x3 & x4)


def test_smart_constructors_fold_constants_only():
    one, zero, x = Constant(1), Constant(0), Variable(1)
    assert sum_of(one, one) == zero
    assert sum_of(zero, x) == x
    assert sum_of(x, zero) == x
    assert sum_of(one, sum_of(one, x)) == x
    assert sum_of(x, one) == Sum(one, x)  # constants move left
    assert product_of(one, x) == x
    assert product_of(x, one) == x
    assert product_of(zero, x) == zero
    assert product_of(x, zero) == zero
    # symbolic cancellation must not happen
    assert sum_of(x, x) == Sum(x, x)
    assert product_of(x, x) == Product(x, x)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Constant(2)
    with pytest.raises(ValueError):
        Variable(0)


def test_arithmetize_matches_cnf_semantics():
    rng = random.Random(601)
    for _ in range(60):
        n_vars = rng.randrange(1, 5)
        clauses = []
        for _ in range(rng.randrange(1, 5)):
            width = rng.randrange(1, 4)
            clause = []
            for _ in range(width):
                v = rng.randrange(1, n_vars + 1)
                clause.append(v if rng.random() < 0.5 else -v)
            clauses.append(clause)
        f = arithmetize_cnf(clauses)
        for a in range(1 << n_vars):
            sat = all(
                any(
                    ((a >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0)
                    for l in clause
                )
                for clause in clauses
            )
            assert eval_formula(f, a) == int(sat)


def test_arithmetize_simplifications():
    assert arithmetize_cnf([[1]]) == Variable(1)
    assert arithmetize_cnf([[-1]]) == Sum(Constant(1), Variable(1))
    assert arithmetize_cnf([]) == Constant(1)
    assert arithmetize_cnf([[1], [2]]) == Product(Variable(1), Variable(2))
    with pytest.raises(ValueError):
        arithmetize_cnf([[0]])


def test_num_variables():
    assert num_variables(Constant(1)) == 0
    assert num_variables(golden_formula()) == 4
    assert num_variables(Sum(Variable(7), Variable(2))) == 7


def test_internals_counts():
    assert _internals(Variable(1)) == 1
    assert _internals(Constant(0)) == 1
    assert _internals(Sum(Variable(1), Variable(1))) == 2
    assert _internals(Product(Variable(1), Variable(2))) == 3
    assert _internals(golden_formula()) == 7


def test_graph_shape_and_closure():
    g = formula_to_graph(golden_formula())
    assert (g.num_vertices, g.s, g.t) == (9, 0, 8)
    assert g.closed
    assert g.num_vars == 4
    # closure: t -> s plus self-loops everywhere except s
    assert g.edges[(8, 0)] == 0
    for vtx in range(1, 9):
        assert g.edges[(vtx, vtx)] == 0
    assert (0, 0) not in g.edges


def test_constant_zero_gadget_has_no_source_edge():
    g = formula_to_graph(Constant(0))
    assert g.num_vertices == 3
    assert (0, 1) not in g.edges  # the zero factor's entering edge is omitted
    assert g.edges[(1, 2)] == 0


def test_parallel_gadget_vertex_count():
    # Sum(x1, x1) keeps both branches: 4 vertices
    g = formula_to_graph(Sum(Variable(1), Variable(1)))
    assert g.num_vertices == 4
    assert g.edges[(0, 1)] == 1 and g.edges[(0, 2)] == 1


def test_parse_formula_round_trips():
    assert parse_formula("x1*(x2+x3) + x3*x4") == golden_formula()
    assert parse_formula("1 + x2") == Sum(Constant(1), Variable(2))
    assert parse_formula("(x1)") == Variable(1)
    assert parse_formula("1+1") == Constant(0)
    assert parse_formula("x1 + x2 * x3") == Sum(
        Variable(1), Product(Variable(2), Variable(3))
    )
    for bad in ("x", "x1 +", "(x1", "x1 x2", "y1", ""):
        with pytest.raises(ValueError):
            parse_formula(bad)


@pytest.mark.parametrize("text", ["", "x1+", "x1*", "(", "x1 + (x2 *"])
def test_parse_formula_names_the_end_of_input(text):
    with pytest.raises(ValueError, match="^unexpected end of formula$"):
        parse_formula(text)


def test_corpus_entries_are_well_formed():
    names = [name for name, _, _ in CORPUS]
    assert len(names) == len(set(names))
    assert len(CORPUS) >= 20
    for name, f, n_vars in CORPUS:
        assert num_variables(f) <= n_vars <= 6
        g = formula_to_graph(f)
        assert g.closed and g.num_vertices == _internals(f) + 2
