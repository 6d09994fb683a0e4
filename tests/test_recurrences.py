import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import critgroups.recurrences as recurrences
from critgroups import (
    QuadraticNumber,
    alternating_tables,
    brute_spanning_forests,
    constant_k_closed_form,
    constant_k_table,
    critical_group,
    determinant,
    forest_count,
    house_closed_form,
    polygon_stack,
    reduced_laplacian,
    tree_count,
)


def test_tree_count_examples():
    assert tree_count((3, 4)) == 11
    assert tree_count(()) == 1
    for k in range(2, 9):
        assert tree_count((k,)) == k
    # order of the stack entries matters
    assert tree_count((3, 3, 4, 4)) == 108
    assert tree_count((3, 4, 3, 4)) == 109
    with pytest.raises(ValueError):
        tree_count((3, 1))


def test_tree_count_matches_determinant():
    for spec in [(3, 3, 4, 4), (3, 4, 3, 4), (2, 2, 4, 2, 2), (5, 4, 3), (6, 2, 5)]:
        g = polygon_stack(spec).graph
        assert tree_count(spec) == abs(determinant(reduced_laplacian(g, g.n - 1)))


def test_tree_count_memory_is_linear():
    """`tree_count` and `forest_count` keep the last two terms only. On
    20,000 4-gons every T_i >= 3 T_{i-1}, so T_i has at least i log2(3)
    bits and the list of every prefix count holds over 39 MB; the two
    counts peak under 1% of that. On seeded specs with 2-gons among the
    sizes they equal the prefix list's last term and last difference."""
    spec = (4,) * 20000
    prefix_bytes = sum(i * 1.58 / 8 for i in range(len(spec) + 1))
    tracemalloc.start()
    try:
        t, f = tree_count(spec), forest_count(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prefix_bytes > 39e6 and peak < prefix_bytes / 100
    assert t.bit_length() > 20000 * 1.58 and 0 < f < t
    rng = random.Random(1)
    specs = [[rng.randint(2, 7) for _ in range(rng.randint(1, 40))] for _ in range(200)]
    assert sum(2 in s for s in specs) > 100
    for s in specs:
        p = recurrences._prefix_counts(s)
        assert (tree_count(s), forest_count(s)) == (p[-1], p[-1] - p[-2])
    assert tree_count(()) == recurrences._prefix_counts(())[-1] == 1


def test_forest_count_examples():
    assert forest_count((3, 4)) == 8
    assert forest_count((4,)) == 3
    assert forest_count((3,)) == 2
    with pytest.raises(ValueError):
        forest_count(())


def test_forest_count_matches_enumeration():
    # the forest roots are the active pair of the stack
    for spec in [(3,), (4,), (3, 4), (4, 3), (2, 4), (3, 3, 3)]:
        sg = polygon_stack(spec)
        if sg.graph.edge_count() > 20:
            continue
        x, y = sg.active_pair
        assert forest_count(spec) == brute_spanning_forests(sg.graph, x, y)


def test_lemma_recurrences():
    # T_n = (k_n - 1) T_{n-1} + F_{n-1} and F_n = (k_n - 2) T_{n-1} + F_{n-1}
    for length in range(2, 6):
        for spec in itertools.product(range(2, 7), repeat=length):
            head = spec[:-1]
            k = spec[-1]
            assert tree_count(spec) == (k - 1) * tree_count(head) + forest_count(head)
            assert forest_count(spec) == (k - 2) * tree_count(head) + forest_count(head)


def test_constant_k_tables():
    assert constant_k_table(4, 4).values == [1, 4, 15, 56, 209]
    assert constant_k_table(3, 4).values == [1, 3, 8, 21, 55]
    assert constant_k_table(2, 6).values == list(range(1, 8))  # T_n = n + 1
    with pytest.raises(ValueError):
        constant_k_table(1, 3)


def test_constant_k_table_matches_stacks():
    for k in (2, 3, 4):
        table = constant_k_table(k, 4)
        for n in range(5):
            assert table.values[n] == tree_count((k,) * n)


def test_constant_k_closed_form():
    for k in range(3, 9):
        table = constant_k_table(k, 300)
        for n in range(301):
            assert constant_k_closed_form(k, n) == table.values[n]
    assert constant_k_closed_form(7, 0) == 1
    assert constant_k_closed_form(7, 1) == 7
    with pytest.raises(ValueError):
        constant_k_closed_form(2, 3)


def test_house_closed_form():
    assert house_closed_form(0) == 3
    assert house_closed_form(1) == 11
    assert house_closed_form(2) == 41
    # matches the 4T - T recurrence seeded (3, 11) out to n = 300
    prev2, prev = 3, 11
    for n in range(2, 301):
        prev2, prev = prev, 4 * prev - prev2
        assert house_closed_form(n) == prev
    # and the n-story house is the stack (3, 4, ..., 4)
    for n in range(4):
        assert house_closed_form(n) == tree_count((3,) + (4,) * n)


def test_alternating_tables():
    a, b = alternating_tables(3, 4, 3)
    assert a.values[0] == 1 and b.values[0] == 0
    assert a.values[1] == 11 and b.values[1] == 3
    assert a.values[2] == 109 == tree_count((3, 4, 3, 4))
    for k1 in range(2, 6):
        for k2 in range(2, 6):
            at, bt = alternating_tables(k1, k2, 6)
            assert at.values[:2] == [1, k1 * k2 - 1]
            assert bt.values[:2] == [0, k1]
            # both sequences satisfy X_n = (k1*k2 - 2)*X_{n-1} - X_{n-2}
            for xs in (at.values, bt.values):
                for n in range(2, 7):
                    assert xs[n] == (k1 * k2 - 2) * xs[n - 1] - xs[n - 2]
    with pytest.raises(ValueError):
        alternating_tables(1, 4, 2)


def test_alternating_tables_match_stacks():
    for k1, k2 in [(3, 4), (2, 5), (4, 4), (5, 2)]:
        a, b = alternating_tables(k1, k2, 3)
        for n in range(4):
            spec = tuple(k1 if i % 2 == 0 else k2 for i in range(2 * n))
            assert a.values[n] == tree_count(spec)
        for n in range(1, 4):
            spec = tuple(k1 if i % 2 == 0 else k2 for i in range(2 * n - 1))
            assert b.values[n] == tree_count(spec)


def test_stack_groups_are_cyclic_of_tree_count_order():
    rng = random.Random(17)
    specs = [tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 4))) for _ in range(20)]
    specs += [tuple(rng.randint(2, 6) for _ in range(5)) for _ in range(8)]
    for spec in specs:
        kg = critical_group(polygon_stack(spec).graph)
        assert len(kg.invariant_factors) <= 1
        assert kg.order == tree_count(spec)


def test_quadratic_arithmetic():
    rng = random.Random(4)
    for _ in range(50):
        d = rng.choice((2, 3, 5, 12))
        x = QuadraticNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 5)), d)
        # conjugate product collapses to the rational norm
        prod = x * x.conjugate()
        assert prod.b == 0 and prod.a == x.norm()
        y = QuadraticNumber(rng.randint(-5, 5), rng.randint(-5, 5), d)
        assert (x + y) - y == x
        if y.norm() != 0:
            assert (x * y) / y == x
    sqrt3 = QuadraticNumber(0, 1, 3)
    assert sqrt3 * sqrt3 == 3
    assert (sqrt3 ** 4).as_integer() == 9
    with pytest.raises(ValueError):
        (sqrt3 + 1).as_integer()
    assert QuadraticNumber(Fraction(7, 1), 0, 3).is_integer()
    assert not QuadraticNumber(Fraction(7, 2), 0, 3).is_integer()


def test_quadratic_mixed_discriminants():
    a = QuadraticNumber(1, 2, 3)
    b = QuadraticNumber(1, 1, 5)
    with pytest.raises(ValueError):
        a + b
    # rationals mix freely regardless of tagged discriminant
    r = QuadraticNumber(4, 0, 5)
    assert (a + r).disc == 3
    assert (a * 2).a == 2
