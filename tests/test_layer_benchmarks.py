"""Each body of the files in ``benchmarks/`` run once, untimed, with its result checked.

The benchmark files are outside ``testpaths``; this keeps them from rotting.
The bytecode counter they share runs twice, on the cheapest body.  The
end-to-end bodies each start a process: their argv are parsed, and the
cheapest one that computes runs in process.
"""

import importlib.util
import shlex
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path
from time import perf_counter

import pytest

import oracle_reference as ref
from hl_reference import (
    block_value_reference,
    hl_q_by_charge,
    schur_value_reference,
    sym_character_reference,
)

from fqtraces.cli import build_parser
from fqtraces.measures import MeasureParams, _trial_rng, cyl_prob, cyl_prob_from_trace
from fqtraces.oracle import extension_classes
from fqtraces.partitions import (
    add_box,
    addable_corners,
    hook_lengths,
    partitions_of,
    size,
    transpose,
)
from fqtraces.specializations import GeometricSpread, Specialization
from fqtraces.symfunc import _hl_q

_BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def _load(name):
    # registered by name, so that the benchmark files import the counter
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


opcode_count = _load("opcode_count")
layers = _load("test_layers")
symfunc_layers = _load("test_symfunc_layers")
chain_layers = _load("test_chain_layers")
value_layers = _load("test_value_layers")
e2e = _load("test_e2e")


def test_layer_benchmark_bodies():
    assert set(layers.BODIES) == {
        "is-invertible-f3-4x4",
        "classes-f3-3x3",
        "jordan-types-f2-5x5",
        "unipotent-extensions-f3-4x4",
        "flag-shapes-f2-4x4",
        "flag-partitions-f3-5x5",
        "complete-flags-f2-7x7",
    }
    dense = [ref.DenseMatrix(m.field, m.rows) for m in layers.RANDOM_F3_4]
    assert layers.invertible_f3_4x4() == sum(m.is_invertible() for m in dense)
    # |GL(3, 3)| matrices in its q^3 - q classes
    classes = layers.classes_f3_3x3()
    assert len(classes) == 11232
    assert len(set(classes)) == 24
    # every type of size 5 occurs among the unitriangular matrices
    types = Counter(layers.jordan_types_f2_5x5())
    assert sum(types.values()) == 1024
    assert set(types) == set(partitions_of(5))
    # each parent's 81 extensions, classified one by one, against the
    # classes read off the parent's chain
    expected = [extension_classes(g)[1] for g in layers.UNITRIANGULAR_F3_4]
    assert layers.unipotent_extensions_f3_4x4() == expected
    assert all(sum(c.values()) == 81 for c in expected)
    # the identity fixes every flag: (1, 1, 1, 1) counts the 15 * 7 * 3 full flags
    flags = dict(zip(layers.FLAG_SHAPES, layers.flag_shapes_f2_4x4()))
    assert len(flags) == 8
    assert flags[(4,)] == 1 and flags[(1, 3)] == 15 and flags[(1, 1, 1, 1)] == 315
    # the two flag bodies of larger unitriangular matrices, against the
    # quotient recursion of the dense reference
    m = layers.UNITRIANGULAR_F3_5
    dense = ref.DenseMatrix(m.field, m.rows)
    expected = [ref.flag_count(dense, mu) for mu in partitions_of(5)]
    assert layers.flag_partitions_f3_5x5() == expected
    m = layers.UNITRIANGULAR_F2_7
    dense = ref.DenseMatrix(m.field, m.rows)
    assert layers.complete_flags_f2_7x7() == ref.flag_count(dense, (1,) * 7)


def test_symfunc_layer_benchmark_bodies():
    assert set(symfunc_layers.COLD) == {"partitions-20", "character-table-12", "hl-q-cold-12"}
    assert set(symfunc_layers.WARM) == {"schur-row-12", "hl-q-warm-12"}
    symfunc_layers.clear_tables()
    assert partitions_of.cache_info().currsize == 0
    assert len(symfunc_layers.partitions_20()) == 627
    symfunc_layers.clear_tables()
    table, masks, index = symfunc_layers.character_table_12()
    order = partitions_of(12)
    assert len(table) == len(masks) == len(index) == 77
    # the column of the identity, (1^12), is the hook-length count
    dims = [factorial(12) // prod(hook_lengths(lam)) for lam in order]
    assert [row[-1] for row in table] == dims
    # the Schur coefficients against the reference characters
    den, row = symfunc_layers.Q_ROW
    expected = [
        Fraction(sum(sym_character_reference(lam, rho) * c for rho, c in zip(order, row)), den)
        for lam in order
    ]
    assert symfunc_layers.schur_row_12() == expected
    # the 77 Q rows, cold, each reduced over its least denominator, a few
    # against the charge route; read again, they are 77 memo hits
    symfunc_layers.clear_tables()
    rows = symfunc_layers.hl_q_12()
    assert len(rows) == 77
    assert all(len(row) == 77 and den > 0 and gcd(den, *row) == 1 for den, row in rows)
    for lam in ((12,), (10, 2), (9, 2, 1)):
        den, row = rows[order.index(lam)]
        expected = hl_q_by_charge(lam, symfunc_layers.Q_T).terms
        assert {rho: Fraction(c, den) for rho, c in zip(order, row) if c} == expected, lam
    before = _hl_q.cache_info()
    assert symfunc_layers.hl_q_12() == rows
    after = _hl_q.cache_info()
    assert (after.hits - before.hits, after.currsize) == (77, before.currsize)


def _stepwise(params, n_max, trial):
    """The chain's diagrams, one 64-bit draw of the trial's stream a step."""
    bits = _trial_rng(chain_layers.SEED, trial).getrandbits
    out = [()]
    for _ in range(n_max):
        out.append(params.family.step(out[-1], bits(64)))
    return out


def test_chain_layer_benchmark_bodies():
    assert set(chain_layers.WARM) == {
        "haar-q2-1000",
        "haar-near-1-2000",
        "lln-haar-1000x20",
        "lln-haar-near-1-2000x5",
    }
    assert set(chain_layers.COLD) == {"generic-row-12"}
    # each level adds one box to the one before
    for body, params, n_max in (
        (chain_layers.haar_q2_1000, chain_layers.HAAR2, 1000),
        (chain_layers.haar_near_1_2000, chain_layers.HAAR_NEAR_1, 2000),
    ):
        trajectory = body()
        assert trajectory == _stepwise(params, n_max, 0)
        assert all(
            mu in {add_box(lam, i) for i, _ in addable_corners(lam)}
            for lam, mu in zip(trajectory, trajectory[1:])
        )
    # the near-1 chain grows about 1800 rows
    assert 1700 < len(chain_layers.haar_near_1_2000()[-1]) < 1900
    # the lln rows from the per-step diagrams of the 20 trials
    rows = chain_layers.lln_haar_1000x20()
    last = [_stepwise(chain_layers.HAAR2, 1000, trial)[-1] for trial in range(20)]
    assert [r.empirical for r in rows[:4]] == [
        sum(lam[i] for lam in last if len(lam) > i) / 20000 for i in range(4)
    ]
    assert [r.empirical for r in rows[4:]] == [
        sum(transpose(lam)[i] for lam in last if lam[0] > i) / 20000 for i in range(4)
    ]
    # and the near-1 rows from the last per-step diagrams of its 5 trials,
    # each of some 1800 rows
    rows = chain_layers.lln_haar_near_1_2000x5()
    last = [_stepwise(chain_layers.HAAR_NEAR_1, 2000, trial)[-1] for trial in range(5)]
    assert all(1700 < len(lam) < 1900 for lam in last)
    assert [r.empirical for r in rows[:4]] == [sum(lam[i] for lam in last) / 10000 for i in range(4)]
    assert [r.empirical for r in rows[4:]] == [
        sum(transpose(lam)[i] for lam in last if lam[0] > i) / 10000 for i in range(4)
    ]
    chain_layers.clear_tables()
    assert partitions_of.cache_info().currsize == 0
    row = chain_layers.generic_row_12()
    lam = chain_layers.GENERIC_LAM
    assert size(lam) == 12
    assert [mu for mu, _ in row] == [add_box(lam, i) for i, _ in addable_corners(lam)]
    assert sum(p for _, p in row) == 1 and all(p > 0 for _, p in row)


def test_value_layer_benchmark_bodies():
    assert set(value_layers.WARM) == {
        "power-products-16",
        "cyl-prob-generic-8",
        "trace-values-classes",
        "trace-coefficients-8",
        "parameter-sets-1000",
    }
    sp = value_layers.SP
    # each p_rho over E against the product of its p_k
    e, values = value_layers.power_products_16()
    assert len(values) == 231
    for rho, v in zip(partitions_of(16), values):
        assert Fraction(v, e) == prod((sp.power_sum(k) for k in rho), start=Fraction(1)), rho
    # the cylinders against the trace route, under r = spread(alpha), c = beta
    cyls = iter(value_layers.cyl_prob_generic_8())
    for alpha, beta, q in value_layers.CYL_SIDES:
        trace_sp = Specialization.finite(alpha, beta, 1)
        for lam in partitions_of(8):
            assert next(cyls) == cyl_prob_from_trace(trace_sp, lam, q), (q, lam)
    # the class values against the product of Fraction block values
    classes = value_layers.CLASSES
    assert len(classes) == 130
    for (fam, q), value in zip(classes, value_layers.trace_values_classes(), strict=True):
        blocks = (block_value_reference(sp, d, lam, Fraction(q)) for _, d, lam in fam.blocks)
        assert value == prod(blocks, start=Fraction(1)), fam
    # the coefficients against one Schur function at a time
    assert value_layers.trace_coefficients_8() == {
        lam: schur_value_reference(sp, lam) for lam in partitions_of(8)
    }
    # the parameter sets of the given sides, and a size for each list
    sides = value_layers.SET_SIDES
    params, sps = value_layers.parameter_sets_1000()
    assert len(params) == len(sps) == len(sides) == 1000
    for p, sp, (alpha, beta, q) in zip(params, sps, sides):
        spread, beta_spread = GeometricSpread(alpha, q), GeometricSpread(beta, q)
        assert p.specialization() == Specialization(spread, beta_spread, 1)
        assert (sp.alpha.values, sp.beta.values, sp.gamma) == (alpha, beta, 1)
    sizes = value_layers.bytes_per_set()
    assert set(sizes) == {"measure-params", "specialization-finite"}
    assert 0 < sizes["specialization-finite"] < sizes["measure-params"]


def test_opcode_count_of_the_cheapest_body():
    # the warm Schur row, the cheapest body, runs some 6000 bytecodes,
    # nearly all of them in the frames it opens; the count repeats
    # exactly, and the trace function in place before it is back after it
    expected = symfunc_layers.schur_row_12()
    before = sys.gettrace()
    counts = [opcode_count.count_opcodes(symfunc_layers.schur_row_12) for _ in range(2)]
    assert sys.gettrace() is before
    assert counts[0] == counts[1] > 1000
    assert symfunc_layers.schur_row_12() == expected


def test_e2e_benchmark_bodies(monkeypatch, capsys):
    assert set(e2e.INVOCATIONS) == {
        "help", "cyl-generic", "hl-expand-16", "lln-haar-1000x200", "kostka-slowest",
        "lln-generic-cap-q2", "lln-generic-cap-q-near-1",
    }
    # every golden request is a body, and the generic lln bodies have rows
    golden = e2e.golden_digests()
    bodies = {shlex.join(argv): name for name, argv in e2e.INVOCATIONS.items()}
    assert {bodies[argv] for argv in golden} == {"lln-generic-cap-q2", "lln-generic-cap-q-near-1"}
    # every body's argv parses; --help prints the usage and exits 0
    for name, argv in e2e.INVOCATIONS.items():
        if name == "help":
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: fqtraces")
        else:
            assert build_parser().parse_args(argv).command == argv[0]
    # the cheapest body that computes, in process, as the bodies compare it
    monkeypatch.setenv("COLUMNS", "80")
    start = perf_counter()
    out = e2e.in_process(e2e.INVOCATIONS["cyl-generic"])
    assert perf_counter() - start < 0.3
    params = MeasureParams((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 8),), 2)
    assert out == f"{cyl_prob(params, (3, 2, 1))}\n"
