import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fqtraces import cli, symfunc, verify
from fqtraces.cli import (
    BIREGULAR_MAX_SIZE,
    KOSTKA_DIAGRAM_CAP,
    KOSTKA_FOULKES_TABLEAU_CAP,
    _sub_diagram_count,
    main,
)
from fqtraces.measures import CHAIN_LEVEL_CAP, CHAIN_STEP_CAP
from fqtraces.oracle import SUPPORTED_ORDERS
from fqtraces.partitions import parse_partition, partitions_of
from fqtraces.traces import COEFFICIENT_DEGREE_CAP, GLU_ROW_CAP


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_dim_example():
    code, out, _ = run(
        ["dim", "--q", "2", "--family", '[{"tag":"x-1","d":1,"lambda":"1,1"}]']
    )
    assert code == 0
    assert out == "2\n"


def test_trace_example():
    code, out, _ = run(
        [
            "trace",
            "--q",
            "2",
            "--alpha",
            "",
            "--beta",
            "1",
            "--class",
            '[{"tag":"c","d":2,"lambda":"1"}]',
        ]
    )
    assert code == 0
    assert out == "-1\n"


def test_kostka_commands():
    code, out, _ = run(["kostka", "--shape", "2,1", "--content", "1,1,1"])
    assert (code, out) == (0, "2\n")
    code, out, _ = run(["kostka-foulkes", "--shape", "2,1", "--content", "1,1,1"])
    assert out == "power,coeff\n0,0\n1,1\n2,1\n"


def test_a_request_builds_the_top_level_parser_and_its_own_command_only(monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(**kwargs)

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert run(["kostka", "--shape", "2,1", "--content", "1,1,1"]) == (0, "2\n", "")
    assert built == ["fqtraces", "fqtraces kostka"]


def test_hl_expand():
    code, out, _ = run(["hl-expand", "--lam", "1,1", "--t", "1/2", "--modified"])
    assert code == 0
    assert out == 'mu,coeff\n"2",1/2\n"1,1",1\n'
    # Q_(2) vanishes at t = 1, so only the header prints
    assert run(["hl-expand", "--t", "1", "--lam", "2"]) == (0, "mu,coeff\n", "")


def test_hl_expand_negative_t_in_equals_form():
    # argparse reads a separate -3/7 as a flag; the = form passes it as the value
    code, out, err = run(["hl-expand", "--t=-3/7", "--lam", "2,1"])
    assert (code, err) == (0, "")
    assert out == 'mu,coeff\n"2,1",100/49\n"1,1,1",1200/2401\n'


_GENERIC = ["--q", "2", "--r", "1/4", "--c", "1/4"]
_GLU = '{"entries": [{"label": "a", "alpha": "1/2", "gamma": "1/2"}, {"label": "b", "gamma": "1/2"}]}'
_UNIPOTENT_CLASS = '[{"tag":"x-1","d":1,"lambda":"2,1"},{"tag":"c","d":2,"lambda":"1"}]'


@pytest.mark.parametrize(
    "argv",
    [
        ["hl-expand", "--lam", "3,2,1", "--t", "1/2"],
        ["hl-expand", "--lam", "3,2,1", "--t=-3/7", "--modified"],
        ["cyl", *_GENERIC, "--lam", "3,1"],
        ["cyl", "--from-trace", "--q", "2", "--alpha", "1/2", "--beta", "1/4", "--lam", "3,1"],
        ["coeffs", "--n", "5", "--alpha", "1/2", "--beta", "1/4"],
        ["coeffs", "--n", "4", "--glu-params", _GLU],
        ["trace", "--q", "3", "--alpha", "1/2", "--class", _UNIPOTENT_CLASS],
        ["sample", *_GENERIC, "--nmax", "6", "--seed", "1"],
        ["lln", *_GENERIC, "--nmax", "6", "--trials", "3", "--seed", "1"],
        ["verify", "hl-schur-identity"],
    ],
)
def test_commands_build_no_power_sum_element(monkeypatch, argv):
    # integer rows are the production type: no command builds a PowerSumElement
    def refuse(self, terms=None):
        raise AssertionError("PowerSumElement built")

    monkeypatch.setattr(symfunc.PowerSumElement, "__init__", refuse)
    code, out, err = run(argv)
    assert (code, err) == (0, ""), argv
    assert out


def test_coeffs_table():
    code, out, _ = run(["coeffs", "--n", "2", "--alpha", "1/2,1/2"])
    assert out == 'lambda,coeff\n"2",3/4\n"1,1",1/4\n'


def test_coeffs_glu():
    params = json.dumps(
        {
            "entries": [
                {"label": "1", "alpha": "1/2", "beta": "", "gamma": "1/2"},
                {"label": "2", "alpha": "1/2", "beta": "", "gamma": "1/2"},
            ]
        }
    )
    code, out, _ = run(["coeffs", "--n", "2", "--glu-params", params])
    assert code == 0
    assert '"1;1",1/4' in out


def test_cyl_and_from_trace():
    code, out, _ = run(["cyl", "--q", "2", "--measure", "haar", "--lam", "2,1"])
    assert out == "1/8\n"
    code, out, _ = run(
        ["cyl", "--q", "2", "--from-trace", "--alpha", "1", "--lam", "1,1"]
    )
    assert out == "1/2\n"


def test_sample_deterministic_delta():
    code, out, _ = run(
        ["sample", "--q", "2", "--measure", "delta", "--nmax", "3", "--seed", "5"]
    )
    assert out == 'level,lambda\n0,""\n1,"1"\n2,"1,1"\n3,"1,1,1"\n'


def test_lln_byte_identical():
    argv = [
        "lln", "--q", "2", "--measure", "haar",
        "--nmax", "25", "--trials", "6", "--seed", "31",
    ]
    out1 = run(argv)
    out2 = run(argv)
    assert out1 == out2
    assert out1[0] == 0
    assert out1[1].startswith("statistic,i,empirical,predicted,stderr\n")


def test_json_format():
    code, out, _ = run(
        ["--format", "json", "dim", "--q", "2", "--family", "[]"]
    )
    assert code == 0
    assert json.loads(out) == {"results": [{"value": "1"}]}


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (["hl-expand", "--lam", "2,1", "--t", "1/2"], "coeff", ["1/4", "-3/16"]),
        (["coeffs", "--n", "2", "--alpha", "1/2,1/2"], "coeff", ["3/4", "1/4"]),
        (["biregular", "--q", "2", "--max-size", "2"], "weight", ["1", "1/3"]),
    ],
)
def test_json_format_prints_exact_values_as_fractions(argv, key, expected):
    code, out, err = run(["--format", "json", *argv])
    assert code == 0 and err == ""
    assert [row[key] for row in json.loads(out)["results"]] == expected


def test_kostka_foulkes_json_is_coefficient_list():
    code, out, _ = run(
        ["--format", "json", "kostka-foulkes", "--shape", "2,1", "--content", "1,1,1"]
    )
    assert code == 0
    assert json.loads(out) == {"results": [{"coefficients": [0, 1, 1]}]}


def test_biregular_table():
    code, out, _ = run(["biregular", "--q", "2", "--max-size", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,weight"
    assert lines[1].endswith(",1")
    assert lines[2].endswith(",1/3")


def test_json_partition_cells_are_plain_strings():
    glu = json.dumps({"entries": [{"label": "1", "gamma": "1/2"}, {"label": "2", "gamma": "1/2"}]})
    cases = [
        (["hl-expand", "--lam", "1,1", "--t", "1/2", "--modified"], "mu", ["2", "1,1"]),
        (["coeffs", "--n", "2", "--alpha", "1/2,1/2"], "lambda", ["2", "1,1"]),
        (["coeffs", "--n", "1", "--glu-params", glu], "labels", [";1", "1;"]),
        (["sample", "--q", "2", "--measure", "delta", "--nmax", "2", "--seed", "5"],
         "lambda", ["", "1", "1,1"]),
    ]
    for argv, key, expected in cases:
        code, out, _ = run(["--format", "json", *argv])
        assert code == 0
        assert [row[key] for row in json.loads(out)["results"]] == expected


def test_validation_errors_exit_one():
    code, _, err = run(["dim", "--q", "zebra", "--family", "[]"])
    assert code == 1 and "invalid rational" in err
    code, _, err = run(["dim", "--q", "2", "--family", "{"])
    assert code == 1
    code, _, err = run(["no-such-command"])
    assert code == 1
    code, _, err = run([])
    assert code == 1
    code, out, err = run(["dim", "--q", "2", "--family", '[{"tag":"a","d":true,"lambda":"1"}]'])
    assert code == 1 and out == ""
    assert "block degree must be a positive integer" in err
    haar = ["--q", "2", "--measure", "haar", "--seed", "1"]
    for argv in [
        ["lln", *haar, "--nmax", "0", "--trials", "2"],
        ["lln", *haar, "--nmax", "3", "--trials", "0"],
        ["lln", *haar, "--nmax", "3", "--trials", "2", "--track", "0"],
        ["lln", *haar, "--nmax", "3", "--trials", "2", "--track", "-1"],
        ["sample", *haar, "--nmax", "-3"],
        ["biregular", "--q", "2", "--max-size", "-1"],
        ["coeffs", "--n", "-1"],
    ]:
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert "error: argument --" in err and "must be at least" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cyl", "--q", "2", "--measure", "delta", "--r", "1/2", "--lam", "1"],
        ["cyl", "--q", "2", "--r", "1/2", "--alpha", "1/3", "--lam", "1"],
        ["cyl", "--from-trace", "--measure", "haar", "--r", "1/2", "--alpha", "1/3", "--q", "2", "--lam", "1"],
        ["sample", "--q", "2", "--measure", "haar", "--c", "1/2", "--nmax", "2", "--seed", "1"],
        ["lln", "--q", "2", "--measure", "single-row", "--r", "1/2", "--nmax", "2", "--trials", "2", "--seed", "1"],
        ["coeffs", "--n", "2", "--alpha", "1/2", "--glu-params", '{"entries":[{"label":"a","gamma":"1"}]}'],
    ],
)
def test_conflicting_parameter_flags_exit_one(argv):
    # each of these used to exit 0 and ignore some of the flags
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "params",
    [
        {"entries": [{"label": "a", "alpha": 5, "gamma": "1"}]},
        {"entries": [{"label": ["a"], "gamma": "1"}]},
        {"entries": [{"label": "a", "gamma": "1/0"}]},
        {"entries": [3]},
        {"entries": [{"label": "a", "gamma": "1"}], "family": [{"tag": "c", "d": 2, "lambda": [1]}]},
    ],
)
def test_bad_glu_params_exit_one(params):
    code, out, err = run(["coeffs", "--n", "2", "--glu-params", json.dumps(params)])
    assert code == 1 and out == ""
    assert "error: argument --glu-params: " in err


@pytest.mark.parametrize(
    "flag, command, family",
    [
        # as tags, the int 1 and the string "1" would make two blocks tagged "1"
        ("--family", "dim", '[{"tag":1,"d":1,"lambda":"1"},{"tag":"1","d":1,"lambda":"2"}]'),
        # and null the tag "None"
        ("--class", "trace", '[{"tag":null,"d":1,"lambda":"1"}]'),
    ],
    ids=["dim-int-tag", "trace-null-tag"],
)
def test_family_tag_not_a_string_exits_one(flag, command, family):
    code, out, err = run([command, "--q", "3", flag, family])
    assert code == 1 and out == ""
    assert f"error: argument {flag}: invalid family JSON: family tag must be a string: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hl-expand", "--lam", "17", "--t", "1/2"],
        ["cyl", "--from-trace", "--q", "2", "--lam", "17"],
        ["cyl", "--q", "2", "--r", "1/2", "--lam", "17"],
        ["hl-expand", "--lam", "1000000", "--t", "1/2", "--modified"],
        ["cyl", "--from-trace", "--q", "2", "--lam", "1000000"],
        ["kostka-foulkes", "--shape", "6,4,3,2,1,1", "--content", ",".join(["1"] * 17)],
        # a generic chain stops at the weight's cap, so the request is
        # refused before the first step
        ["sample", "--q", "2", "--r", "1/2", "--c", "1/4", "--nmax", "17", "--seed", "1"],
        ["sample", "--q", "2", "--r", "1/2", "--c", "1/4", "--nmax", "40", "--seed", "1"],
        ["lln", "--q", "3", "--r", "1/2", "--nmax", "17", "--trials", "2", "--seed", "1"],
        ["trace", "--q", "2", "--class", '[{"tag":"c","d":1000000000,"lambda":"17"}]'],
    ],
)
def test_above_hl_degree_cap_exits_one_at_once(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "capped at degree 16" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--n", str(COEFFICIENT_DEGREE_CAP + 1), "--alpha", "1/2,1/4"],
        ["coeffs", "--n", "1000000"],
        [
            "coeffs", "--n", str(COEFFICIENT_DEGREE_CAP + 3), "--glu-params",
            '{"entries": [{"label": "a", "gamma": "1"}], "family": [{"tag":"c","d":2,"lambda":"1"}]}',
        ],
    ],
)
def test_coeffs_above_degree_cap_exits_one_at_once(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert f"capped at degree {COEFFICIENT_DEGREE_CAP}" in err and "Traceback" not in err


def test_coeffs_glu_above_row_cap_exits_one_at_once():
    # three labels at the degree cap give 341649 rows
    params = json.dumps({"entries": [{"label": label, "gamma": "1/3"} for label in "abc"]})
    start = time.perf_counter()
    code, out, err = run(["coeffs", "--n", str(COEFFICIENT_DEGREE_CAP), "--glu-params", params])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert f"capped at {GLU_ROW_CAP} rows" in err and "Traceback" not in err


_HAAR = ["--q", "2", "--measure", "haar"]
_DELTA = ["--q", "2", "--measure", "delta"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", *_DELTA, "--nmax", str(CHAIN_LEVEL_CAP + 1), "--seed", "1"],
        ["sample", *_HAAR, "--nmax", "1000000000", "--seed", "1"],
        ["lln", *_HAAR, "--nmax", str(CHAIN_LEVEL_CAP + 1), "--trials", "1", "--seed", "1"],
        ["lln", *_HAAR, "--nmax", "1", "--trials", str(CHAIN_STEP_CAP + 1), "--seed", "1"],
        ["lln", *_HAAR, "--nmax", "1000", "--trials", "1000000000", "--seed", "1"],
        ["lln", *_HAAR, "--nmax", "3", "--trials", "2", "--seed", "1", "--track", "1000000000"],
    ],
)
def test_chain_requests_above_caps_exit_one_at_once(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "capped at" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cyl", "--q", "2", "--measure", "haar", "--lam", "30000"],
        ["cyl", "--q", "3", "--measure", "single-row", "--lam", "30000"],
        ["dim", "--q", "2", "--family", '[{"tag":"x-1","d":1,"lambda":"100000"}]'],
        [
            "trace", "--q", "2", "--alpha", "1",
            "--class", '[{"tag":"c","d":1000000000,"lambda":"1"}]',
        ],
        # n(lam) = 0, but the modified Q function builds t**16 at t = 2**-3333
        [
            "trace", "--q", "2", "--alpha", "1/2,1/4", "--beta", "1/8",
            "--class", '[{"tag":"c","d":3333,"lambda":"16"}]',
        ],
    ],
)
def test_oversized_powers_of_q_exit_one_at_once(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "bits in powers of q" in err and "Traceback" not in err


_FAMILY = ["--family", '[{"tag":"x-1","d":1,"lambda":"1"}]']


@pytest.mark.parametrize(
    "argv",
    [
        ["cyl", "--q", "1", "--measure", "haar", "--lam", "1"],
        ["cyl", "--q", "1", "--r", "1/2", "--lam", "1"],
        ["sample", "--q", "1", "--measure", "delta", "--nmax", "1", "--seed", "1"],
        ["dim", "--q", "1", *_FAMILY],
        ["trace", "--q", "1", "--class", _FAMILY[1]],
    ],
)
def test_q_at_most_one_gets_one_message(argv):
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err == "error: q must exceed 1, got 1\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_value_past_the_digit_limit_exits_one(fmt):
    # the Haar cylinder of one 170-box block is 2**-14365, 4325 digits
    code, out, err = run(["--format", fmt, "cyl", "--q", "2", "--measure", "haar", "--lam", "170"])
    assert code == 1 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: exact value has more than {limit} digits, the most fqtraces prints\n"


_HAAR_PAST_THE_LIMIT = {
    f"{lam_id}-{q}": ["--q", q, "--measure", "haar", "--lam", lam]
    for lam_id, lam in (("1155", "1155"), ("35^33", ",".join(["35"] * 33)))
    for q in ("2", "3")
}
# the single-row cylinder of (n) is b**e / (a**(e-n+1) (a-b)**(n-1)), refused
# whichever flags name the family
_SINGLE_ROW_PAST_THE_LIMIT = {
    "single-row-q2-171": ["--q", "2", "--measure", "single-row", "--lam", "171"],
    "single-row-q3-1155": ["--q", "3", "--measure", "single-row", "--lam", "1155"],
    "single-row-q2**64+1-246": ["--q", str(2**64 + 1), "--measure", "single-row", "--lam", "246"],
    "custom-r1-171": ["--q", "2", "--measure", "custom", "--r", "1", "--lam", "171"],
    "r1-171": ["--q", "2", "--r", "1", "--lam", "171"],
}


@pytest.mark.parametrize(
    "argv",
    [*_HAAR_PAST_THE_LIMIT.values(), *_SINGLE_ROW_PAST_THE_LIMIT.values()],
    ids=[*_HAAR_PAST_THE_LIMIT, *_SINGLE_ROW_PAST_THE_LIMIT],
)
def test_haar_cylinder_past_the_digit_limit_exits_one_before_any_work(monkeypatch, argv):
    # the Haar cylinder of size n is q**(-n(n-1)/2) whatever the shape
    def cyl_prob(params, lam):
        raise AssertionError("cyl_prob was called")

    monkeypatch.setattr(cli, "cyl_prob", cyl_prob)
    code, out, err = run(["cyl", *argv])
    assert code == 1 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: exact value has more than {limit} digits, the most fqtraces prints\n"


def test_haar_cylinder_below_the_digit_limit_prints():
    # 2**-14196 has 4274 digits, a size the up-front refusal leaves alone
    code, out, err = run(["cyl", "--q", "2", "--measure", "haar", "--lam", "169"])
    assert code == 0 and err == ""
    assert out == f"{Fraction(1, 2**14196)}\n"


def test_single_row_cylinder_below_the_digit_limit_prints():
    # 2**-14196 has 4274 digits, a size the up-front refusal leaves alone;
    # a single-row cylinder off one row is 0 at any size
    code, out, err = run(["cyl", "--q", "2", "--measure", "single-row", "--lam", "170"])
    assert code == 0 and err == ""
    assert out == f"{Fraction(1, 2**14196)}\n"
    code, out, err = run(["cyl", "--q", "2", "--measure", "single-row", "--lam", "1154,1"])
    assert (code, out, err) == (0, "0\n", "")


def _column(tag: str, d: int, rows: int) -> dict:
    return {"tag": tag, "d": d, "lambda": ",".join(["1"] * rows)}


_TOO_LONG = "error: exact value has more than {} digits, the most fqtraces prints\n"


@pytest.mark.parametrize(
    "q, family, message",
    [
        # the one-column dimension of degree 576 at q = 3 passes the q-power cap
        ("3", [_column("x-1", 1, 576)], _TOO_LONG),
        ("2", [_column("x-1", 1, 200)], _TOO_LONG),
        ("2", [_column("x-1", 1, 100), _column("c", 2, 100)], _TOO_LONG),
        # the messages a request got before come first
        ("1", [_column("x-1", 1, 576)], "error: q must exceed 1, got 1\n"),
        (
            "3",
            [_column("x-1", 1, 400), _column("a", 1, 1), _column("b", 1, 1)],
            "error: family uses 3 degree-1 tags, but F_3 has only 2 linear factors\n",
        ),
        (
            "3",
            [_column("x-1", 1, 600)],
            "error: dimensions capped at 500000 bits in powers of q; got 540900\n",
        ),
        # non-integer q: the one-column dimension of degree 400 at q = 3/2
        ("3/2", [_column("x-1", 1, 400)], _TOO_LONG),
        ("3/2", [_column("x-1", 1, 200), _column("c", 2, 50)], _TOO_LONG),
        (
            "3/2",
            [_column("x-1", 1, 600)],
            "error: dimensions capped at 500000 bits in powers of q; got 721200\n",
        ),
        # q near 1: the denominators 10000**11175 and 4**44850 alone pass the limit
        ("10001/10000", [_column("x-1", 1, 150)], _TOO_LONG),
        ("5/4", [_column("x-1", 1, 300)], _TOO_LONG),
    ],
)
def test_dimension_past_the_digit_limit_exits_one_before_any_work(monkeypatch, q, family, message):
    def green_dimension(f, q):
        raise AssertionError("green_dimension was called")

    monkeypatch.setattr(cli, "green_dimension", green_dimension)
    code, out, err = run(["dim", "--q", q, "--family", json.dumps(family)])
    assert code == 1 and out == ""
    assert err == message.format(sys.get_int_max_str_digits())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dimension_past_the_digit_limit_after_work_exits_one(monkeypatch, fmt):
    # the Steinberg dimension of GL(170, 2) is 2**14365, 4325 digits; the
    # up-front bound, 2**14195, passes, so it is computed, then refused as text
    calls = []

    def green_dimension(f, q, computed=cli.green_dimension):
        calls.append(f)
        return computed(f, q)

    monkeypatch.setattr(cli, "green_dimension", green_dimension)
    code, out, err = run(
        ["--format", fmt, "dim", "--q", "2", "--family", json.dumps([_column("x-1", 1, 170)])]
    )
    assert len(calls) == 1
    assert code == 1 and out == ""
    assert err == _TOO_LONG.format(sys.get_int_max_str_digits())


def test_dimension_below_the_digit_limit_prints():
    # the Steinberg dimension of GL(100, 2) is 2**4950, 1491 digits
    code, out, err = run(["dim", "--q", "2", "--family", json.dumps([_column("x-1", 1, 100)])])
    assert code == 0 and err == ""
    assert out == f"{2**4950}\n"


def test_dimension_at_a_non_integer_q_below_the_digit_limit_prints():
    # the Steinberg dimension of GL(134, 3/2) is (3/2)**8911: 3**8911 has 4252 digits
    code, out, err = run(["dim", "--q", "3/2", "--family", json.dumps([_column("x-1", 1, 134)])])
    assert code == 0 and err == ""
    assert out == f"{3**8911}/{2**8911}\n"


@pytest.mark.parametrize("shape", ["400", "65", "10,10,10,10,10,10,10,10,10,10"])
def test_kostka_above_content_cap_exits_one_at_once(shape):
    ones = ",".join(["1"] * sum(int(p) for p in shape.split(",")))
    start = time.perf_counter()
    code, out, err = run(["kostka", "--shape", shape, "--content", ones])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "capped at 64 content parts" in err and "Traceback" not in err


@pytest.mark.parametrize("shape, count", [("5,4,3,2,1", 292864), ("5,4,3,2,1,1", 1153152)])
def test_kostka_foulkes_above_tableau_cap_exits_one_at_once(shape, count):
    ones = ",".join(["1"] * sum(int(p) for p in shape.split(",")))
    start = time.perf_counter()
    code, out, err = run(["kostka-foulkes", "--shape", shape, "--content", ones])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: kostka-foulkes capped at {KOSTKA_FOULKES_TABLEAU_CAP} tableaux; got {count}\n"


def _parts(*runs) -> str:
    """A partition as flag text, from runs of (part, count)."""
    return ",".join(str(part) for part, count in runs for _ in range(count))


NEAR_STAIRCASE = "11,10,9,8,7,6,5,4,3,1"


def test_sub_diagram_count_matches_a_brute_count():
    for n in range(9):
        for lam in partitions_of(n):
            inside = sum(
                len(nu) <= len(lam) and all(a <= b for a, b in zip(nu, lam))
                for m in range(n + 1)
                for nu in partitions_of(m)
            )
            assert _sub_diagram_count(lam, 10**6) == inside, lam
    for shape, count in [(NEAR_STAIRCASE, 132430), ("8,7,6,5,4,3,2,1", 4862), ("16,16,16,16", 4845)]:
        assert _sub_diagram_count(parse_partition(shape), 10**6) == count
    # the count stops once it passes the cap
    assert _sub_diagram_count((10**12,), 100) > 100
    assert 100 < _sub_diagram_count(parse_partition(NEAR_STAIRCASE), 100) < 132430


@pytest.mark.parametrize(
    "shape, content",
    [
        # 132430 sub-diagrams: 5.5 s and 1.75 s before the cap
        (NEAR_STAIRCASE, _parts((2, 32))),
        (NEAR_STAIRCASE, _parts((2, 8), (1, 48))),
        # just over the cap by the product of the rows below the first,
        # 64 * 313, and by the sub-diagrams
        ("400,312", _parts((12, 8), (11, 56))),
        ("20000,20000", _parts((1000, 40))),
    ],
)
def test_kostka_over_the_diagram_cap_exits_one_at_once(shape, content):
    start = time.perf_counter()
    code, out, err = run(["kostka", "--shape", shape, "--content", content])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: kostka with a content part above 1 capped at {KOSTKA_DIAGRAM_CAP} "
        "diagrams inside the shape\n"
    )


@pytest.mark.parametrize(
    "shape, content",
    [
        # just under the cap by the product of the rows below the first, 64 * 312
        ("400,311", _parts((12, 7), (11, 57))),
        # 4862 sub-diagrams
        ("8,7,6,5,4,3,2,1", _parts((2, 18))),
        # content 1^64 goes to the hook lengths, whatever the shape holds
        (NEAR_STAIRCASE, _parts((1, 64))),
    ],
)
def test_kostka_under_the_diagram_cap_answers_within_a_second(shape, content):
    start = time.perf_counter()
    code, out, err = run(["kostka", "--shape", shape, "--content", content])
    assert time.perf_counter() - start < 1
    expected = symfunc.kostka(parse_partition(shape), parse_partition(content))
    assert (code, out, err) == (0, f"{expected}\n", "")


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_biregular_above_size_cap_exits_one_at_once(q):
    assert set(BIREGULAR_MAX_SIZE) == set(SUPPORTED_ORDERS)
    for size in (BIREGULAR_MAX_SIZE[q] + 1, 10**9):
        start = time.perf_counter()
        code, out, err = run(["biregular", "--q", str(q), "--max-size", str(size)])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert f"capped at {BIREGULAR_MAX_SIZE[q]} for q = {q}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "shape, content, value",
    [
        ("65", "65", "1"),
        ("100", "50,50", "1"),
        ("1000000000000", "1000000000000", "1"),
        (",".join(["1"] * 400), "400", "0"),
        ("200,200", ",".join(["100"] * 4), "101"),
    ],
)
def test_kostka_short_content_of_large_degree_answers_at_once(shape, content, value):
    start = time.perf_counter()
    code, out, err = run(["kostka", "--shape", shape, "--content", content])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, value + "\n", "")


def test_verify_suite_pass_exit_zero():
    code, out, _ = run(["verify", "steinberg"])
    assert code == 0
    assert out.splitlines()[0] == "suite,instance,left,right,status"
    assert all(line.endswith("pass") for line in out.splitlines()[1:])


def test_verify_unknown_suite_exit_one():
    code, out, err = run(["verify", "nope"])
    assert code == 1
    assert out == "" and "invalid choice: 'nope'" in err


def test_verify_fault_inside_a_suite_propagates(monkeypatch):
    # a KeyError raised by a suite's own checks is a fault, not a usage error
    def broken():
        yield ("demo", "0", "0", {}["missing"])

    monkeypatch.setitem(verify._SUITES, "broken", broken)
    with pytest.raises(KeyError, match="missing"):
        run(["verify", "broken"])


def test_run_suite_refuses_an_unknown_name_and_lists_the_known_ones():
    with pytest.raises(KeyError) as info:
        verify.run_suite("nope")
    assert info.value.args == (f"unknown suite 'nope'; known: {', '.join(verify._SUITES)}",)


def test_verify_list():
    code, out, _ = run(["verify", "--list"])
    assert code == 0
    assert "hl-schur-identity" in out.split()


@pytest.mark.parametrize("suite", ["flag-kostka", "all"])
def test_verify_list_with_a_suite_exits_one(suite):
    # --list used to ignore the name and list every suite
    code, out, err = run(["verify", "--list", suite])
    assert code == 1 and out == ""
    assert err.startswith("error: verify --list takes no suite name")


def test_verify_failure_exit_two(monkeypatch):
    def failing():
        yield ("demo", "0", "1", False)

    monkeypatch.setitem(verify._SUITES, "always-fails", failing)
    code, out, _ = run(["verify", "always-fails"])
    assert code == 2
    assert "always-fails,demo,0,1,fail" in out.splitlines()


# argv fuzzing: every size stays <= 4 or far beyond a cap, so each input
# finishes quickly; verify draws only --list and unknown suites, since the
# real suites take minutes
_INTS = ["-3", "-1", "0", "1", "2", "3", "4", "1000000000", "x", ""]
_RATIONALS = ["-1", "0", "1", "2", "3", "1/2", "5/2", "1/0", "zebra", ""]
_RATIONAL_LISTS = _RATIONALS + ["1/2,1/4", "1/4,1/2", "1,1", "1/2,,1"]
_PARTITIONS = ["", "1", "2,1", "1,1,1", "4", "2,2", "1,2", "0", "-1", "a", "1,,1"]
_FAMILIES = [
    "", "{", "[]", "3", '"x"', "null", '{"tag": "x-1"}',
    '[{"tag":"x-1","d":1,"lambda":"1,1"}]',
    '[{"tag":"x-1","d":1,"lambda":"1"},{"tag":"c","d":2,"lambda":"1"}]',
    '[{"tag":"a","d":1,"lambda":"1"},{"tag":"b","d":1,"lambda":"1"}]',
    '[{"tag":["a"],"d":1,"lambda":"1"}]',
    '[{"tag":"a","d":"1","lambda":"1"}]',
    '[{"tag":"a","d":1e999,"lambda":"1"}]',
    '[{"tag":"a","d":1,"lambda":[1]}]',
    '[{"tag":"a","d":1,"lambda":2}]',
    '[{"tag":"x-1","d":2,"lambda":"1"}]',
    '[{"tag":"a","d":0,"lambda":"1"}]',
    '[{"tag":"a","d":1}]',
    "[3]",
]
_GLU = [
    "", "{", "[]", "null", '{"entries": 3}', '{"entries": [3]}',
    '{"entries": [{"label": "1", "gamma": "1/2"}, {"label": "2", "gamma": "1/2"}]}',
    '{"entries": [{"label": "1", "alpha": "1/2", "beta": "1/4", "gamma": "1"}]}',
    '{"entries": [{"label": "a", "alpha": 5, "gamma": "1"}]}',
    '{"entries": [{"label": ["a"], "gamma": "1"}]}',
    '{"entries": [{"label": "a", "gamma": 1}]}',
    '{"entries": [{"label": "a", "gamma": "1/3"}]}',
    '{"entries": [{"label": "a", "gamma": "1"}, {"label": "a", "gamma": "0"}]}',
    '{"entries": [{"label": "a", "gamma": "1"}], "family": [{"tag":"c","d":2,"lambda":"1"}]}',
    '{"entries": [{"label": "a", "gamma": "1"}], "family": [{"tag":"c","d":1,"lambda":"1"}]}',
    '{"entries": [{"label": "a", "gamma": "1"}], "family": {"c": 1}}',
]
_MEASURE_FLAGS = {
    "--q": _RATIONALS,
    "--measure": ["haar", "delta", "single-row", "custom", "nope"],
    "--r": _RATIONAL_LISTS,
    "--c": _RATIONAL_LISTS,
}
_FLAGS = {
    "dim": {"--q": _RATIONALS, "--family": _FAMILIES},
    "kostka": {"--shape": _PARTITIONS, "--content": _PARTITIONS},
    "kostka-foulkes": {"--shape": _PARTITIONS, "--content": _PARTITIONS},
    "hl-expand": {"--lam": _PARTITIONS, "--t": _RATIONALS, "--modified": None},
    "trace": {
        "--q": _RATIONALS, "--alpha": _RATIONAL_LISTS, "--beta": _RATIONAL_LISTS,
        "--class": _FAMILIES,
    },
    "coeffs": {
        "--n": _INTS, "--alpha": _RATIONAL_LISTS, "--beta": _RATIONAL_LISTS,
        "--glu-params": _GLU,
    },
    "biregular": {"--q": _INTS, "--max-size": _INTS},
    "cyl": {
        **_MEASURE_FLAGS, "--lam": _PARTITIONS, "--from-trace": None,
        "--alpha": _RATIONAL_LISTS, "--beta": _RATIONAL_LISTS,
    },
    "sample": {**_MEASURE_FLAGS, "--nmax": _INTS, "--seed": _INTS},
    "lln": {**_MEASURE_FLAGS, "--nmax": _INTS, "--trials": _INTS, "--seed": _INTS, "--track": _INTS},
    "verify": {"--list": None},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "verify":
        argv += draw(st.lists(st.sampled_from(["--list", "nope", "all-suites", ""]), min_size=1))
    for flag, pool in _FLAGS[command].items():
        if draw(st.integers(0, 3)) == 0:
            continue
        argv += [flag] if pool is None else [flag, draw(st.sampled_from(pool))]
    return ["--format", draw(st.sampled_from(["csv", "json"])), *argv]


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and out == ""
    if code == 0 and argv[1] == "json":
        json.loads(out)
