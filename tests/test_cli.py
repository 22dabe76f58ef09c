import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fqtraces import verify
from fqtraces.cli import main
from fqtraces.verify import CheckRow


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


def test_hl_expand():
    code, out, _ = run(["hl-expand", "--lam", "1,1", "--t", "1/2", "--modified"])
    assert code == 0
    assert out == 'mu,coeff\n"2",1/2\n"1,1",1\n'


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


def test_validation_errors_exit_one():
    code, _, err = run(["dim", "--q", "zebra", "--family", "[]"])
    assert code == 1 and "invalid rational" in err
    code, _, err = run(["dim", "--q", "2", "--family", "{"])
    assert code == 1
    code, _, err = run(["no-such-command"])
    assert code == 1
    code, _, err = run([])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hl-expand", "--lam", "17", "--t", "1/2"],
        ["cyl", "--from-trace", "--q", "2", "--lam", "17"],
        ["cyl", "--q", "2", "--r", "1/2", "--lam", "17"],
        ["hl-expand", "--lam", "1000000", "--t", "1/2", "--modified"],
        ["cyl", "--from-trace", "--q", "2", "--lam", "1000000"],
    ],
)
def test_above_hl_degree_cap_exits_one_at_once(argv):
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "capped at degree 16" in err and "Traceback" not in err


def test_verify_suite_pass_exit_zero():
    code, out, _ = run(["verify", "steinberg"])
    assert code == 0
    assert out.splitlines()[0] == "suite,instance,left,right,status"
    assert all(line.endswith("pass") for line in out.splitlines()[1:])


def test_verify_unknown_suite_exit_one():
    code, _, err = run(["verify", "nope"])
    assert code == 1


def test_verify_list():
    code, out, _ = run(["verify", "--list"])
    assert code == 0
    assert "hl-schur-identity" in out.split()


def test_verify_failure_exit_two(monkeypatch):
    def failing():
        return [CheckRow("always-fails", "demo", "0", "1", False)]

    monkeypatch.setitem(verify._SUITES, "always-fails", failing)
    code, out, _ = run(["verify", "always-fails"])
    assert code == 2
    assert "fail" in out
