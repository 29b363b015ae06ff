"""Command-line interface: commands, exit codes, JSON output, determinism."""

import json

import pytest

from quadrica.cli import main, parse_type_string


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_type_string():
    assert parse_type_string("p2", "2,2,2,2") == (2, 2, 2, 2)
    assert parse_type_string("p1xp1", "1:1,1:1,1:1,3:3") == (
        (1, 1), (1, 1), (1, 1), (3, 3))
    from quadrica.cli import InputError
    with pytest.raises(InputError):
        parse_type_string("p2", "2,2,2")
    with pytest.raises(InputError):
        parse_type_string("p1xp1", "1,1,1,3")


def test_certify_hpt_text(capsys):
    code, out, _ = run_cli(capsys, "certify", "--surface", "p2", "--type", "2,2,2,2")
    assert code == 0
    assert "NotStablyRational" in out
    assert "digest:" in out


def test_certify_rational(capsys):
    code, out, _ = run_cli(capsys, "certify", "--surface", "p2", "--type", "0,0,2,4")
    assert code == 0 and "Rational" in out


def test_certify_open(capsys):
    code, out, _ = run_cli(capsys, "certify", "--surface", "p2", "--type", "1,1,1,3")
    assert code == 0 and "Open" in out


def test_certify_unknown_exit_3(capsys):
    code, out, _ = run_cli(capsys, "certify", "--surface", "p1xp1",
                           "--type", "0:0,0:0,2:0,2:0")
    assert code == 3 and "Unknown" in out


def test_certify_parity_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "certify", "--surface", "p2", "--type", "1,2,2,2")
    assert code == 2 and "parity" in err


def test_certify_malformed_type_exit_2(capsys):
    code, _, err = run_cli(capsys, "certify", "--surface", "p2", "--type", "a,b,c,d")
    assert code == 2


def test_certify_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "certify", "--surface", "p2",
                           "--type", "2,2,2,2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "NotStablyRational"
    cert = data["certificate"]
    assert cert["schema"] == "quadrica-cert/1"
    assert cert["discriminant"]["nontrivial"] is True
    assert cert["pirutka"]["passed"] is True
    # all polynomials re-parse
    from quadrica.poly import parse_poly
    for e in cert["degeneration"]:
        parse_poly(e, ("x", "y", "z"))


def test_invariants_command(capsys, Fb):
    code, out, _ = run_cli(
        capsys, "invariants", "--surface", "p2",
        "--entries", "y;x;x*y;x^2+y^2+1-2*(x*y+x+y)", "--alpha", "x|y")
    assert code == 0
    assert "discriminant" in out
    assert "alpha residues: x: t; y: t; z: t" in out


def test_certify_json_rational_has_no_certificate(capsys):
    code, out, _ = run_cli(capsys, "certify", "--surface", "p2",
                           "--type", "0,0,2,4", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "Rational"
    assert "certificate" not in data


def test_invariants_json(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--surface", "p2", "--output", "json",
        "--entries", "y;x;x*y;x^2+y^2+1-2*(x*y+x+y)", "--alpha", "x|y")
    assert code == 0
    data = json.loads(out)
    assert data["discriminant"]["nontrivial"] is True
    assert data["alpha_residues"] == {"x": "t", "y": "t", "z": "t"}


def test_invariants_alpha_slot_with_a_sum(capsys, p2, xyz):
    from quadrica.brauer import residue_profile, symbol
    x, y, _ = xyz
    code, out, _ = run_cli(capsys, "invariants", "--surface", "p2", "--entries",
                           "y;x;x*y;x^2+y^2+1-2*(x*y+x+y)", "--alpha", "(x+1)|y",
                           "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [["x+1", "y"]]
    prof = residue_profile(symbol(x + 1, y), p2)
    assert data["alpha_residues"] == {str(c): str(r) for c, r in prof.entries}
    assert "x+z" in data["alpha_residues"]
    # a '+' outside parentheses still joins symbols
    code, out, _ = run_cli(capsys, "invariants", "--surface", "p2", "--entries",
                           "y;x;x*y;x^2+y^2+1-2*(x*y+x+y)", "--alpha", "x|y+x*y|x",
                           "--output", "json")
    assert code == 0 and json.loads(out)["alpha"] == [["x", "y"], ["x*y", "x"]]


def test_certify_failed_link_exit_3(capsys, monkeypatch):
    import quadrica.certify as certify
    from quadrica.funfield import UnsupportedCurveError

    def refuse(u, s):
        raise UnsupportedCurveError("no parametrization")
    monkeypatch.setattr(certify, "residue_profile", refuse)
    code, out, err = run_cli(capsys, "certify", "--surface", "p2", "--type", "2,2,2,2")
    assert code == 3 and "Traceback" not in err
    assert "outcome: Unknown" in out
    assert "note: link residues: inconclusive (no parametrization)" in out


def test_invariants_no_alpha(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--surface", "p2",
                           "--entries", "y;x;x*y;x^2+y^2+1-2*(x*y+x+y)")
    assert code == 0 and "alpha" not in out


def test_invariants_malformed_entry(capsys):
    code, _, err = run_cli(capsys, "invariants", "--surface", "p2",
                           "--entries", "y;x;x*y;x^2+")
    assert code == 2 and "position" in err


def test_invariants_deep_nesting_exit_2(capsys):
    deep = "(" * 3000 + "x" + ")" * 3000
    code, _, err = run_cli(capsys, "invariants", "--surface", "p2",
                           "--entries", f"y;{deep};x*y;1")
    assert code == 2 and "nested deeper than 100 levels" in err
    assert "Traceback" not in err


def test_invariants_homogeneous(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "--surface", "p2", "--homogeneous",
        "--entries", "y*z;x*z;x*y;x^2+y^2+z^2-2*(x*y+x*z+y*z)")
    assert code == 0
    assert "fiber: <y, x, x*y," in out


def test_table_bound_guard(capsys, count_calls):
    import quadrica.certify as certify
    counts = count_calls(certify, "enumerate_types")
    for surface_kind, bound, limit in (("p2", 21, 20), ("p1xp1", 13, 12)):
        code, _, err = run_cli(capsys, "table", "--surface", surface_kind, "--bound", str(bound))
        assert code == 2 and f"0..{limit}" in err
    assert counts == {"enumerate_types": 0}


def test_table_bound_zero(capsys):
    code, out, _ = run_cli(capsys, "table", "--surface", "p2", "--bound", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("0,0,0,0\tRational")


def test_table_rows_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "table", "--surface", "p2", "--bound", "6")
    assert code == 0
    code, out4, _ = run_cli(capsys, "table", "--surface", "p2", "--bound", "6",
                            "--jobs", "4")
    assert code == 0
    assert out1 == out4
    rows = dict(line.split("\t")[:2] for line in out1.strip().splitlines())
    assert rows["0,2,2,2"] == "Open"
    assert rows["2,2,2,2"] == "NotStablyRational"
    assert rows["0,0,0,6"] == "Rational"
    assert len(rows) == 50


def test_table_json_lines(capsys):
    code, out, _ = run_cli(capsys, "table", "--surface", "p2", "--bound", "2",
                           "--output", "json")
    assert code == 0
    for line in out.strip().splitlines():
        row = json.loads(line)
        assert {"type", "outcome", "reason", "digest"} <= set(row)


def test_invariants_linear_entries(capsys):
    # y^2-1 splits over Q, so every residue divisor is a line
    code, out, _ = run_cli(capsys, "invariants", "--surface", "p2",
                           "--entries", "1;y-1;y+1;x")
    assert code == 0
    assert "discriminant: {x, y+1, y-1}" in out


def test_invariants_factor_each_entry(capsys):
    # the product of the entries has the degree-4 radical (x+1)(y+1)F, which
    # the factorizer does not take; every entry alone factors
    code, out, _ = run_cli(capsys, "invariants", "--surface", "p2", "--entries",
                           "x+1;(x+1)*(y+1);y+1;x^2+y^2+1-2*(x*y+x+y)")
    assert code == 0
    assert "discriminant: {x^2-2*x*y+y^2-2*x-2*y+1}" in out
    assert ("clifford: (x+1, x^2-2*x*y+y^2-2*x-2*y+1) + (y+1, x*y+x+y+1)\n") in out


def test_invariants_conic_split_over_extension_exit_2(capsys):
    # x^2+y^2 is a pair of lines defined only over Q(i)
    code, _, err = run_cli(capsys, "invariants", "--surface", "p2",
                           "--entries", "1;x;x^2+y^2;x*(x^2+y^2)")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_table_jobs_capped_at_cpu_count(capsys, monkeypatch):
    import quadrica.cli as cli
    seen = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps
        in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    for jobs in ("2", "3", "1000000"):
        code, out, _ = run_cli(capsys, "table", "--surface", "p2", "--bound", "2",
                               "--jobs", jobs)
        assert code == 0 and out.count("\n") == 6
    assert seen == [2, 3, 3]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    code, _, _ = run_cli(capsys, "table", "--surface", "p2", "--bound", "2",
                         "--jobs", "8")
    assert code == 0 and seen == [2, 3, 3]   # one CPU: no pool at all


def test_usable_cpus_positive():
    from quadrica.cli import _usable_cpus
    assert _usable_cpus() >= 1


@pytest.mark.parametrize("surface_kind,name,bound", [
    ("p2", "p2_b16.tsv", 8),
    ("p1xp1", "p1xp1_b5.tsv", 3),
])
def test_table_rows_match_frozen_reference(surface_kind, name, bound):
    # the benchmark's frozen `table` output; a drift in any type, outcome,
    # reason or digest shows here, not only in the benchmark
    from pathlib import Path

    from quadrica.certify import enumerate_types
    from quadrica.cli import _table_row
    from quadrica.quadform import BundleType
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / name
    want = {row.split("\t")[0]: row for row in path.read_text().splitlines()}
    for data in enumerate_types(surface_kind, bound):
        row = _table_row((surface_kind, data, "text"))
        assert row == want[str(BundleType.of(surface_kind, data))]


def test_table_prints_each_row_as_it_is_produced(capsys, monkeypatch):
    import quadrica.cli as cli
    table_row = cli._table_row
    done = []

    def stop_after_two(job):
        if len(done) == 2:
            raise RuntimeError("stopped")
        done.append(job)
        return table_row(job)

    monkeypatch.setattr(cli, "_table_row", stop_after_two)
    with pytest.raises(RuntimeError):
        main(["table", "--surface", "p2", "--bound", "2"])
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == ["0,0,0,0", "0,0,0,2"]


def test_table_jobs_below_one_rejected(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "table", "--surface", "p2", "--bound", "2",
                                 "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == "error: --jobs must be at least 1\n"


class ClosedAfter:
    """A stdout whose reader goes away after `rows` lines: every later
    write raises BrokenPipeError."""

    def __init__(self, rows):
        self.rows = rows
        self.text = ""

    def write(self, text):
        if self.text.count("\n") >= self.rows:
            raise BrokenPipeError(32, "Broken pipe")
        self.text += text
        return len(text)

    def flush(self):
        pass


def test_table_first_rows_take_little_memory(monkeypatch):
    # three rows of the 650,966-row sweep: the types are enumerated lazily,
    # and a list of them (with its job tuples) takes about 100 MB
    import sys
    import tracemalloc
    reader = ClosedAfter(3)
    monkeypatch.setattr(sys, "stdout", reader)
    tracemalloc.start()
    try:
        code = main(["table", "--surface", "p1xp1", "--bound", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.stdout.close()
    assert code == 141 and len(reader.text.splitlines()) == 3
    assert peak < 1_000_000


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table_broken_pipe_exits_141_quietly(capsys, monkeypatch, jobs):
    import sys

    import quadrica.cli as cli
    table_row = cli._table_row
    computed, cancelled = [], []

    def counted_row(job):
        computed.append(job)
        return table_row(job)

    class LazyPool:
        """Stands in for ProcessPoolExecutor: maps lazily in this process,
        and on leaving computes every row not cancelled, as the real pool's
        shutdown(wait=True) waits for every submitted row."""

        def __init__(self, max_workers):
            self.rows = iter(())

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            if not cancelled:
                list(self.rows)
            return False

        def map(self, fn, items, chunksize=1):
            self.rows = map(fn, items)
            return self.rows

        def shutdown(self, wait=True, cancel_futures=False):
            cancelled.append(cancel_futures)

    monkeypatch.setattr(cli, "_table_row", counted_row)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    reader = ClosedAfter(2)
    monkeypatch.setattr(sys, "stdout", reader)
    code = main(["table", "--surface", "p2", "--bound", "4", "--jobs", jobs])
    quiet = sys.stdout
    assert quiet is not reader
    quiet.write("the interpreter's final flush goes here\n")
    quiet.flush()
    quiet.close()
    assert code == 141 and capsys.readouterr().err == ""
    assert [row.split("\t")[0] for row in reader.text.splitlines()] == [
        "0,0,0,0", "0,0,0,2"]
    assert len(computed) == 3          # the row whose print failed, and no more
    assert cancelled == ([True] if jobs == "2" else [])
