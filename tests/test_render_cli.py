"""Renderer golden files and the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from seaweeds import cli, formulas, meander, oracle, render, sweep
from seaweeds.cli import main
from seaweeds.meander import build_meander, components
from seaweeds.render import RenderSpec, render_meander
from seaweeds.specs import format_spec, parse_spec

DATA = pathlib.Path(__file__).parent / "data"

FIGURE_SPECS = [
    "A5:4|1/2|1|2",
    "C5:1|4/3",
    "C14:7|7/11",
    "D5:1|4/2",
    "D8:3|5/4",
    "D9:4|3/3|3",
    "D9:4|3|2/2|3|1",
    "A10:6|4/7|3",
]


def golden_name(text: str, fmt: str) -> pathlib.Path:
    safe = text.replace(":", "_").replace("/", "_").replace("|", "-")
    return DATA / f"{safe}.{fmt}"


@pytest.mark.parametrize("text", FIGURE_SPECS)
@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_render_goldens(text, fmt):
    spec = parse_spec(text)
    rendered = render_meander(build_meander(spec), RenderSpec(format=fmt), label=format_spec(spec))
    again = render_meander(build_meander(spec), RenderSpec(format=fmt), label=format_spec(spec))
    assert rendered == again, "render is not byte-deterministic"
    assert rendered == golden_name(text, fmt).read_text()


def test_render_json_fields():
    payload = json.loads(golden_name("A5:4|1/2|1|2", "json").read_text())
    assert payload["schema"] == "seaweeds/meander/v1"
    assert payload["top_edges"] == [[1, 4], [2, 3]]
    assert payload["bottom_edges"] == [[1, 2], [4, 5]]
    assert payload["tail"] == []


def test_render_svg_and_tikz_run():
    m = build_meander(parse_spec("D9:4|3/3|3"))
    svg = render_meander(m, RenderSpec(format="svg"), label="D9:4|3/3|3")
    assert svg.startswith("<svg") and 'fill="yellow"' in svg
    tikz = render_meander(m, RenderSpec(format="tikz", color_components=True), label="")
    assert "bend left=50" in tikz and "bend right=50" in tikz and "fill=yellow" in tikz


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        RenderSpec(format="png")


def run_cli(*argv):
    return main(list(argv))


def test_cli_index_meander_method(capsys):
    assert run_cli("index", "C14:7|7/11", "--method", "meander") == 0
    out = capsys.readouterr().out
    assert "index: 0" in out
    assert "justification: SPLIT_TOP_GCD_C3" in out


def test_cli_index_all_methods_agree(capsys):
    assert run_cli("index", "B5:3|2/4", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["methods"] == {"meander": 0, "formula": 0, "oracle": 0}
    assert payload["rule"] == "GCD_SPLIT_TOP"


def test_cli_index_explain(capsys):
    assert run_cli("index", "D5:1|4/2", "--method", "meander", "--explain") == 0
    out = capsys.readouterr().out
    assert "component[path" in out


def test_cli_index_formula_absent_is_not_an_error(capsys):
    assert run_cli("index", "C14:7|7/11", "--method", "formula", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["methods"] == {"formula": None}
    assert payload["index"] is None


def test_cli_rejects_bad_spec(capsys):
    assert run_cli("index", "X9:1/1") == 2
    assert run_cli("index", "C5:3/1|4") == 2  # top-sum-ge-bottom-sum
    assert run_cli("meander", "A5:4|1/2|1") == 2
    assert run_cli("delta", "C5:3/1|4") == 2  # invalid before not type A
    assert run_cli("spectrum", "C5:3/1|4") == 2


@pytest.mark.parametrize("text", ["A" + "1" * 5000 + ":1/1", "A3:" + "1" * 5000 + "/3"], ids=["n", "part"])
def test_cli_rejects_a_number_too_long_to_read(text, capsys):
    # Past the interpreter's digit limit for int(str) the parser raises
    # SpecSyntaxError; with no limit, validation rejects the sums.  Either
    # way: exit 2 and one error line, no traceback.
    assert run_cli("index", text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_meander_formats(tmp_path, capsys):
    out_file = tmp_path / "m.dot"
    assert run_cli("meander", "D9:4|3/3|3", "--format", "dot", "--out", str(out_file)) == 0
    text = out_file.read_text()
    assert "v7 [style=filled, fillcolor=yellow]" in text
    assert run_cli("meander", "A5:4|1/2|1|2", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_vertices"] == 5


def test_cli_meander_unwritable_path(capsys):
    assert run_cli("meander", "A5:4|1/2|1|2", "--out", "/nonexistent-dir/x.json") == 3


@pytest.mark.parametrize("text", ["D9:4|3|2/2|3|1", "A8:4|4/8", "GL9:1|1|1|1|1|1|1|1|1/9"])
def test_cli_meander_dot_colors_each_component(text, capsys):
    assert run_cli("meander", text, "--format", "dot", "--color-components") == 0
    lines = capsys.readouterr().out.splitlines()
    meander = build_meander(parse_spec(text))
    _, comps = components(meander)
    palette = render._PALETTE
    color = {v: palette[k % len(palette)] for k, comp in enumerate(comps) for v in comp.vertices}
    for v in range(1, meander.n_vertices + 1):
        (line,) = [line for line in lines if line.startswith(f"  v{v} [") or line == f"  v{v};"]
        assert line.endswith(f"color={color[v]}];"), line
    arcs = [line for line in lines if " -- " in line]
    assert len(arcs) == len(meander.top_edges) + len(meander.bottom_edges)
    for line in arcs:
        a, b = (int(end.strip().lstrip("v")) for end in line.split(" [")[0].split(" -- "))
        assert color[a] == color[b]
        assert line.endswith(f", color={color[a]}];"), line


def test_cli_delta(capsys):
    assert run_cli("delta", "A10:6|4/7|3") == 0
    out = capsys.readouterr().out
    assert "sigma: (4 3 2 1 10 9 8 7 6 5)" in out
    assert "delta: 9" in out


def test_cli_delta_rejects_non_frobenius(capsys):
    assert run_cli("delta", "A8:4|4/8") == 4
    capsys.readouterr()
    for text in ("C5:1|4/3", "GL3:2|1/3"):
        assert run_cli("delta", text) == 4
        assert capsys.readouterr().err == "error: the delta construction needs a type-A seaweed\n"


def test_cli_spectrum(capsys):
    assert run_cli("spectrum", "A4:2|2/1|3") == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1:1 0:3 1:3 2:1 integral unbroken symmetric"


def test_cli_spectrum_rejects_non_frobenius(capsys):
    assert run_cli("spectrum", "A8:4|4/8") == 4


def test_cli_spectrum_a3_cycle_exits_4(capsys):
    # the meander walk rejects the non-Frobenius A3:3/3 and the scans raise
    assert run_cli("spectrum", "A3:3/3") == 4
    assert "no nondegenerate functional" in capsys.readouterr().err


def test_cli_spectrum_of_a_gl_seaweed_exits_4(capsys, monkeypatch):
    # GL4:1|3/1|1|2 (dimension 8): the meander certificate reads the kernel
    # 2 of the central identity and fails, and the scans find no
    # nondegenerate functional; GL3:3/3 (dimension 9) exits before either
    kernels, principals = [], []
    solve = oracle.principal_element
    kernel = oracle._kirillov_kernel
    monkeypatch.setattr(oracle, "_kirillov_kernel", lambda *args: kernels.append(kernel(*args)) or kernels[-1])
    monkeypatch.setattr(oracle, "principal_element", lambda *args: principals.append(args) or solve(*args))
    assert run_cli("spectrum", "GL4:1|3/1|1|2") == 4
    assert capsys.readouterr().err == "error: no nondegenerate functional found in 5 trials\n"
    assert (kernels, len(principals)) == ([2], 5)
    kernels.clear()
    principals.clear()
    assert run_cli("spectrum", "GL3:3/3", "--json") == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no nondegenerate functional: dimension 9 is odd\n")
    assert (kernels, principals) == ([], [])


def test_cli_spectrum_of_a_table_takes_the_scans(tmp_path, capsys, monkeypatch):
    scans = []
    scanned = oracle._scanned_spectrum
    monkeypatch.setattr(oracle, "_scanned_spectrum", lambda *args: scans.append(args[0]) or scanned(*args))
    table = tmp_path / "family.txt"
    table.write_text("1 4 -> 1:-1\n2 3 -> 1:-1\n2 4 -> 3:-1\n3 4 -> 3:-1,2:-2\n")
    assert run_cli("spectrum", "--sc-file", str(table)) == 0
    assert len(scans) == 1 and scans[0].spec is None
    assert run_cli("spectrum", "A4:2|2/1|3") == 0
    assert len(scans) == 1


def test_cli_main_calls_in_one_process_are_independent(capsys):
    # the parser is built once; each call parses its own arguments
    assert run_cli("spectrum", "A4:2|2/1|3", "--json") == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"] == {"-1": 1, "0": 3, "1": 3, "2": 1}
    assert run_cli("spectrum", "A4:2|2/1|3") == 0
    assert capsys.readouterr().out == "-1:1 0:3 1:3 2:1 integral unbroken symmetric\n"
    assert run_cli("index", "A4:2|2/1|3", "--method", "meander") == 0
    assert "index[meander]: 0" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


def test_cli_spectrum_exits_4_at_once_on_an_odd_dimension(tmp_path, capsys, monkeypatch):
    principals = []
    solve = oracle.principal_element
    monkeypatch.setattr(oracle, "principal_element", lambda *args: principals.append(args) or solve(*args))
    table = tmp_path / "odd.sc"
    table.write_text("1 3 -> 1:1\n")
    assert run_cli("spectrum", "A20:10|10/20") == 4
    assert capsys.readouterr().err == "error: no nondegenerate functional: dimension 299 is odd\n"
    assert run_cli("spectrum", "--sc-file", str(table), "--json") == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no nondegenerate functional: dimension 3 is odd\n")
    assert principals == []


def test_cli_spectrum_from_structure_constants(tmp_path, capsys):
    table = tmp_path / "family.txt"
    table.write_text("1 4 -> 1:-1\n2 3 -> 1:-1\n2 4 -> 3:-1\n3 4 -> 3:-1,2:-2\n")
    assert run_cli("spectrum", "--sc-file", str(table), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eigenvalues"] == {"-1": 1, "0": 1, "1": 1, "2": 1}
    assert payload["integral"] is True


def test_cli_spectrum_missing_table(tmp_path, capsys):
    assert run_cli("spectrum", "--sc-file", str(tmp_path / "absent.sc")) == 3
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_cli_spectrum_without_input(capsys):
    assert run_cli("spectrum") == 2
    assert "give a spec or --sc-file" in capsys.readouterr().err


@pytest.mark.parametrize("spec_args", [("A2:1|1/2",)])
def test_cli_spectrum_with_spec_and_table(tmp_path, capsys, spec_args):
    table = tmp_path / "t.sc"
    table.write_text("1 2 -> 2:1\n")
    assert run_cli("spectrum", *spec_args, "--sc-file", str(table)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: give a spec or --sc-file, not both\n"
    assert captured.out == ""


def test_cli_spectrum_rejects_non_utf8_table(tmp_path, capsys):
    table = tmp_path / "bad.sc"
    table.write_bytes(b"\xff\xfe bad")
    assert run_cli("spectrum", "--sc-file", str(table)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_spectrum_rejects_index_below_one(tmp_path, capsys):
    table = tmp_path / "zero.sc"
    table.write_text("0 1 -> 1:1\n")
    assert run_cli("spectrum", "--sc-file", str(table)) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_spectrum_rejects_zero_denominator(tmp_path, capsys):
    table = tmp_path / "zero_denominator.sc"
    table.write_text("1 2 -> 2:1/0\n")
    assert run_cli("spectrum", "--sc-file", str(table)) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2 -> 3:1\n1 2 -> 3:1\n", "line 2: '1 2 -> 3:1' ([e_1, e_2] is already given)"),
        ("1 2 -> 3:1, 3:2\n", "line 1: '1 2 -> 3:1, 3:2' (e_3 appears twice)"),
        ("1 1 -> 1:1\n", "error: [e_1, e_1] must vanish"),
        ("1 2 -> 3:1\n2 1 -> 3:2\n", "error: bracket table is not antisymmetric at [e_1, e_2]"),
        ("1 2 -> 3:1\n1 3 -> 1:1\n2 3 -> 2:1\n", "Jacobi identity fails on (e_1, e_2, e_3): residual {e_3: 2}"),
        ("1 2 -> 3:1\n1 3 -> 1:1\n2 3 -> 2:1/2\n", "residual {e_3: 3/2}"),
    ],
)
def test_cli_spectrum_table_errors_name_the_file_indices(tmp_path, capsys, text, message):
    table = tmp_path / "bad.sc"
    table.write_text(text)
    assert run_cli("spectrum", "--sc-file", str(table)) == 2
    assert message in capsys.readouterr().err


def test_cli_spectrum_accepts_a_consistent_mate(tmp_path, capsys):
    table = tmp_path / "mate.sc"
    table.write_text("1 2 -> 2:1/2\n2 1 -> 2:-1/2\n")
    assert run_cli("spectrum", "--sc-file", str(table)) == 0
    assert capsys.readouterr().out.strip() == "0:1 1:1 integral unbroken symmetric"


def test_cli_spectrum_jacobi_cost_follows_the_table(tmp_path, capsys):
    # one bracket on index 300: the Jacobi check reads no triple, not C(300, 3)
    table = tmp_path / "wide.sc"
    table.write_text("1 300 -> 1:1\n")
    assert run_cli("spectrum", "--sc-file", str(table)) == 4


def test_cli_spectrum_kirillov_cost_follows_the_table(tmp_path, capsys):
    # one bracket on index 2000: the sparse Kirillov form has one pair, not 2000^2 entries
    table = tmp_path / "wider.sc"
    table.write_text("1 2000 -> 1:1\n")
    assert run_cli("spectrum", "--sc-file", str(table)) == 4
    assert "no nondegenerate functional" in capsys.readouterr().err


def test_cli_index_explain_builds_one_meander(monkeypatch, capsys):
    built, walked = [], []
    build, walk = cli.build_meander, meander.meander_of_valid
    monkeypatch.setattr(cli, "build_meander", lambda spec: built.append(spec) or build(spec))
    monkeypatch.setattr(meander, "meander_of_valid", lambda spec: walked.append(spec) or walk(spec))
    for text in ("A5:4|1/2|1|2", "C14:7|7/11", "D5:1|4/2", "D9:4|3|2/2|3|1"):
        for explain in ([], ["--explain"]):
            built.clear()
            walked.clear()
            assert run_cli("index", text, "--method", "meander", *explain, "--json") == 0
            payload = json.loads(capsys.readouterr().out)
            if explain:
                assert payload["components"] == json.loads(golden_name(text, "json").read_text())["components"]
            # the CLI's own build, for --explain only; D5:1|4/2 is a GCD3_PATH shape
            assert len(built) == len(walked) == len(explain), text


def test_cli_sweep_small(capsys):
    assert run_cli("sweep", "--type", "A", "--n-max", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "seaweeds/sweep/v1"
    assert payload["specs_checked"] == 1 + 4 + 16
    assert payload["mismatches"] == []


def test_cli_sweep_out_writes_the_stdout_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sweep, "time", SimpleNamespace(monotonic=lambda: 0.0))  # a fixed elapsed_seconds
    assert run_cli("sweep", "--type", "C", "--n-max", "2") == 0
    printed = capsys.readouterr().out
    out_file = tmp_path / "sweep.json"
    assert run_cli("sweep", "--type", "C", "--n-max", "2", "--out", str(out_file)) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_bytes() == printed.encode()


def test_cli_sweep_unwritable_out(capsys):
    assert run_cli("sweep", "--type", "A", "--n-max", "2", "--out", "/nonexistent-dir/s.json") == 3
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_cli_sweep_exits_1_on_a_mismatch(capsys, monkeypatch):
    oracle = sweep.index_oracle
    monkeypatch.setattr(sweep, "index_oracle", lambda lie, **kw: oracle(lie, **kw) + 1)
    assert run_cli("sweep", "--type", "A", "--n-max", "2") == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["mismatches"]) == payload["specs_checked"] == 5


def _contradicting_rule(monkeypatch):
    """Every rule that decides a verdict decides the wrong one."""
    justification = formulas._justification

    def wrong(*args):
        tag, certificate, decided = justification(*args)
        return tag, certificate, None if decided is None else not decided

    monkeypatch.setattr(formulas, "_justification", wrong)


def test_cli_index_exits_1_on_a_rule_disagreement(capsys, monkeypatch):
    _contradicting_rule(monkeypatch)
    assert run_cli("index", "B5:3|2/4") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "predicts frobenius=False but meander index is 0" in err


def test_cli_sweep_exits_1_on_a_rule_disagreement(capsys, monkeypatch):
    _contradicting_rule(monkeypatch)
    assert run_cli("sweep", "--type", "GL", "--n-max", "2") == 1
    assert "predicts frobenius=True but meander index is 1" in capsys.readouterr().err


def test_cli_index_exits_1_when_methods_disagree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "index_oracle", lambda lie, **kw: 1)
    assert run_cli("index", "B5:3|2/4", "--json") == 1
    captured = capsys.readouterr()
    assert "methods disagree" in captured.err
    payload = json.loads(captured.out)
    assert payload["methods"] == {"meander": 0, "formula": 0, "oracle": 1}
    assert payload["index"] is None


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("index", "A2:1|1/2", "--n", "5", "--type", "C", "--method", "meander"), "--type, --n"),
        (("meander", "A2:1|1/2", "--top", "1|1"), "--top"),
        (("delta", "A2:1|1/2", "--bottom", ""), "--bottom"),
        (("spectrum", "A2:1|1/2", "--type", "A"), "--type"),
    ],
)
def test_cli_spec_string_with_spec_flags(capsys, argv, flags):
    # Only a spec string names a seaweed: argparse rejects these flags as unknown.
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert all(flag in captured.err for flag in flags.split(", "))
    assert captured.out == ""


@pytest.mark.parametrize("command", ["index", "meander", "delta"])
def test_cli_without_a_spec(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(command)
    assert excinfo.value.code == 2
    assert "the following arguments are required: spec" in capsys.readouterr().err


def test_cli_sweep_budget(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEED_MAX_N", "4")
    assert run_cli("sweep", "--type", "A", "--n-max", "5") == 2


def test_cli_sweep_budget_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SEAWEED_MAX_N", "x")
    assert run_cli("sweep", "--type", "A", "--n-max", "3") == 2
    assert "SEAWEED_MAX_N" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("index", "B5:3|2/4", "--trials", "0"),
        ("spectrum", "A4:2|2/1|3", "--trials", "0"),
        ("sweep", "--type", "A", "--n-max", "2", "--trials", "0"),
        ("sweep", "--type", "A", "--n-max", "2", "--n-min", "0"),
        ("sweep", "--type", "A", "--n-max", "2", "--workers", "0"),
        ("sweep", "--type", "A", "--n-max", "2", "--workers", "-3"),
    ],
)
def test_cli_rejects_nonpositive_counts(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    assert f"{argv[-2]}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [("--n-max", "0"), ("--n-min", "3", "--n-max", "2")])
def test_cli_sweep_rejects_empty_range(bounds, capsys):
    assert run_cli("sweep", "--type", "A", *bounds) == 2
    assert capsys.readouterr().err.startswith("error: n_max")


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seaweeds.cli", "index", "B5:3|2/4", "--method", "meander"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "index: 0" in proc.stdout


def test_cli_closed_stdout_exits_3_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "seaweeds.cli", "index", "A1000000:377|999623/1000000", "--method", "meander", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_IO
    assert proc.stderr.splitlines() == ["error: stdout was closed before the output was written"]


def test_json_payloads_conform_to_shipped_schemas(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schemas = pathlib.Path(__file__).parent.parent / "docs" / "schemas"

    def check(payload, name):
        schema = json.loads((schemas / f"{name}.schema.json").read_text())
        jsonschema.validate(payload, schema)
        assert payload["schema"] == f"seaweeds/{name.split('.')[0]}/v1"

    run_cli("meander", "D5:1|4/2", "--format", "json")
    check(json.loads(capsys.readouterr().out), "meander.v1")
    run_cli("index", "B5:3|2/4", "--json")
    check(json.loads(capsys.readouterr().out), "index.v1")
    run_cli("sweep", "--type", "C", "--n-max", "2")
    check(json.loads(capsys.readouterr().out), "sweep.v1")
    run_cli("delta", "A10:6|4/7|3", "--json")
    check(json.loads(capsys.readouterr().out), "delta.v1")
    run_cli("spectrum", "A4:2|2/1|3", "--json")
    check(json.loads(capsys.readouterr().out), "spectrum.v1")
