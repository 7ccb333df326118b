import ast
import hashlib
import itertools
import json
import math
import os
import re
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mirahall import (
    artifacts,
    bimodule,
    cache,
    checks,
    cli,
    closedform,
    costs,
    hall,
    oracle,
    partitions,
    symfunc,
    traces,
)
from mirahall.config import (
    RunConfig,
    bplabel,
    parse_bipartition,
    parse_partition,
    read_config_file,
    resolve,
)
from mirahall.costs import (
    check_cost,
    check_hall_cost,
    check_universe_cost,
    hall_units,
)
from mirahall.errors import CostGuard, IOFailure, UsageError
from mirahall.laurent import LaurentPoly, QPoly

GOLDEN_PI_CSV = """\
,(2)|(),(1)|(1),"(1,1)|()",()|(2),"()|(1,1)"
(2)|(),1,0,0,0,0
(1)|(1),v^-1,1,0,0,0
"(1,1)|()",v^-2,v^-1,1,0,0
()|(2),v^-2,v^-1,0,1,0
"()|(1,1)",v^-4,v^-3 + v^-1,v^-2,v^-2,1
"""


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRAHALL_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_pi_csv_golden(capsys):
    code, out = run(capsys, "pi", "--n", "2", "--N", "2", "--format", "csv")
    assert code == 0
    assert out == GOLDEN_PI_CSV
    assert out.splitlines()[0].count("|") == 5


def test_pi_json_round_trip(capsys):
    code, out = run(capsys, "pi", "--n", "2", "--N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "pi"
    from mirahall.bimodule import pi_table

    table = pi_table(2, 2)
    seen = 0
    for cell in payload["calibrated"]:
        poly = LaurentPoly.from_json(cell["coeff"])
        row = parse_bipartition(cell["row"])
        col = parse_bipartition(cell["col"])
        assert table.value(row, col) == poly
        seen += 1
    assert seen == 14


def test_trace_cells_are_the_nonzero_calibrated_cells_in_order():
    for n in range(6):
        pi_cells = artifacts.pi_payload(n, max(n, 1))["calibrated"]
        trace_cells = artifacts.trace_payload(n, 3)["cells"]
        assert [(c["row"], c["col"]) for c in trace_cells] == [
            (c["row"], c["col"]) for c in pi_cells
        ], n


def test_pi_raw_cells_are_the_stored_cells_times_their_sign():
    # no served digest covers `raw` below full rank
    for n in range(7):
        for rank in {max(n, 1), 2}:
            table = bimodule.pi_table(n, rank)
            want = [
                {"row": bplabel(row), "col": bplabel(col),
                 "coeff": (table.cells[row, col]
                           * bimodule.calibration_sign(row, col)).to_json()}
                for row in table.order
                for col in table.order
                if (row, col) in table.cells
            ]
            assert artifacts.pi_payload(n, rank)["raw"] == want, (n, rank)


def test_pi_latex_standalone(capsys):
    code, out = run(capsys, "pi", "--n", "2", "--N", "2", "--format", "latex")
    assert code == 0
    assert out.startswith("\\documentclass{article}")
    assert out.rstrip().endswith("\\end{document}")
    assert "v^{-4}" in out


def test_pi_negative_size_is_usage_error(capsys):
    code, _ = run(capsys, "pi", "--n", "-1")
    assert code == 2


def test_bad_subcommand_and_flag(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["pi", "--window-dressing", "9"]) == 2


def test_module_error_maps_to_exit_one(capsys):
    code, out = run(capsys, "trace", "--n", "1", "--q", "2",
                    "--out", "/nonexistent-dir/x.json")
    assert code == 1 and out == ""


def test_failed_check_maps_to_exit_one(capsys, monkeypatch):
    broken = [{"suite": "rho", "name": "mirror", "passed": False, "detail": "x"}]
    monkeypatch.setitem(checks._SUITE_RUNNERS, "rho", lambda cfg: broken)
    code, out = run(capsys, "verify", "--suite", "rho")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_cold_and_cached_runs_identical(capsys):
    _, cold = run(capsys, "trace", "--n", "2", "--q", "2")
    _, warm = run(capsys, "trace", "--n", "2", "--q", "2")
    assert cold == warm
    payload = json.loads(warm)
    cells = {(c["row"], c["col"]): QPoly.from_json(c["plain"]) for c in payload["cells"]}
    assert cells[("()|(1,1)", "(1)|(1)")] == QPoly.q_power(1) + 1


def _read_entry(path) -> tuple[dict, str]:
    """The parsed header line and the exact body of a cache entry."""
    with open(path, encoding="utf-8", newline="") as fh:
        tag, module, params, length = ast.literal_eval(fh.readline())
        header = {"tag": tag, "module": module, "params": dict(params), "length": length}
        return header, fh.read()


def _header_line(header: dict) -> str:
    """The header line of `header`, as `cache` writes it."""
    params = sorted(header["params"].items())
    return repr((header["tag"], header["module"], params, header["length"])) + "\n"


def _write_entry(path, header: dict, body: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_header_line(header) + body)


def test_cache_entries_land_in_env_dir(tmp_path, capsys):
    _, out = run(capsys, "pi", "--n", "1", "--N", "1", "--format", "csv")
    entries = [_read_entry(p) for p in (tmp_path / "cache").iterdir()]
    # a cold csv request stores the json artifact and its own, nothing else
    params = sorted((header["params"] for header, _ in entries), key=lambda p: p["format"])
    assert params == [{"n": 1, "N": 1, "format": "csv"}, {"n": 1, "N": 1, "format": "json"}]
    bodies = {header["params"]["format"]: body for header, body in entries}
    assert bodies["csv"] == out
    assert json.loads(bodies["json"])["kind"] == "pi"
    # flag beats the environment; a cold json request stores one entry
    other = tmp_path / "elsewhere"
    run(capsys, "pi", "--n", "1", "--N", "1", "--cache-dir", str(other))
    assert len(list(other.iterdir())) == 1


def _stale_every_entry(directory: Path, kind: str, count: int) -> None:
    """Give each of the `count` entries of `kind` a stale tag, and alter
    what each would serve, its length kept true."""
    entries = list(directory.glob(f"{kind}-*"))
    assert len(entries) == count
    for entry in entries:
        header, _ = _read_entry(entry)
        body = "altered artifact\n"
        header.update(tag="0.0.0-stale", length=len(body))
        _write_entry(entry, header, body)


def test_stale_cache_entry_is_ignored(tmp_path, capsys):
    _, first = run(capsys, "pi", "--n", "1", "--N", "1")
    _, csv_cold = run(capsys, "pi", "--n", "1", "--N", "1", "--format", "csv",
                      "--cache-dir", str(tmp_path / "other"))
    directory = tmp_path / "cache"
    # and plant a csv artifact with altered text where this code looks
    # for it, then stale both
    cache.store("pi", {"n": 1, "N": 1, "format": "csv"}, "altered\n", str(directory))
    _stale_every_entry(directory, "pi", 2)
    for _ in range(2):
        assert run(capsys, "pi", "--n", "1", "--N", "1") == (0, first)
        assert run(capsys, "pi", "--n", "1", "--N", "1", "--format", "csv") == (0, csv_cold)
    # the same of a right mirabolic column
    right = ("mirabolic", "--src", "2|1", "--r", "1", "--side", "right")
    _, right_cold = run(capsys, *right)
    _stale_every_entry(directory, "mirabolic", 1)
    for _ in range(2):
        assert run(capsys, *right) == (0, right_cold)
    # each stale entry was replaced by this code's
    entries = [_read_entry(p) for p in directory.iterdir()]
    assert len(entries) == 3
    assert {header["tag"] for header, _ in entries} == {cache.code_tag()}
    assert "altered artifact\n" not in {body for _, body in entries}
    # the tag is a digest of the package source: one changed byte in one
    # module changes it, with the version string untouched
    assert cache.code_tag() == cache.source_digest()
    copy = tmp_path / "pkg"
    copy.mkdir()
    for src in Path(cache.PACKAGE_DIR).glob("*.py"):
        (copy / src.name).write_bytes(src.read_bytes())
    assert cache.source_digest(str(copy)) == cache.code_tag()
    module = copy / "pairs.py"
    module.write_bytes(module.read_bytes().replace(b"MAX_SWEEP = ", b"MAX_SWEEP =  "))
    assert cache.source_digest(str(copy)) != cache.code_tag()


def test_config_file_flags_win(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 1\nformat = csv  # comment\nseed = 5\n")
    values = read_config_file(str(cfgfile))
    cfg = resolve(values, {"fmt": "json"})
    assert cfg.n == 1 and cfg.seed == 5
    assert cfg.fmt == "json"
    # through the CLI the file's format=csv and n=1 hold (no overriding flag)
    code, out = run(capsys, "--config", str(cfgfile), "pi", "--N", "1")
    assert code == 0
    assert out.splitlines()[0] == ",(1)|(),()|(1)"
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobs = 2\n")
    assert cli.main(["--config", str(bad), "pi"]) == 2


def test_cache_dir_precedence_flag_env_file_default(tmp_path, monkeypatch, capsys):
    # flag > MIRAHALL_CACHE_DIR > config file > $XDG_CACHE_HOME/mirahall
    dirs = {name: tmp_path / name for name in ("flag", "env", "file", "xdg")}
    cfgfile = tmp_path / "dir.cfg"
    cfgfile.write_text(f"cache_dir = {dirs['file']}\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(dirs["xdg"]))
    monkeypatch.setenv("MIRAHALL_CACHE_DIR", str(dirs["env"]))

    def served_into(config=(), flag=()):
        assert run(capsys, *config, "pi", "--n", "1", *flag)[0] == 0
        return [name for name, d in dirs.items() if d.exists()]

    config = ("--config", str(cfgfile))
    assert resolve(read_config_file(str(cfgfile)), {}).cache_dir == str(dirs["env"])
    assert served_into(config, ("--cache-dir", str(dirs["flag"]))) == ["flag"]
    assert served_into(config) == ["flag", "env"]
    monkeypatch.delenv("MIRAHALL_CACHE_DIR")
    assert served_into(config) == ["flag", "env", "file"]
    assert served_into() == ["flag", "env", "file", "xdg"]
    assert (dirs["xdg"] / "mirahall").is_dir()


def test_non_prime_field_is_usage_error(tmp_path, capsys):
    # Z/4 is not a field: Fermat inversion and the irreducibility
    # listing are wrong there, so every way of naming q rejects it
    assert run(capsys, "green", "--n", "1", "--q", "4")[0] == 2
    assert run(capsys, "trace", "--n", "1", "--q", "9")[0] == 2
    assert run(capsys, "trace", "--n", "1", "--q", "1")[0] == 2
    assert run(capsys, "verify", "--suite", "census", "--qs", "4")[0] == 2
    # iwahori mult takes no field size at all
    assert run(capsys, "iwahori", "mult", "--N", "2", "--qs", "2,3")[0] == 2
    cfgfile = tmp_path / "field.cfg"
    cfgfile.write_text("primes = 3,4\n")
    assert cli.main(["--config", str(cfgfile), "green", "--n", "1"]) == 2
    assert run(capsys, "green", "--n", "1", "--q", "5")[0] == 0


def test_right_mirabolic_bounded_by_rank(capsys):
    def terms(*argv):
        code, out = run(capsys, "mirabolic", "--side", "right", *argv)
        assert code == 0
        return {t["label"]: QPoly.from_json(t["coeff"]) for t in json.loads(out)["terms"]}

    q = QPoly.q_power(1)
    # default rank (the size): the stabilised constant, q^2 at the
    # vectorless square-zero target where the module has 1 + q + q^2
    assert terms("--src", "|1,1", "--r", "1") == {"()|(2,1)": QPoly.one(), "()|(1,1,1)": q * q}
    # targets longer than the rank are skipped
    assert terms("--src", "|1,1", "--r", "1", "--N", "2") == {"()|(2,1)": QPoly.one()}
    assert terms("--src", "|", "--r", "2", "--N", "2") == {"()|(1,1)": QPoly.one()}
    # r >= N on a nonempty source, or a source longer than N rows
    assert run(capsys, "mirabolic", "--src", "1|1", "--r", "2", "--side", "right",
               "--N", "2")[0] == 2
    assert run(capsys, "mirabolic", "--src", "|1,1,1", "--r", "1", "--side", "right",
               "--N", "2")[0] == 2


def test_left_mirabolic_bounded_by_rank(capsys):
    def labels(*argv):
        code, out = run(capsys, "mirabolic", *argv)
        assert code == 0
        return [t["label"] for t in json.loads(out)["terms"]]

    # targets with a component longer than N rows are left out
    assert labels("--src", "1,1|", "--r", "1", "--N", "2") == ["(2,1)|()", "(1,1)|(1)"]
    assert labels("--src", "1,1,1|", "--r", "1", "--N", "3") == ["(2,1,1)|()", "(1,1,1)|(1)"]
    # the default rank (the target size) leaves every target in
    assert "(1,1,1,1)|()" in labels("--src", "1,1,1|", "--r", "1")
    # a source longer than N rows is a usage error
    assert run(capsys, "mirabolic", "--src", "1,1,1|", "--r", "1", "--N", "2")[0] == 2
    assert run(capsys, "mirabolic", "--src", "|1,1,1", "--r", "1", "--N", "2")[0] == 2


def test_readme_config_keys_resolve(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Recognized keys:", 1)[1].split("Unknown", 1)[0]
    keys = re.findall(r"`(\w+)`", listed)
    values = {"primes": "2,5", "fmt": "csv", "format": "latex",
              "cache_dir": str(tmp_path / "c")}
    cfgfile = tmp_path / "keys.cfg"
    cfgfile.write_text("".join(f"{k} = {values.get(k, 1)}\n" for k in keys))
    read = read_config_file(str(cfgfile))
    # the list names every key the reader accepts, and each one resolves
    assert set(read) == set(RunConfig._fields)
    cfg = resolve(read, {})
    assert cfg.primes == (2, 5) and cfg.fmt == "latex" and cfg.verbosity == 1


def test_config_validation():
    with pytest.raises(UsageError):
        RunConfig(primes=()).validate()
    with pytest.raises(UsageError):
        RunConfig(primes=(2, 2)).validate()
    with pytest.raises(UsageError):
        RunConfig(fmt="yaml").validate()
    with pytest.raises(UsageError):
        RunConfig(window=0).validate()
    with pytest.raises(UsageError):
        RunConfig(primes=(2, 9)).validate()
    assert resolve({}, {}).primes == (2, 3)


def test_hall_product(capsys):
    code, out = run(capsys, "hall", "--x", "1", "--y", "1", "--N", "2")
    assert code == 0
    terms = {t["label"]: LaurentPoly.from_json(t["coeff"])
             for t in json.loads(out)["terms"]}
    assert terms["(2)"] == LaurentPoly.one()
    assert terms["(1,1)"] == LaurentPoly.v_power(2) + 1


def test_mirabolic_golden_column(capsys):
    code, out = run(capsys, "mirabolic", "--src", "|1", "--r", "1")
    assert code == 0
    terms = {t["label"]: QPoly.from_json(t["coeff"])
             for t in json.loads(out)["terms"]}
    assert terms["()|(1,1)"] == QPoly.q_power(1) + 1
    assert terms["(1)|(1)"] == QPoly.one()


def test_green_csv(capsys):
    code, out = run(capsys, "green", "--n", "1", "--q", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert "passed,True" in lines


def test_iwahori_mult_cases(capsys):
    code, out = run(capsys, "iwahori", "mult", "--N", "2", "--window", "1")
    assert code == 0
    payload = json.loads(out)
    # a fixed echo of the counting oracle's default primes
    assert payload["qs"] == [2, 3]
    cases = {p["case"] for p in payload["products"]}
    assert cases <= {1, 2, 3, 4, 5}
    for prod in payload["products"]:
        assert prod["terms"], prod
    _, again = run(capsys, "iwahori", "mult", "--N", "2", "--window", "1")
    assert out == again


def test_verify_single_suite_deterministic(tmp_path, capsys):
    code, first = run(capsys, "verify", "--suite", "rho")
    assert code == 0
    code2, second = run(capsys, "verify", "--suite", "rho")
    assert code2 == 0
    assert first == second
    # the check always runs: it neither reads nor writes the cache
    assert not (tmp_path / "cache").exists()
    payload = json.loads(first)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "nonsense"]) == 2


def test_verify_seed_recorded(capsys):
    _, out = run(capsys, "verify", "--suite", "hall", "--seed", "7")
    assert json.loads(out)["seed"] == 7


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "pi", "--n", "1", "--N", "1", "--format", "csv",
                    "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0] == ",(1)|(),()|(1)"


def test_partition_parsing():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("()") == ()
    assert parse_partition("") == ()
    assert parse_bipartition("2,1|1") == ((2, 1), (1,))
    with pytest.raises(UsageError):
        parse_partition("1,2")
    with pytest.raises(UsageError):
        parse_bipartition("2,1")


# every cached kind at small sizes
CACHED_ARGV = {
    "pi": ("pi", "--n", "2"),
    "mhl": ("mhl", "--n", "2"),
    "trace": ("trace", "--n", "2", "--q", "3"),
    "hall": ("hall", "--x", "2,1", "--y", "1"),
    "mirabolic-left": ("mirabolic", "--src", "1|1", "--r", "1"),
    "mirabolic-right": ("mirabolic", "--src", "2|1", "--r", "1", "--side", "right"),
    "green": ("green", "--n", "2", "--q", "3"),
    "iwahori": ("iwahori", "mult", "--N", "2", "--window", "1"),
}


@pytest.mark.parametrize("argv", CACHED_ARGV.values(), ids=CACHED_ARGV)
def test_every_order_of_formats_serves_the_cold_bytes(tmp_path, capsys, monkeypatch, argv):
    formats = ("json", "csv", "latex")
    cold = {}
    for fmt in formats:
        code, cold[fmt] = run(capsys, *argv, "--format", fmt,
                              "--cache-dir", str(tmp_path / f"cold-{fmt}"))
        assert code == 0
    rendered, built = [], []
    render, serve = artifacts.render, cli._serve_cached
    monkeypatch.setattr(artifacts, "render", lambda payload, fmt: rendered.append(fmt) or render(payload, fmt))
    monkeypatch.setattr(cli, "_serve_cached", lambda kind, params, build, *rest: serve(
        kind, params, lambda: built.append(kind) or build(), *rest))
    for i, order in enumerate(itertools.permutations(formats)):
        directory = str(tmp_path / f"order-{i}")
        for fmt in order:
            # cold or from the json artifact, then from its own
            for _ in range(2):
                assert run(capsys, *argv, "--format", fmt, "--cache-dir", directory) == (0, cold[fmt])
        # one artifact per format, and one build
        assert len(os.listdir(directory)) == len(formats)
        assert len(built) == i + 1
    # each format rendered once per order; a cold csv or latex request
    # renders its own format, then the json artifact
    assert rendered == [fmt for first, *rest in itertools.permutations(formats)
                        for fmt in (first, *sorted(rest, key=lambda f: f != "json"))]


@pytest.mark.parametrize("build", [
    lambda: artifacts.iwahori_payload(3, 2),
    lambda: artifacts.pi_payload(5, 5),
], ids=["iwahori mult --N 3", "pi --n 5"])
def test_parsed_json_artifact_renders_as_the_fresh_tree(build):
    # the render makes each coefficient's and label's text once, keyed
    # by content: the fresh tree shares its subtrees, the parsed one
    # holds a dict per occurrence
    tree = build()
    parsed = json.loads(artifacts.render(tree, "json"))
    for fmt in ("csv", "latex"):
        assert artifacts.render(parsed, fmt) == artifacts.render(tree, fmt)


@pytest.mark.parametrize("params", [
    {"n": 2, "N": 2, "format": "csv"},
    {"n": 3, "N": 2, "format": "json"},
    {"n": 2, "N": 2},
], ids=["format", "n", "no-format"])
def test_artifact_with_other_params_is_a_miss(tmp_path, capsys, params):
    _, first = run(capsys, "pi", "--n", "2", "--format", "json")
    path = cache._entry_path(str(tmp_path / "cache"), "pi",
                             {"n": 2, "N": 2, "format": "json"})
    header, body = _read_entry(path)
    assert body == first
    header.update(params=params, length=len("altered\n"))
    _write_entry(path, header, "altered\n")
    assert run(capsys, "pi", "--n", "2", "--format", "json") == (0, first)
    assert _read_entry(path)[1] == first


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("damage", ["cut", "appended", "not-utf8"])
def test_damaged_entry_is_a_miss(tmp_path, capsys, damage, fmt):
    argv = ("pi", "--n", "2", "--format", fmt)
    _, cold = run(capsys, *argv)
    path = Path(cache._entry_path(str(tmp_path / "cache"), "pi",
                                  {"n": 2, "N": 2, "format": fmt}))
    good = path.read_bytes()
    if damage == "cut":  # the body one character short
        path.write_bytes(good[:-1])
    elif damage == "appended":
        path.write_bytes(good + b"x")
    else:  # one byte of the body no longer UTF-8, the length kept
        path.write_bytes(good[:-2] + b"\xff" + good[-1:])
    assert run(capsys, *argv) == (0, cold)
    assert path.read_bytes() == good


class _FullDisk:
    """A file whose every write fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fails", ["replace", "write"])
def test_failed_store_leaves_no_temp_file(tmp_path, monkeypatch, fails):
    if fails == "replace":
        def replace(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(cache.os, "replace", replace)
    else:
        fdopen = os.fdopen
        monkeypatch.setattr(cache.os, "fdopen", lambda *a, **k: _FullDisk(fdopen(*a, **k)))
    with pytest.raises(IOFailure):
        cache.store("thing", {"a": 1}, "rows\n", str(tmp_path))
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_unencodable_payload_leaves_no_temp_file(tmp_path):
    # a lone surrogate has no UTF-8 form; a set parameter has no fixed text
    with pytest.raises(UnicodeEncodeError):
        cache.store("thing", {"a": 1}, "rows \ud800\n", str(tmp_path))
    with pytest.raises(TypeError):
        cache.store("thing", {"a": {1, 2}}, "rows\n", str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_cache_round_trip_api(tmp_path):
    directory = str(tmp_path)
    text = 'a,"b"\r\n\\sqrt{q} \u00e4\n\r'
    assert cache.load("thing", {"a": 1}, directory) is None
    cache.store("thing", {"a": 1}, text, directory)
    assert cache.load("thing", {"a": 1}, directory) == text
    # params compare as JSON: a tuple finds what a list stored
    cache.store("thing", {"a": [1, 2]}, "", directory)
    assert cache.load("thing", {"a": (1, 2)}, directory) == ""
    assert cache.load("thing", {"a": 2}, directory) is None


@pytest.mark.parametrize("argv", [
    ("pi", "--n", "0"),
    ("mhl", "--n", "0"),
    ("trace", "--n", "0", "--q", "3"),
], ids=lambda a: a[0])
def test_size_zero_serves_at_rank_one(capsys, argv):
    code, cold = run(capsys, *argv)
    assert code == 0
    code, warm = run(capsys, *argv)
    assert code == 0
    assert cold == warm
    assert json.loads(cold)["kind"] == argv[0]


@pytest.mark.parametrize("argv", [
    ("pi", "--n", "12"),
    ("mhl", "--n", "12"),
    ("trace", "--n", "12", "--q", "3"),
    # sizes far past every budget, refused without counting their labels
    *(pytest.param(argv, id=" ".join(argv)) for argv in (
        ("trace", "--n", "100000", "--q", "3"),
        ("mirabolic", "--src", "1|1", "--r", "100000"),
        ("pi", "--n", "10000000", "--N", "1"),
    )),
], ids=lambda a: a[0])
def test_cost_guard_refuses_large_tables_fast(capsys, argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert "CostGuard" in captured.err and captured.out == ""
    assert elapsed < 1.0


def test_cost_guard_verdicts_match_the_full_count():
    for n in range(41):
        total = partitions.bipartition_count(n)
        for rank in (None, *range(1, n + 2)):
            over = (partitions.bipartition_count(n, rank) > costs.MAX_LABELS
                    or total > costs.MAX_SIZE_LABELS)
            if over:
                with pytest.raises(CostGuard):
                    check_cost(n, rank)
            else:
                check_cost(n, rank)
    # at rank 1 a size has exactly its n + 1 labels (k)|(n - k), the
    # fewest of any rank, so the uncounted verdict at n >= budget is exact
    for n in (298, 299, 300, 301, 1769, 1770, 1771):
        assert partitions.bipartition_count(n, 1) == n + 1
        for budget in (costs.MAX_LABELS, costs.MAX_SIZE_LABELS):
            assert (partitions.bipartition_count(n, 1, budget) > budget) == (n + 1 > budget)


def test_mhl_rank_below_the_size_is_a_usage_error(capsys, monkeypatch):
    # pi serves the same size and rank
    code, out = run(capsys, "pi", "--n", "5", "--N", "2")
    assert code == 0 and json.loads(out)["N"] == 2

    def refuse(*args, **kwargs):
        raise AssertionError("mhl below its size reached a table or a guard")

    for name in ("pi_table", "mhl_poly", "_basis_in_tensor"):
        monkeypatch.setattr(bimodule, name, refuse)
    monkeypatch.setattr(costs, "check_cost", refuse)
    for n, rank in (("5", "2"), ("12", "2"), ("2", "1")):
        start = time.perf_counter()
        code = cli.main(["mhl", "--n", n, "--N", rank])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "mhl needs --N >= n" in captured.err
        assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("hall", "--x", "13,1,1", "--y", "1", "--N", "16"),
    ("hall", "--x", "100", "--y", "100"),
    ("hall", "--x", "200", "--y", "1"),
    ("green", "--n", "9", "--q", "2"),
    ("green", "--n", "4", "--q", "7"),
    ("green", "--n", "3", "--q", "1000003"),
], ids=" ".join)
def test_hall_and_green_cost_guards_refuse_fast(capsys, argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert "CostGuard" in captured.err and captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ("iwahori", "mult", "--N", "5"),
    ("iwahori", "mult", "--N", "4", "--window", "3"),
    ("iwahori", "mult", "--N", "2", "--window", "1000000000"),
    ("iwahori", "mult", "--N", "1000000"),
], ids=" ".join)
def test_iwahori_cost_guard_refuses_fast(capsys, argv):
    start = time.perf_counter()
    code = cli.main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert "CostGuard" in captured.err and captured.out == ""
    assert elapsed < 1.0


def test_iwahori_cost_guard_counts_the_candidates():
    # universe(N, 1, window) tries N! 3^N 4^window candidate labels
    for N in range(2, 7):
        for window in range(1, 9):
            count = math.factorial(N) * 3 ** N * 4 ** window
            if count <= costs.MAX_CANDIDATES:
                check_universe_cost(N, window)
            else:
                with pytest.raises(CostGuard):
                    check_universe_cost(N, window)
    # the default window serves N = 4 and refuses N = 5
    check_universe_cost(4, 2)
    with pytest.raises(CostGuard):
        check_universe_cost(5, 1)


def test_cache_entry_is_a_header_line_and_the_exact_text(tmp_path):
    text = 'x,"y"\r\n\\sqrt{q} \u00e4\n'
    params = {"b": [2], "a": 1, "format": "csv"}
    path = cache.store("thing", params, text, str(tmp_path))
    # the repr of the tag, the module, the sorted parameters and the length
    header = (f"('{cache.code_tag()}', 'thing', [('a', 1), ('b', [2]), ('format', 'csv')],"
              f" {len(text)})\n")
    assert Path(path).read_bytes() == (header + text).encode("utf-8")


def test_hall_cost_guard_passes_the_products_within_budget():
    # the products the budget was measured on, at its edge: (14) * (1)
    # at rank 14 took 15 s and passes, (13,1,1) * (1) at rank 16 took
    # 28 s and is refused; products that the all-labels model refused
    # in their last step alone now pass
    for x, y, rank in (
        ((14,), (1,), 14),
        ((22,), (1,), 4),
        ((5, 4), (4, 4), 4),
        ((6, 1), (9, 1), 4),
        ((1,), (8, 8), 3),
        ((1,), (2000,), 2),
        ((1,) * 26, (1, 1), 28),
        ((), (10**9,), 1),
    ):
        check_hall_cost(x, y, rank)
    assert hall_units((14,), (1,), 14) == 330960
    assert hall_units((13, 1, 1), (1,), 16) == 504712
    for x, y, rank in (
        ((13, 1, 1), (1,), 16),
        ((100,), (100,), 2),
        ((15,), (1,), 15),
        ((10**9,), (1,), 2),
        ((1,), (10**9,), 1),
    ):
        with pytest.raises(CostGuard):
            check_hall_cost(x, y, rank)


def test_cost_guard_counts_the_labels_of_the_rank_and_the_size():
    # n = 10 has 481 labels, 91 of them with at most 2 rows per side
    for n, rank in ((8, None), (10, 2), (10, 3), (13, 1), (13, 2), (9, 20)):
        check_cost(n, rank)
    for n, rank in ((12, None), (10, 4), (10, 10), (14, 1), (20, 1)):
        with pytest.raises(CostGuard):
            check_cost(n, rank)


def test_cost_guard_serves_a_low_rank_above_the_full_budget(capsys, monkeypatch):
    built = []
    pi_table = bimodule.pi_table

    def small_table(n, rank):
        built.append((n, rank))
        return pi_table(1, rank)

    monkeypatch.setattr(bimodule, "pi_table", small_table)
    code, out = run(capsys, "pi", "--n", "10", "--N", "2")
    assert code == 0 and built == [(10, 2)]
    assert json.loads(out)["N"] == 2


@pytest.mark.parametrize("side", ["left", "right"])
def test_mirabolic_cost_guard_at_the_size_edge(capsys, monkeypatch, side):
    # target size 13 has MAX_SIZE_LABELS labels and is served; size 14
    # is refused before any column is built
    assert partitions.bipartition_count(13) == costs.MAX_SIZE_LABELS
    assert partitions.bipartition_count(14) > costs.MAX_SIZE_LABELS
    built = []

    def column(r, src, rank):
        built.append((r, src, rank))
        return {}

    name = "closed_left_column" if side == "left" else "stable_right_column"
    monkeypatch.setattr(closedform, name, column)
    code, out = run(capsys, "mirabolic", "--src", "6|6", "--r", "1", "--side", side)
    assert code == 0 and built == [(1, ((6,), (6,)), 13)]
    assert json.loads(out)["terms"] == []
    for src, r in (("7|6", "1"), ("6|6", "2"), ("6|", "8")):
        start = time.perf_counter()
        code = cli.main(["mirabolic", "--src", src, "--r", r, "--side", side])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert "CostGuard" in captured.err and captured.out == ""
        assert elapsed < 1.0
    assert len(built) == 1


def _clear_caches():
    for module in (bimodule, closedform, hall, partitions, symfunc, traces):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_serving_path_never_runs_the_antisymmetriser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the serving path reached the antisymmetriser")

    _clear_caches()
    for module in (bimodule, hall, symfunc, traces, cli, oracle):
        for name in ("hl_schur_coefficients", "_kostka_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    try:
        assert len(artifacts.pi_payload(5, 5)["order"]) == 36
        assert len(artifacts.mhl_payload(3, 3)["entries"]) == 10
        assert len(artifacts.trace_payload(3, 3)["order"]) == 10
    finally:
        _clear_caches()


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(json_trees)
def test_json_text_matches_the_standard_library(tree):
    assert artifacts.json_text(tree) == json.dumps(tree, sort_keys=True, indent=1)


def test_json_text_on_every_payload_kind(tmp_path):
    cfg = RunConfig(cache_dir=str(tmp_path / "cache"), max_n=2)
    payloads = [
        artifacts.pi_payload(3, 3),
        artifacts.mhl_payload(2, 2),
        artifacts.trace_payload(2, 3),
        artifacts.hall_payload((2,), (1,), 2),
        artifacts.mirabolic_payload(((1,), (1,)), 1, "left", 3),
        artifacts.mirabolic_payload(((1,), ()), 1, "right", 3),
        artifacts.green_payload(2, 3),
        artifacts.iwahori_payload(2, 1),
        cli.verify_payload(["census"], cfg),
        {"empty_list": [], "empty_dict": {}, "nested": [[], {}, [{}]], "none": None},
    ]
    for payload in payloads:
        for tree in (payload, json.loads(json.dumps(payload))):
            want = json.dumps(tree, sort_keys=True, indent=1) + "\n"
            assert artifacts.render(tree, "json") == want, payload.get("kind")


def test_json_text_refuses_what_is_not_a_payload():
    for bad in (1.5, {1: 2}, {"a": [b"x"]}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            artifacts.json_text(bad)


# sha256 of stdout: pi --n 5 and --n 6 as in every record of
# BENCH_pi.json, mhl --n 5 as served before the trusted Laurent kernel,
# trace --n 5 and --n 6 as served before the one-walk payload builders,
# and three right mirabolic columns as served before the one-source mirror
SERVED_DIGESTS = {
    ("pi", "--n", "5"): "492fe5f72799489cdbac0bceac414ce033103304e445a263834da2f4705dbe4f",
    ("pi", "--n", "6"): "202ef7a04112617aa7de6a2bf3e3ad088fd9ff9b9a0b4e6a1012dd5cc6ee9465",
    ("mhl", "--n", "5"): "adc58f797631bf6dadf6ca53390e609a3e49701d1f728085933fcd245a45ef7a",
    ("trace", "--n", "5", "--q", "3"):
        "95a4d7afdcf008d36979bb7a325b95c985ed453d4c7fe71f2b621ff8c2123a9d",
    ("trace", "--n", "6", "--q", "3"):
        "3e890ea6076623d813aefc55d3fba10f6cc11b7a05fbf6cbfb11cc79be2c51dd",
    ("mirabolic", "--src", "5,4|3", "--r", "1", "--side", "right"):
        "afac0ce053d9ccad7400a4413bd3204ff2f18d9c2102de6cee08659e3eb5afe5",
    ("mirabolic", "--src", "|1,1,1,1,1,1", "--r", "7", "--side", "right"):
        "0d5576eccef09956f24c3afe31d2fca3d50486fa59916e5274781dfe99a9b749",
    ("mirabolic", "--src", "6|6", "--r", "1", "--side", "right"):
        "8673dcfc459cc87d2c3b238c8ca2d51a83d81bda0effdd021aad34f5ef232ad1",
}


@pytest.mark.parametrize("argv", SERVED_DIGESTS, ids=" ".join)
def test_served_json_keeps_its_digest(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERVED_DIGESTS[argv]
