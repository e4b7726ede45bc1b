"""Command-line behavior: parsing, JSON output, exit codes, generators."""

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET

import pytest

import helpers
from highwayhull import cli, hull_builder, render
from highwayhull.metric import INF, InvalidInputError, MetricParams, NumericError, Point

# SHA-256 of the fixed corpus's concatenated build JSON.  A refactor must
# reproduce it byte for byte; a change meant to alter outputs re-pins it.
CORPUS_SHA256 = "7ca63a6878ad7d7249f2dcb83a27643ade8eadf8d03f8f837b72e172ef4b5ac4"

REFERENCE_CSV = "# four points\n0,1\n0.5,1\n100,1\n50,-30\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_scalar_parsing():
    assert cli._parse_scalar("2") == 2.0
    assert cli._parse_scalar("inf") == INF
    assert cli._parse_scalar("Infinity") == INF
    with pytest.raises(ValueError):
        cli._parse_scalar("two")


def test_read_points_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "bad.csv", "0,1\n# fine\n5\n")
    with pytest.raises(cli.ParseError, match="line 3"):
        cli.read_points(path)
    with pytest.raises(cli.ParseError, match="line 1"):
        cli.read_points(_write(tmp_path, "nan.csv", "nan,0\n"))
    with pytest.raises(cli.ParseError, match="no points"):
        cli.read_points(_write(tmp_path, "empty.csv", "# nothing\n"))


def test_build_emits_canonical_json(tmp_path):
    csv = _write(tmp_path, "pts.csv", REFERENCE_CSV)
    out = str(tmp_path / "tch.json")
    assert cli.main(["build", "--p", "2", "--v", "2", "--input", csv, "--output", out]) == 0
    text = open(out).read()
    assert text.startswith('{"params": {"p": 2, "v": 2, "alpha": ')
    assert '"alpha": 0.523598775598' in text
    doc = json.loads(text)
    assert [c["members"] for c in doc["clusters"]] == [[0, 1], [3], [2]]
    assert all(set(c) == {"id", "members", "upper", "lower", "footprint"} for c in doc["clusters"])
    assert len(doc["bridges"]) == 2
    assert abs(doc["bridges"][0][0] - (0.5 + 1 / math.sqrt(3))) < 1e-9
    # canonical form survives a decode/encode round trip byte for byte
    assert cli.rewrite_json(text) == text


def test_build_encodes_infinite_parameters(tmp_path):
    csv = _write(tmp_path, "pts.csv", "0,1\n9,1\n")
    out = str(tmp_path / "t.json")
    assert cli.main(["build", "--p", "inf", "--v", "inf", "--input", csv, "--output", out]) == 0
    text = open(out).read()
    assert '"p": "inf"' in text and '"v": "inf"' in text
    assert cli.rewrite_json(text) == text


def test_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "ok.csv", "0,1\n5,1\n")
    bad = _write(tmp_path, "bad.csv", "zzz\n")
    assert cli.main(["build", "--input", bad, "--output", str(tmp_path / "o")]) == cli.EXIT_PARSE
    assert cli.main(["build", "--p", "0.5", "--input", good, "--output", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert cli.main(["build", "--v", "1", "--input", good, "--output", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert cli.main(["build", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "o")]) == cli.EXIT_IO
    assert cli.main(["build", "--input", good, "--output", str(tmp_path / "o")]) == cli.EXIT_OK
    # p -> 1+: this build's tangency lies beyond float range, a NumericError
    rng = random.Random(3)
    pts = [(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(20)]
    near_one = _write(tmp_path, "near_one.csv", "".join("%r,%r\n" % q for q in pts))
    capsys.readouterr()
    assert cli.main(["build", "--p", repr(1.0 + 1e-7), "--v", "1.5", "--input", near_one,
                     "--output", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric error: tangency beyond float range")


def test_hull_beyond_float_range_exits_numeric(tmp_path, capsys):
    # the p = inf apex of this pair lies above the largest float; build
    # used to write it as "inf"
    big = _write(tmp_path, "big.csv", "1e308,1e308\n-1e308,1.5e308\n")
    out = tmp_path / "o.json"
    for cmd in ("build", "oracle", "compare"):
        capsys.readouterr()
        assert cli.main([cmd, "--p", "inf", "--v", "2", "--input", big, "--output", str(out)]) \
            == cli.EXIT_NUMERIC, cmd
        assert "p=inf, v=2.0" in capsys.readouterr().err
        assert not out.exists()


def test_config_errors_precede_io(tmp_path):
    missing = str(tmp_path / "missing.csv")
    out = str(tmp_path / "o")
    assert cli.main(["build", "--p", "0.5", "--input", missing, "--output", out]) == cli.EXIT_CONFIG
    # a non-numeric exponent is a config error from main, not an argparse exit
    assert cli.main(["build", "--p", "two", "--input", missing, "--output", out]) == cli.EXIT_CONFIG


def test_compare_verdicts(tmp_path):
    csv = _write(tmp_path, "pts.csv", REFERENCE_CSV)
    out = str(tmp_path / "cmp.json")
    assert cli.main(["compare", "--input", csv, "--output", out]) == cli.EXIT_OK
    doc = json.loads(open(out).read())
    assert doc == {"equal": True, "clusters": 3}


def test_oracle_command_reports_partition(tmp_path):
    csv = _write(tmp_path, "pts.csv", REFERENCE_CSV)
    out = str(tmp_path / "oracle.json")
    assert cli.main(["oracle", "--input", csv, "--output", out]) == cli.EXIT_OK
    doc = json.loads(open(out).read())
    assert sorted(map(sorted, doc["partition"])) == [[0, 1], [2], [3]]
    assert doc["iterations"] >= 1 and doc["min_margin"] > 0


def test_gen_fixed_gaps_reference(tmp_path):
    out = str(tmp_path / "gen.csv")
    code = cli.main(["gen", "--p", "inf", "--eps", "2", "--gaps", "3,5,1.5", "--output", out])
    assert code == cli.EXIT_OK
    text = open(out).read()
    assert "expected_clusters=3" in text
    pts = cli.read_points(out)
    assert [q.x for q in pts] == [0.0, 3.0, 8.0, 9.5]
    assert all(q.y == pts[0].y for q in pts)
    tch = hull_builder.build(pts, MetricParams.make(INF, INF))
    assert len(tch.clusters) == 3
    assert helpers.canon(c.member_indices for c in tch.clusters) == ((0,), (1,), (2, 3))


@pytest.mark.parametrize("p", ["1", "2", "inf"])
def test_gen_sampled_instances_honor_expected_count(tmp_path, p):
    for seed in (0, 1, 2):
        out = str(tmp_path / ("g%s%d.csv" % (p, seed)))
        code = cli.main([
            "gen", "--p", p, "--eps", "1.25", "--count", "12", "--seed", str(seed),
            "--output", out,
        ])
        assert code == cli.EXIT_OK
        text = open(out).read()
        expected = int(text.split("expected_clusters=")[1].split()[0])
        pts = cli.read_points(out)
        m = MetricParams.make(float(p) if p != "inf" else INF, INF)
        assert len(hull_builder.build(pts, m).clusters) == expected


def test_gen_count_is_the_number_of_points(tmp_path):
    out = str(tmp_path / "g.csv")
    for count in (2, 3, 12):
        assert cli.main(["gen", "--eps", "1", "--count", str(count), "--output", out]) == cli.EXIT_OK
        assert len(cli.read_points(out)) == count
    for count in (1, 0, -3):
        assert cli.main(["gen", "--eps", "1", "--count", str(count), "--output", out]) == cli.EXIT_CONFIG


def test_gen_height_is_half_the_gap_at_any_scale(tmp_path):
    out = str(tmp_path / "g.csv")
    for eps in ("1e-200", "1e200"):
        assert cli.main(["gen", "--p", "2", "--eps", eps, "--count", "3", "--output", out]) == cli.EXIT_OK
        pts = cli.read_points(out)
        assert len(pts) == 3 and all(q.y == float(eps) / 2.0 for q in pts)


def test_gen_rejects_bad_eps_and_gaps(tmp_path):
    out = str(tmp_path / "x.csv")
    assert cli.main(["gen", "--p", "2", "--eps", "0", "--output", out]) == cli.EXIT_CONFIG
    assert cli.main(["gen", "--p", "2", "--eps", "inf", "--count", "3", "--output", out]) == cli.EXIT_CONFIG
    assert cli.main(["gen", "--p", "0.5", "--eps", "1", "--output", out]) == cli.EXIT_CONFIG
    assert cli.main(["gen", "--p", "2", "--eps", "1", "--gaps", "1,-2", "--output", out]) == cli.EXIT_CONFIG


def test_gen_rejects_abscissae_beyond_float_range(tmp_path, capsys):
    # sampled gaps up to 3 eps, or explicit ones, summing past the float maximum
    out = tmp_path / "x.csv"
    for args in (["--eps", "1e308", "--count", "3", "--seed", "0"],
                 ["--eps", "1", "--gaps", "1e308,1e308"]):
        assert cli.main(["gen", "--p", "2", *args, "--output", str(out)]) == cli.EXIT_CONFIG
        assert "finite abscissae" in capsys.readouterr().err
        assert not out.exists()


def test_render_produces_svg(tmp_path):
    csv = _write(tmp_path, "pts.csv", REFERENCE_CSV)
    out = str(tmp_path / "fig.svg")
    code = cli.main(["render", "--input", csv, "--curves", "--wavefront-t", "2", "--output", out])
    assert code == cli.EXIT_OK
    root = ET.fromstring(open(out).read())
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 10


def test_render_stops_a_curve_at_a_numeric_error(tmp_path, monkeypatch):
    # at p = 1.3, v = inf the curve solve fails to bracket far out; render
    # drops the rest of that curve and still writes the figure
    errors = []
    curve_y = render.disc_curve_y

    def counted(c, x):
        try:
            return curve_y(c, x)
        except NumericError:
            errors.append(x)
            raise

    monkeypatch.setattr(render, "disc_curve_y", counted)
    csv = _write(tmp_path, "far.csv", "0,0.01\n1500,0.01\n")
    out = str(tmp_path / "far.svg")
    args = ["render", "--curves", "--p", "1.3", "--v", "inf", "--input", csv, "--output", out]
    assert cli.main(args) == cli.EXIT_OK
    assert len(errors) == 4


def test_render_lets_other_curve_errors_propagate(monkeypatch):
    def broken(c, x):
        raise ZeroDivisionError("not a numeric failure of the curve solve")

    monkeypatch.setattr(render, "disc_curve_y", broken)
    pts = [Point(0.0, 1.0), Point(0.5, 1.0), Point(100.0, 1.0), Point(50.0, -30.0)]
    tch = hull_builder.build(pts, MetricParams.make(2.0, 2.0))
    with pytest.raises(ZeroDivisionError):
        render.render_svg(tch, pts, curves=True)


@pytest.mark.parametrize("pts", [
    [(0, 1, 7), (3, 2)],
    [(0.0, 1.0), (float("nan"), 2.0)],
    [],
], ids=["triple", "nan", "empty"])
def test_render_validates_its_points(pts):
    tch = hull_builder.build([Point(0.0, 1.0), Point(3.0, 2.0)], MetricParams.make(2.0, 2.0))
    with pytest.raises(InvalidInputError):
        render.render_svg(tch, pts)


def test_render_rejects_a_non_finite_wavefront_radius(tmp_path, capsys):
    # these points give a footprint, whose wavefronts render draws: a nan,
    # inf or negative radius exits 2 and writes no figure
    csv = _write(tmp_path, "pts.csv", "0,5\n15,9\n30,5\n")
    out = tmp_path / "fig.svg"
    for t in ("nan", "inf", "-1"):
        args = ["render", "--p", "2", "--v", "2", "--input", csv, "--wavefront-t", t]
        assert cli.main(args + ["--output", str(out)]) == cli.EXIT_CONFIG
        assert "radius" in capsys.readouterr().err
        assert not out.exists()
    assert cli.main(args[:-2] + ["--wavefront-t", "2", "--output", str(out)]) == cli.EXIT_OK
    assert "nan" not in out.read_text()


def test_render_checks_the_wavefront_radius_before_reading_the_input(tmp_path, capsys):
    # the reference points give no footprint, so no wavefront is drawn; a
    # radius that is not finite and non-negative still exits 2, and is
    # rejected before a missing input file is noticed
    csv = _write(tmp_path, "pts.csv", REFERENCE_CSV)
    out = tmp_path / "fig.svg"
    for t in ("nan", "inf", "-1"):
        for path in (csv, str(tmp_path / "missing.csv")):
            args = ["render", "--input", path, "--wavefront-t", t, "--output", str(out)]
            assert cli.main(args) == cli.EXIT_CONFIG
            assert "radius" in capsys.readouterr().err
            assert not out.exists()
    assert cli.main(["render", "--input", csv, "--wavefront-t", "0", "--output", str(out)]) == cli.EXIT_OK


def test_build_json_is_byte_identical_on_fixed_corpus():
    # every (p, v) of the grid, ties and duplicates left in, each instance
    # both as drawn and folded above the highway
    h = hashlib.sha256()
    for i, p in enumerate(helpers.P_GRID):
        for j, v in enumerate(helpers.V_GRID):
            m = MetricParams.make(p, v)
            rng = random.Random(100 * i + j)
            for _ in range(6):
                pts = helpers.random_points(rng, rng.randint(2, 48))
                for inst in (pts, [Point(x, abs(y)) for x, y in pts]):
                    h.update(cli.tch_to_json(hull_builder.build(inst, m)).encode())
    assert h.hexdigest() == CORPUS_SHA256
