"""Byte pins of the plots and field CSVs that ``fracwell simulate`` writes, and
of ``plot_svg`` on inputs the example configs do not reach: no series on a
linear or a log axis, a log axis with no positive value, one point, a log
range narrower than 1.0001 or of one subnormal value, NaN points, marks
outside the range or non-positive on a log axis, and ticks that %.1e prints
alike."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fracwell import build_grid
from fracwell.artifacts import write_csv
from fracwell.cli import _field_columns, main
from fracwell.grids import sample_field
from fracwell.svgplot import Series, plot_svg

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NAN = float("nan")

# SHA-256 of phi_linear.svg, phi_log.svg, mass.svg, fibering.svg, initial_u.csv
# and initial_v.csv from ``fracwell simulate`` on each example config, recorded
# before the plot axes and the field rows became array code (numpy 2.4.6,
# Python 3.11, x86-64 Linux; another numpy or libm may round differently).
SIMULATE_FILES = ("phi_linear.svg", "phi_log.svg", "mass.svg", "fibering.svg",
                  "initial_u.csv", "initial_v.csv")
GOLDEN_SIMULATE_SHA256 = {
    "blowup": (
        "9650ec3a11de319240dbafdd46995d19465da02d865f7e8a7e6eb3036a796dbd",
        "a75663a5d63ccdd0bffb103360781b70277f4b0e34725d7c30953e962835d8c8",
        "44100a0d7a0c8f3bdba615337e02c558b41eec1e7b0bcf019e7b7674373c93a8",
        "8fcc211d0e85fffc69576786e97ea1ecfead94b6a824bc13c1dc52e1ecb1f166",
        "c1055818d09c611e78c869c3b6da8b044e4640c61df499ca9838206c6dd9fcea",
        "c1055818d09c611e78c869c3b6da8b044e4640c61df499ca9838206c6dd9fcea"),
    "decay": (
        "f58789f4a0a501f3fa21c7f9a9690d883706f105e8081dd587fb0f6adc590f9f",
        "733aae2fa796ea3daf5026297986729ac2a705d1363d74090c6e1a887db5ab0f",
        "7505da7e87114d6ea74803b361ba748d115b2073255ea79ee8f5231924909731",
        "35351fbc3c558c650af91dbcda28d213fe66654746235d3099cfb42e1a712f16",
        "cb0e4efbb8b18a1cbf23697e78c41de35d48ce09cd6c21f8cd02e0472ee9e439",
        "cb0e4efbb8b18a1cbf23697e78c41de35d48ce09cd6c21f8cd02e0472ee9e439"),
    "kirchhoff_decay": (
        "c61381af02a4021239eeb17dd229f170402c45699ff7d733bd1a7a34c7abab1a",
        "a7c888eee63d96dc2f9d873fddf90e40fb6db3552c292a927b83419ea963b538",
        "2fc6e2470194dacd44dd9b69be7202aa5a7408bec7c24b9f30419fe07226c347",
        "28b113bdd034299f408b0399946b1f30f24975541608822baed7c381650ec60a",
        "79e57a654bb1bd12cafeee54c78bda305ecd7041ba6d37f8ea1ec4d1b745c1ce",
        "5185ae360a3e9e14747b9f51b2e57e613a99c7f126b9dc16a847df6b2a15a687"),
}

# plot_svg keyword arguments and the SHA-256 of the file each writes, recorded
# with the simulate pins above
PLOT_CASES = {
    "no-series": (dict(series=[]),
                  "a03c09a00a29e34d96540fc744a3c35ffc4eed3a5f00a3489d12c084e317a1ef"),
    # the two log cases were recorded once a log axis with no series took the
    # range [0.1, 1]: with [0, 1] its log10 raised ValueError
    "no-series-xlog": (dict(series=[], xlog=True),
                       "fa92ecf7ea618ee52a362b4b91c98a224c1813f64d604c5c68602fb8df10aa74"),
    "no-series-ylog": (dict(series=[], ylog=True),
                       "89b3b1374348d5b0c9f61d8eff1ee6dcc479059e2d71f8742e7da8f5bc925800"),
    "log-no-positive": (
        dict(series=[Series([1.0, 2.0, 3.0], [-1.0, 0.0, -2.0], "neg")], ylog=True),
        "c95e423402990e2b4958870ef861db5aa3ce5c1d82cb6810fa1c081e1b46f772"),
    "one-point": (dict(series=[Series([2.0], [3.0], "one")]),
                  "91039443b7cc2ad69aaab5fb1a700ab7c7977fe132a2ea5cf4ab15206df88101"),
    "one-point-log": (dict(series=[Series([2.0], [3.0], "one")], xlog=True, ylog=True),
                      "e8f991130c7413b1712317e50b324c8d5774dfe62f9fc8238723403c8a4481d8"),
    "log-narrow": (dict(series=[Series([1.0, 2.0], [1.0, 1.00005], "narrow")], ylog=True),
                   "07e680636e0977db80997d76c666c7cd70170abc08707002e9b30e2a053cd19e"),
    "log-subnormal": (dict(series=[Series([1.0, 2.0], [5e-324, 5e-324], "tiny")], ylog=True),
                      "36ff02720a0380be15a10bfbc12c9a6478ade4f98ac946b882e65e344be60ed0"),
    "nan-points": (
        dict(series=[Series([0.0, NAN, 2.0, 3.0, 4.0], [1.0, 2.0, NAN, -4.0, 5.0], "a"),
                     Series([NAN], [NAN], "all-nan")]),
        "89f59b16dd9c31667cc8f8fb1a9f84a008b799155a45aa8d132d5fee0073a5e9"),
    "marks": (
        dict(series=[Series([0.1, 1.0, 10.0], [1.0, 5.0, 2.0], "m")], xlog=True, ylog=True,
             marks=[(-1.0, 2.0, "negx"), (1e3, 2.0, "right"), (0.5, -2.0, "negy"),
                    (1.0, 100.0, "above"), (2.0, 3.0, "in")]),
        "5fc38d750363b6707111796107ee9a1fe83ed3f9853548e8b10031bb57705308"),
    "marks-linear": (
        dict(series=[Series([-2.0, 3.0], [1e-5, 2e4], "w")],
             marks=[(-3.0, 0.0, "left"), (0.0, 1e5, "high"), (3.0, 1e-5, "edge")]),
        "4fbcdf1a63063f87f0d46d99cb783f86297cafe0d24940d6fce10989f273fd5e"),
    "many-series": (
        dict(series=[Series(np.linspace(0, 1, 9), np.linspace(0, 1, 9) ** k, f"s{k}")
                     for k in range(7)], title="t", xlabel="x", ylabel="y"),
        "e9b943f0508aa181b97652f2d984167801dcc1d8bf3992428ab6c7bbda482e94"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SIMULATE_SHA256))
def test_simulate_plots_and_fields_match_golden_hashes(tmp_path, capsys, name):
    expected_exit = 10 if name == "blowup" else 0
    config = CONFIGS / f"{name}.json"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == expected_exit
    run_dir = tmp_path / "run-seed1"
    assert tuple(_sha256(run_dir / f) for f in SIMULATE_FILES) == GOLDEN_SIMULATE_SHA256[name]


@pytest.mark.parametrize("name", sorted(PLOT_CASES))
def test_plot_svg_matches_golden_hash(tmp_path, name):
    kwargs, digest = PLOT_CASES[name]
    plot_svg(tmp_path / "plot.svg", **kwargs)
    assert _sha256(tmp_path / "plot.svg") == digest


@pytest.mark.parametrize("value", [1e16, 1e64, -2.5e64])
def test_one_large_value_gets_a_range(tmp_path, value):
    # +-0.5 is below the spacing of floats from about 1e16 up: it left the
    # range empty, and the tick step took log10(0)
    plot_svg(tmp_path / "plot.svg", [Series([0.0], [value], "one")])
    text = (tmp_path / "plot.svg").read_text()
    assert '<polyline points="385.00,232.00"' in text      # the centre of the frame
    assert text.count('text-anchor="end"') >= 2              # y ticks in the range


def test_amplitude_1e8_blowup_ticks_are_distinct(tmp_path, capsys):
    # one row at phi = -2.49e64 and |u|^2+|v|^2 = 1e16: each y axis spans
    # +-1e-6 of its value, where %.1e printed every tick alike
    raw = json.loads((CONFIGS / "blowup.json").read_text())
    raw["initial_u"]["amplitude"] = raw["initial_v"]["amplitude"] = 1e8
    config = tmp_path / "blowup-1e8.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 10
    run_dir = tmp_path / "run-seed1"
    for name in ("phi_linear.svg", "mass.svg"):
        labels = re.findall(r'text-anchor="end">([^<]*)<', (run_dir / name).read_text())
        assert len(labels) >= 4 and len(set(labels)) == len(labels), labels
    assert '-2.493350e+64' in (run_dir / "phi_linear.svg").read_text()
    assert (_sha256(run_dir / "phi_linear.svg"), _sha256(run_dir / "mass.svg")) == (
        "c925b71201046ea41d4f8753e482e0f8353b909a4f6bcaabbc3121e99d8d63df",
        "50ac933020b4b41b8949ca03ccf34c25c2dbeea682420ac736b2531952cea8eb")


def test_two_d_field_csv_matches_golden_hash(tmp_path):
    field = sample_field(build_grid([1.0, 1.0], [3, 3]), "bump", 0.7)
    write_csv(tmp_path / "field.csv", _field_columns(field))
    assert _sha256(tmp_path / "field.csv") == (
        "3560c2dc2652e76bac3635fceccb6bec310d839809347feb4d59ca36f320d07a")
