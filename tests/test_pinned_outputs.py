"""CLI stdout pinned byte for byte on fixed d = 1 inputs.

The triplet and curves outputs were produced by the release before the
lattice and multibasis extractors were merged into one core; any change
to their bytes on these inputs fails here.  The reconstruct and power
outputs were re-pinned when d = 1 reconstruction moved from a dense
index-array convolution onto the Fourier-space series that d >= 2
already used: the atoms moved at the 1e-14 level, and the roundoff-level
atoms of the dense path at coords 6-22 (save one at 20) were pruned.  So
that the new bytes are checked and not merely recorded, that test also
holds them to independent references: the exact law within the reported
`error_bound`, and the binomial series of the half power.  The half
power's `series_residual` was re-pinned once more, from
1.4259900722114997e-13 to 1.4259898987594311e-13, when the series window
moved from a 96-exponent Chernoff scan to two fixed tables of 16: the
window and the atoms are unchanged, and a better exponent lowered the
bound on the mass outside it.
JSON outputs are held as Python literals and rendered with the CLI's JSON
settings (sorted keys, indent 2, trailing newline); float reprs are exact,
so the rendering reproduces the original bytes.  The --help texts of
the top level and of every subcommand are pinned as well.
"""

import json
import re
from fractions import Fraction

import pytest

from quasilevy import DiscreteLaw, jsonio, tv_distance
from quasilevy.cli import main
from oracles import binomial_power_masses, truncated_geometric

GEOMETRIC = truncated_geometric(Fraction(1, 2), 50)[0]
RATIONAL = DiscreteLaw.from_lattice(
    {0: 0.6, 1: 0.25, 2: 0.15}, offset=Fraction(1, 2), span=Fraction(2, 3)
)
BERN08 = DiscreteLaw.from_lattice({0: 0.8, 1: 0.2})


def rendered(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def stdout_of(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def law_file(tmp_path, name, law) -> str:
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.law_to_json(law)))
    return str(path)


def test_triplet_geometric(tmp_path, capsys):
    out = stdout_of(capsys, ["triplet", law_file(tmp_path, "geom.json", GEOMETRIC)])
    assert out == rendered(GEOMETRIC_TRIPLET)


def test_triplet_rational_offset(tmp_path, capsys):
    out = stdout_of(capsys, ["triplet", law_file(tmp_path, "rat.json", RATIONAL)])
    assert out == rendered(RATIONAL_TRIPLET)


def test_reconstruct_and_power(tmp_path, capsys):
    trip = tmp_path / "trip.json"
    assert main(["triplet", law_file(tmp_path, "bern.json", BERN08), "--out", str(trip)]) == 0
    capsys.readouterr()
    assert main(["reconstruct", str(trip)]) == 0
    out, err = capsys.readouterr()
    assert out == rendered(BERN08_RECONSTRUCTED)
    error_bound = float(re.search(r"error_bound=(\S+)", err).group(1))
    assert tv_distance(jsonio.law_from_json(json.loads(out)), BERN08) <= error_bound

    out = stdout_of(capsys, ["power", str(trip), "--s", "1/2"])
    assert out == rendered(BERN08_HALF_POWER)
    half = {a["coords"][0]: a["weight"] for a in json.loads(out)["measure"]["atoms"]}
    oracle = binomial_power_masses(0.8, 0.25, 0.5, 60)
    assert sum(abs(half.get(j, 0.0) - w) for j, w in oracle.items()) <= 1e-12


def test_curves(tmp_path, capsys):
    out = stdout_of(capsys, ["curves", law_file(tmp_path, "geom.json", GEOMETRIC), "--samples", "9"])
    assert out == GEOMETRIC_CURVES


# --- expected outputs ------------------------------------------------------------

GEOMETRIC_TRIPLET = {"basis": [{"den": 1, "num": 1}],
                     "gamma_coords": [0],
                     "lambdas": [{"freq": [1], "value": 0.5},
                                 {"freq": [2], "value": 0.12499999999999997},
                                 {"freq": [3], "value": 0.0416666666666667},
                                 {"freq": [4], "value": 0.01562500000000001},
                                 {"freq": [5], "value": 0.00625000000000003},
                                 {"freq": [6], "value": 0.0026041666666666787},
                                 {"freq": [7], "value": 0.001116071428571414},
                                 {"freq": [8], "value": 0.0004882812500000009},
                                 {"freq": [9], "value": 0.0002170138888888852},
                                 {"freq": [10], "value": 9.765624999999162e-05},
                                 {"freq": [11], "value": 4.4389204545457264e-05},
                                 {"freq": [12], "value": 2.0345052083335653e-05},
                                 {"freq": [13], "value": 9.390024038475671e-06},
                                 {"freq": [14], "value": 4.359654017848795e-06},
                                 {"freq": [15], "value": 2.034505208334798e-06},
                                 {"freq": [16], "value": 9.536743164049036e-07},
                                 {"freq": [17], "value": 4.4878791359397236e-07},
                                 {"freq": [18], "value": 2.1192762587190976e-07},
                                 {"freq": [19], "value": 1.003867701567768e-07},
                                 {"freq": [20], "value": 4.768371581385223e-08},
                                 {"freq": [21], "value": 2.2706531340223398e-08},
                                 {"freq": [22], "value": 1.0837208150585564e-08},
                                 {"freq": [23], "value": 5.183012585165275e-09},
                                 {"freq": [24], "value": 2.4835268759059574e-09},
                                 {"freq": [25], "value": 1.1920929032403083e-09},
                                 {"freq": [26], "value": 5.731215753706142e-10},
                                 {"freq": [27], "value": 2.759474445189267e-10},
                                 {"freq": [28], "value": 1.3304608009795629e-10},
                                 {"freq": [29], "value": 6.422915253751488e-11},
                                 {"freq": [30], "value": 3.104408001925935e-11},
                                 {"freq": [31], "value": 1.5021325669667736e-11},
                                 {"freq": [32], "value": 7.275962964736401e-12},
                                 {"freq": [33], "value": 3.5277222055751847e-12},
                                 {"freq": [34], "value": 1.7119858487290314e-12},
                                 {"freq": [35], "value": 8.31532280560836e-13},
                                 {"freq": [36], "value": 4.0422193357870323e-13},
                                 {"freq": [37], "value": 1.9664394818785636e-13}],
                     "tail_bound": 1.9459882175501312e-13}

RATIONAL_TRIPLET = {"basis": [{"den": 6, "num": 1}],
                    "gamma_coords": [3],
                    "lambdas": [{"freq": [4], "value": 0.41666666666666663},
                                {"freq": [8], "value": 0.16319444444444436},
                                {"freq": [12], "value": -0.08005401234567905},
                                {"freq": [16], "value": 0.00461757330246914},
                                {"freq": [20], "value": 0.010468910751028813},
                                {"freq": [24], "value": -0.004404634005629874},
                                {"freq": [28], "value": -0.00029636477495877307},
                                {"freq": [32], "value": 0.000933918533592652},
                                {"freq": [36], "value": -0.00028826926916270977},
                                {"freq": [40], "value": -7.868273078253413e-05},
                                {"freq": [44], "value": 8.876823338271122e-05},
                                {"freq": [48], "value": -1.751229800399391e-05},
                                {"freq": [52], "value": -1.204239629095798e-05},
                                {"freq": [56], "value": 8.411895756284292e-06},
                                {"freq": [60], "value": -6.621069310817015e-07},
                                {"freq": [64], "value": -1.581466676738023e-06},
                                {"freq": [68], "value": 7.662360099886649e-07},
                                {"freq": [72], "value": 4.990897978927534e-08},
                                {"freq": [76], "value": -1.9109581006042599e-07},
                                {"freq": [80], "value": 6.441257102644458e-08},
                                {"freq": [84], "value": 1.7663508212224592e-08},
                                {"freq": [88], "value": -2.1664479643787618e-08},
                                {"freq": [92], "value": 4.602506307010986e-09},
                                {"freq": [96], "value": 3.1269702456462805e-09},
                                {"freq": [100], "value": -2.3093645419972974e-09},
                                {"freq": [104], "value": 2.0361766537969537e-10},
                                {"freq": [108], "value": 4.5287667704162275e-10},
                                {"freq": [112], "value": -2.2922777683431805e-10},
                                {"freq": [116], "value": -1.3192886055470196e-11},
                                {"freq": [120], "value": 5.88002825198221e-11},
                                {"freq": [124], "value": -2.062435273026649e-11},
                                {"freq": [128], "value": -5.456386506071939e-12},
                                {"freq": [132], "value": 7.048178165579423e-12},
                                {"freq": [136], "value": -1.5665321838589848e-12},
                                {"freq": [140], "value": -1.0272903868008132e-12},
                                {"freq": [144], "value": 7.860203413281437e-13},
                                {"freq": [152], "value": -1.5544266392024918e-13}],
                    "tail_bound": 2.006153043577401e-13}

BERN08_RECONSTRUCTED = {"atoms": [{"coords": [0], "mass": 0.799999999999971},
                                  {"coords": [1], "mass": 0.19999999999999266},
                                  {"coords": [20], "mass": 3.641019550937832e-14}],
                        "basis": [{"den": 1, "num": 1}]}

BERN08_HALF_POWER = {"classification": "signed",
                     "measure": {"atoms": [{"coords": [0], "weight": 0.8944271909998995},
                                           {"coords": [1], "weight": 0.11180339887498739},
                                           {"coords": [2], "weight": -0.006987712429686752},
                                           {"coords": [3], "weight": 0.0008734640537108475},
                                           {"coords": [4], "weight": -0.00013647875839234235},
                                           {"coords": [5], "weight": 2.3883782718651068e-05},
                                           {"coords": [6], "weight": -4.478209259734543e-06},
                                           {"coords": [7], "weight": 8.79648247465083e-07},
                                           {"coords": [8], "weight": -1.7867855027210872e-07},
                                           {"coords": [9], "weight": 3.72246795988455e-08},
                                           {"coords": [10], "weight": -7.910227882653036e-09},
                                           {"coords": [11], "weight": 1.7078810377948012e-09},
                                           {"coords": [12], "weight": -3.7359501062306665e-10},
                                           {"coords": [13], "weight": 8.262048108366513e-11},
                                           {"coords": [14], "weight": -1.8441590175942693e-11},
                                           {"coords": [15], "weight": 4.1491565989514445e-12},
                                           {"coords": [16], "weight": -9.399867317855302e-13},
                                           {"coords": [17], "weight": 2.1421787208370327e-13},
                                           {"coords": [18], "weight": -4.912353245334096e-14},
                                           {"coords": [20], "weight": 1.7743573451368296e-14}],
                                 "basis": [{"den": 1, "num": 1}]},
                     "scaled_tail": 3.1701339656912596e-14,
                     "series_residual": 1.4259898987594311e-13,
                     "shift": {"coords": [0], "in_module": True, "value": 0.0}}

GEOMETRIC_CURVES = """\
t,re_f,im_f,abs_f,arg_f
0.0,1.0,0.0,1.0,0.0
0.7853981633974483,0.595371784915274,0.3256196415254549,0.6785983445458477,0.500474036775385
1.5707963267948966,0.4000000000000007,0.20000000000000034,0.4472135954999587,0.46364760900080626
2.356194490192345,0.34580468567296246,0.0903255238783967,0.3574067443365936,0.2554953736485227
3.141592653589793,0.3333333333333333,1.4300278842891362e-17,0.3333333333333333,1.3704315460216776e-16
3.9269908169872414,0.34580468567296235,-0.09032552387839675,0.35740674433659353,-0.2554953736485227
4.71238898038469,0.40000000000000063,-0.20000000000000032,0.44721359549995865,-0.46364760900080587
5.497787143782138,0.595371784915274,-0.3256196415254549,0.6785983445458477,-0.5004740367753848
6.283185307179586,1.0,-2.463187330323998e-16,1.0,-1.942890293094024e-16
"""

# --help at 80 columns; no help string prints a default, so neither the
# environment nor the parser's reuse across calls can reach these bytes
HELP = {
    "": """\
usage: quasilevy [-h]
                 {check-s,triplet,reconstruct,power,classify-id,tv,converge-check,compact-check,stoch-check,curves}
                 ...

Spectral representations of discrete probability laws

positional arguments:
  {check-s,triplet,reconstruct,power,classify-id,tv,converge-check,compact-check,stoch-check,curves}
    check-s             certify or refute separation from zero
    triplet             extract the spectral triplet of a law
    reconstruct         rebuild the law from a triplet
    power               fractional convolution power through the triplet
    classify-id         decide infinite divisibility from a triplet
    tv                  total variation distance between two laws
    converge-check      convergence-in-variation criterion on a prefix
    compact-check       relative-compactness conditions on a prefix
    stoch-check         stochastic-compactness condition on a prefix
    curves              CSV of (t, Re f, Im f, |f|, Arg f)

options:
  -h, --help            show this help message and exit
""",
    "check-s": """\
usage: quasilevy check-s [-h] [--max-depth MAX_DEPTH] [--zero-tol ZERO_TOL]
                         [--target-gap TARGET_GAP] [--curves CURVES]
                         [--t-max T_MAX] [--samples SAMPLES] [--out OUT]
                         law

positional arguments:
  law

options:
  -h, --help            show this help message and exit
  --max-depth MAX_DEPTH
  --zero-tol ZERO_TOL
  --target-gap TARGET_GAP
  --curves CURVES       also write a (t, |f|, Arg f) CSV here
  --t-max T_MAX
  --samples SAMPLES
  --out OUT             output path (default stdout)
""",
    "triplet": """\
usage: quasilevy triplet [-h] [--tol TOL] [--n-init N_INIT]
                         [--emit-curves EMIT_CURVES] [--t-max T_MAX]
                         [--samples SAMPLES] [--out OUT]
                         law

positional arguments:
  law

options:
  -h, --help            show this help message and exit
  --tol TOL
  --n-init N_INIT
  --emit-curves EMIT_CURVES
                        write a (t, Re f, Im f, Arg f) CSV here
  --t-max T_MAX
  --samples SAMPLES
  --out OUT             output path (default stdout)
""",
    "reconstruct": """\
usage: quasilevy reconstruct [-h] [--series-tol SERIES_TOL] [--out OUT]
                             triplet

positional arguments:
  triplet

options:
  -h, --help            show this help message and exit
  --series-tol SERIES_TOL
  --out OUT             output path (default stdout)
""",
    "power": """\
usage: quasilevy power [-h] --s S [--series-tol SERIES_TOL] [--out OUT]
                       triplet

positional arguments:
  triplet

options:
  -h, --help            show this help message and exit
  --s S                 nonnegative power, e.g. 0.5 or 1/2
  --series-tol SERIES_TOL
  --out OUT             output path (default stdout)
""",
    "classify-id": """\
usage: quasilevy classify-id [-h] [--id-tol ID_TOL] [--out OUT] triplet

positional arguments:
  triplet

options:
  -h, --help       show this help message and exit
  --id-tol ID_TOL
  --out OUT        output path (default stdout)
""",
    "tv": """\
usage: quasilevy tv [-h] [--out OUT] a b

positional arguments:
  a
  b

options:
  -h, --help  show this help message and exit
  --out OUT   output path (default stdout)
""",
    "converge-check": """\
usage: quasilevy converge-check [-h] --limit LIMIT [--tol TOL]
                                [--n-init N_INIT] [--final-tol FINAL_TOL]
                                [--growth-factor GROWTH_FACTOR]
                                [--emit-trends EMIT_TRENDS] [--out OUT]
                                members [members ...]

positional arguments:
  members

options:
  -h, --help            show this help message and exit
  --limit LIMIT
  --tol TOL
  --n-init N_INIT
  --final-tol FINAL_TOL
  --growth-factor GROWTH_FACTOR
  --emit-trends EMIT_TRENDS
                        write per-member trend CSV here
  --out OUT             output path (default stdout)
""",
    "compact-check": """\
usage: quasilevy compact-check [-h] [--tol TOL] [--n-init N_INIT]
                               [--final-tol FINAL_TOL]
                               [--growth-factor GROWTH_FACTOR]
                               [--emit-trends EMIT_TRENDS] [--out OUT]
                               members [members ...]

positional arguments:
  members

options:
  -h, --help            show this help message and exit
  --tol TOL
  --n-init N_INIT
  --final-tol FINAL_TOL
  --growth-factor GROWTH_FACTOR
  --emit-trends EMIT_TRENDS
                        write per-member trend CSV here
  --out OUT             output path (default stdout)
""",
    "stoch-check": """\
usage: quasilevy stoch-check [-h] [--tol TOL] [--n-init N_INIT]
                             [--final-tol FINAL_TOL]
                             [--growth-factor GROWTH_FACTOR]
                             [--emit-trends EMIT_TRENDS] [--out OUT]
                             members [members ...]

positional arguments:
  members

options:
  -h, --help            show this help message and exit
  --tol TOL
  --n-init N_INIT
  --final-tol FINAL_TOL
  --growth-factor GROWTH_FACTOR
  --emit-trends EMIT_TRENDS
                        write per-member trend CSV here
  --out OUT             output path (default stdout)
""",
    "curves": """\
usage: quasilevy curves [-h] [--t-min T_MIN] [--t-max T_MAX]
                        [--samples SAMPLES] [--out OUT]
                        law

positional arguments:
  law

options:
  -h, --help         show this help message and exit
  --t-min T_MIN
  --t-max T_MAX
  --samples SAMPLES
  --out OUT          output path (default stdout)
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("QUASILEVY_TOL", "1e-3")
    for _ in range(2):  # the second call reuses the parser the first one built
        with pytest.raises(SystemExit) as info:
            main([command, "--help"] if command else ["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == HELP[command]
