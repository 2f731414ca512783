import json
import math
from fractions import Fraction

import numpy as np
import pytest

from quasilevy import (
    DiscreteLaw,
    DuplicateAtom,
    FrequencyBasis,
    ParseError,
    QuasiTriplet,
    SignedAtomicMeasure,
    ZeroOnPath,
    triplet_lattice,
    tv_distance,
)
from quasilevy import cli, jsonio
from quasilevy.cli import emit_curves, main
from oracles import truncated_geometric

B1 = FrequencyBasis((1,))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jsonio.dumps(doc))
    return str(path)


GEOMETRIC = truncated_geometric(Fraction(1, 2), 50)[0]
BERN08 = DiscreteLaw.from_lattice({0: 0.8, 1: 0.2})
BERN_HALF_DOC = {"basis": [1], "atoms": [
    {"coords": [0], "mass": {"num": 1, "den": 2}},
    {"coords": [1], "mass": {"num": 1, "den": 2}},
]}


class TestJsonRoundTrips:
    def test_law_roundtrip_exact(self):
        law = DiscreteLaw.from_pairs(
            FrequencyBasis((Fraction(1, 6),)),
            [((3,), Fraction(1, 4)), ((7,), 0.75)],
        )
        doc = jsonio.law_to_json(law)
        again = jsonio.law_from_json(json.loads(jsonio.dumps(doc)))
        assert again == law
        assert again.basis.alphas == law.basis.alphas
        assert isinstance(again.atoms[(3,)], Fraction)

    def test_lattice_shorthand(self):
        doc = {"offset": {"num": 1, "den": 2}, "span": {"num": 2, "den": 3},
               "masses": {"0": 0.5, "1": 0.5}}
        law = jsonio.law_from_json(doc)
        assert sorted(float(v) for v in law.support_values()) == pytest.approx([0.5, 7 / 6])

    def test_lattice_shorthand_duplicate_index(self):
        # distinct JSON keys, one index: rejected like a repeated atom, never overwritten
        doc = {"masses": {"0": 0.5, "1": 0.5, " 1 ": 0.5, "+1": 0.5}}
        with pytest.raises(DuplicateAtom, match="index 1 listed twice"):
            jsonio.law_from_json(doc)

    def test_triplet_roundtrip_exact(self):
        trip = triplet_lattice(BERN08)
        doc = jsonio.triplet_to_json(trip)
        again = jsonio.triplet_from_json(json.loads(jsonio.dumps(doc)))
        assert again == trip

    def test_measure_roundtrip(self):
        m = SignedAtomicMeasure(B1, {(0,): 0.25, (2,): -0.1})
        again = jsonio.measure_from_json(json.loads(jsonio.dumps(jsonio.measure_to_json(m))))
        assert again == m

    def test_malformed_documents(self):
        with pytest.raises(ParseError):
            jsonio.law_from_json({"basis": [1]})
        with pytest.raises(ParseError):
            jsonio.law_from_json({"basis": [1], "atoms": [{"coords": [0.5], "mass": 1.0}]})
        with pytest.raises(ParseError):
            jsonio.scalar_from_json({"num": 1, "den": 0}, "x")
        with pytest.raises(ParseError, match="basis dimension"):
            jsonio.triplet_from_json(
                {"basis": [1], "gamma_coords": [0], "lambdas": [{"freq": [1, 2], "value": 0.1}]})

    def test_entry_error_locations(self):
        def message(loader, doc):
            with pytest.raises(ParseError) as info:
                loader(doc)
            return str(info.value)

        assert message(jsonio.law_from_json, {"basis": [1], "atoms": [{"coords": [0]}]}) == (
            "law.atoms[0]: expected {coords, mass}")
        assert message(jsonio.law_from_json, {"basis": [1], "atoms": [{"coords": "0", "mass": 1}]}).startswith(
            "law.atoms[0]: coords must be")
        assert message(jsonio.measure_from_json, {"basis": [1], "atoms": [{"coords": [0], "weight": None}]}).startswith(
            "measure.atoms[0].weight: expected a number")
        trip = {"basis": [1], "gamma_coords": [0]}
        assert message(jsonio.triplet_from_json, {**trip, "lambdas": [{"freq": [1.5], "value": 1}]}).startswith(
            "triplet.lambdas[0].freq: coords must be")
        assert message(jsonio.triplet_from_json, {**trip, "lambdas": [{"freq": [1], "value": 0.1}] * 2}) == (
            "triplet.lambdas[1]: duplicate frequency (1,)")
        # a weight beyond the float range is reported, not raised as OverflowError
        assert message(jsonio.triplet_from_json, {**trip, "lambdas": [{"freq": [1], "value": 10**400}]}).startswith(
            "triplet: ")

    def test_serialization_is_byte_stable(self):
        trip = triplet_lattice(GEOMETRIC)
        a = jsonio.dumps(jsonio.triplet_to_json(trip))
        b = jsonio.dumps(jsonio.triplet_to_json(triplet_lattice(GEOMETRIC)))
        assert a == b


class TestEmitCurves:
    def test_degenerate_flat(self):
        law = DiscreteLaw.from_values([(Fraction(0), 1.0)])
        rows = emit_curves(law, 0.0, 5.0, 16)
        assert all(abs(r[3] - 1.0) < 1e-13 and abs(r[4]) < 1e-13 for r in rows)

    def test_linear_phase_winds(self):
        law = DiscreteLaw.from_values([(3, 1.0)])
        rows = emit_curves(law, 0.0, 2 * math.pi, 64)
        assert rows[-1][4] == pytest.approx(6 * math.pi, abs=1e-9)

    def test_geometric_minimum_at_pi(self):
        rows = emit_curves(GEOMETRIC, 0.0, 2 * math.pi, 257)
        abs_col = [r[3] for r in rows]
        k = int(np.argmin(abs_col))
        assert rows[k][0] == pytest.approx(math.pi, abs=1e-12)
        assert abs_col[k] == pytest.approx(1 / 3, abs=1e-9)

    def test_zero_on_path(self):
        law = jsonio.law_from_json(BERN_HALF_DOC)
        with pytest.raises(ZeroOnPath):
            emit_curves(law, 0.0, 2 * math.pi, 64)


class TestCliCommands:
    def test_triplet_command(self, tmp_path, capsys):
        law_file = write(tmp_path, "bern08.json", jsonio.law_to_json(BERN08))
        out = tmp_path / "trip.json"
        assert main(["triplet", law_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        lam2 = [e["value"] for e in doc["lambdas"] if e["freq"] == [2]]
        assert lam2 and lam2[0] < 0

    def test_check_s_zero_found_exit_1(self, tmp_path):
        law_file = write(tmp_path, "bern_half.json", BERN_HALF_DOC)
        out = tmp_path / "cert.json"
        code = main(["check-s", law_file, "--out", str(out)])
        assert code == 1
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "zero_found"
        assert cert["zero_theta"][0] == pytest.approx(math.pi, abs=1e-6)

    def test_check_s_certified_exit_0(self, tmp_path, capsys):
        law_file = write(tmp_path, "geom.json", jsonio.law_to_json(GEOMETRIC))
        assert main(["check-s", law_file]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "certified" and cert["mu"] > 0.25
        frontier = cert["search_log"]["frontier"]  # 50 atoms: 64 cells fill the terms budget
        assert frontier == {"depth": 6, "cells": 64}
        assert cert["search_log"]["cells"] >= 1 + frontier["cells"]

    def test_check_s_undecided_exit_2(self, tmp_path, capsys):
        # {0: 1, 1: r, 2: r^2} / (1 + r + r^2), r = 1 - 1e-9: no atom carries half the mass, inf |f| is about 1e-9
        r = 1 - 1e-9
        doc = {"basis": [1], "atoms": [{"coords": [k], "mass": r**k / (1 + r + r * r)} for k in range(3)]}
        law_file = write(tmp_path, "tight.json", doc)
        assert main(["check-s", law_file, "--max-depth", "6"]) == 2
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "undecided"
        # the two-atom law this test used has an atom above 1/2: the one-atom floor certifies it at the root
        old = write(tmp_path, "old.json", {"basis": [1], "atoms": [
            {"coords": [0], "mass": 0.5000000001}, {"coords": [1], "mass": 0.4999999999}]})
        assert main(["check-s", old, "--max-depth", "6"]) == 0
        cert = json.loads(capsys.readouterr().out)
        log = cert["search_log"]
        assert (cert["verdict"], log["bound"], log["cells"]) == ("certified", "dominant", 1)
        assert Fraction(cert["mu"]) <= Fraction(0.5000000001) - Fraction(0.4999999999)

    @pytest.mark.parametrize("case", ["t_max_beyond_budget", "samples_beyond_budget", "support_beyond_float_range"])
    def test_check_s_skips_curves_it_cannot_draw(self, tmp_path, capsys, case):
        # the certificate stands, with its exit code; only the optional CSV is skipped
        law_file = write(tmp_path, "law.json", {"basis": [1], "atoms": [
            {"coords": [0], "mass": 0.8}, {"coords": [10**400 if case.startswith("support") else 1], "mass": 0.2}]})
        curves = tmp_path / "c.csv"
        extra = {"t_max_beyond_budget": ["--t-max", "1e300"], "samples_beyond_budget": ["--samples", str(10**20)],
                 "support_beyond_float_range": []}[case]
        assert main(["check-s", law_file, "--curves", str(curves), *extra]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["verdict"] == "certified"
        assert err.startswith("curves skipped: ") and not curves.exists()

    def test_tv_same_file_is_zero(self, tmp_path, capsys):
        law_file = write(tmp_path, "a.json", jsonio.law_to_json(GEOMETRIC))
        assert main(["tv", law_file, law_file]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_reconstruct_roundtrip(self, tmp_path):
        law_file = write(tmp_path, "geom.json", jsonio.law_to_json(GEOMETRIC))
        trip_file = tmp_path / "trip.json"
        law_out = tmp_path / "rec.json"
        assert main(["triplet", law_file, "--out", str(trip_file)]) == 0
        assert main(["reconstruct", str(trip_file), "--out", str(law_out)]) == 0
        rec = jsonio.law_from_json(json.loads(law_out.read_text()))
        assert tv_distance(rec, GEOMETRIC) <= 1e-8

    def test_power_classifies_signed(self, tmp_path, capsys):
        trip_file = write(tmp_path, "trip.json", jsonio.triplet_to_json(triplet_lattice(BERN08)))
        assert main(["power", trip_file, "--s", "1/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] == "signed"

    def test_classify_id(self, tmp_path, capsys):
        trip_file = write(tmp_path, "trip.json", jsonio.triplet_to_json(triplet_lattice(BERN08)))
        assert main(["classify-id", trip_file]) == 0
        assert json.loads(capsys.readouterr().out)["infinitely_divisible"] is False
        poisson = QuasiTriplet(B1, (0,), {(1,): 0.7})
        trip_file = write(tmp_path, "pois.json", jsonio.triplet_to_json(poisson))
        main(["classify-id", trip_file])
        assert json.loads(capsys.readouterr().out)["infinitely_divisible"] is True

    def test_reconstruct_single_huge_frequency(self, tmp_path, capsys):
        # the one frequency 10**15 spans 10**15 Z: the series runs on Z and its atoms land
        # at exact multiples of 10**15, with the Poisson(0.1) masses
        trip_file = write(tmp_path, "t15.json", {"basis": [1], "gamma_coords": [0],
                                                 "lambdas": [{"freq": [10**15], "value": 0.1}]})
        assert main(["reconstruct", trip_file]) == 0
        atoms = {a["coords"][0]: a["mass"] for a in json.loads(capsys.readouterr().out)["atoms"]}
        assert set(atoms) == {j * 10**15 for j in range(len(atoms))}
        assert len(atoms) >= 8
        for j in range(len(atoms)):
            assert atoms[j * 10**15] == pytest.approx(math.exp(-0.1) * 0.1**j / math.factorial(j), abs=1e-12)

    def test_triplet_on_zero_law_exits_1_with_payload(self, tmp_path, capsys):
        law_file = write(tmp_path, "bern_half.json", BERN_HALF_DOC)
        assert main(["triplet", law_file]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotSeparated"
        assert err["certificate"]["verdict"] == "zero_found"

    def test_converge_check_names_the_failing_member(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", jsonio.law_to_json(BERN08))
        zero = write(tmp_path, "zero.json", jsonio.law_to_json(DiscreteLaw.from_lattice({0: 0.3, 1: 0.4, 2: 0.3})))
        assert main(["converge-check", "--limit", good, good, zero, good]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TripletFailed"
        assert err["message"].startswith("triplet extraction failed for member 2: ")

    @pytest.mark.parametrize("argv", [
        ["compact-check", "LAW", "LAW", "--n-init", "0"],
        ["stoch-check", "LAW", "--n-init", "-4"],
        ["converge-check", "--limit", "LAW", "LAW", "--tol", "-1"],
        ["triplet", "LAW", "--tol", "0"],
    ])
    def test_invalid_triplet_params_fail_before_any_certificate(self, tmp_path, capsys, monkeypatch, argv):
        from quasilevy import spectral

        certified = []
        monkeypatch.setattr(spectral, "require_separated", lambda *args: certified.append(args))
        law_file = write(tmp_path, "law.json", jsonio.law_to_json(BERN08))
        assert main([law_file if a == "LAW" else a for a in argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgument"
        assert certified == []

    def test_converge_check_holds(self, tmp_path, capsys):
        limit_file = write(tmp_path, "limit.json", jsonio.law_to_json(GEOMETRIC))
        members = [write(tmp_path, "m.json", jsonio.law_to_json(GEOMETRIC)) for _ in range(3)]
        assert main(["converge-check", "--limit", limit_file, *members]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "holds" and doc["gamma_stable_from"] == 1

    def test_compact_and_stoch_check(self, tmp_path, capsys):
        members = [write(tmp_path, f"m{i}.json", jsonio.law_to_json(GEOMETRIC)) for i in range(4)]
        assert main(["compact-check", *members]) == 0
        assert json.loads(capsys.readouterr().out)["all_pass"] is True
        assert main(["stoch-check", *members]) == 0
        assert json.loads(capsys.readouterr().out)["passes"] is True

    def test_curves_csv(self, tmp_path):
        law_file = write(tmp_path, "geom.json", jsonio.law_to_json(GEOMETRIC))
        out = tmp_path / "curve.csv"
        assert main(["curves", law_file, "--samples", "65", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,re_f,im_f,abs_f,arg_f"
        assert len(lines) == 66
        # columns parse back to floats losslessly
        row = lines[1].split(",")
        assert float(row[3]) <= 1.0 + 1e-12

    def test_check_s_on_a_rational_point_mass(self, tmp_path, capsys):
        # (2, -1) over (1, 2) is the point 0, so the law is the point mass there
        point = write(tmp_path, "point.json", {"basis": [1, 2], "atoms": [
            {"coords": [0, 0], "mass": 0.5}, {"coords": [2, -1], "mass": 0.5}]})
        assert main(["check-s", point]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["mu"], doc["search_log"]["rank"]) == ("certified", 1.0, 0)

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-s", str(bad)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "case",
        ["reversed_t_range", "repeated_basis", "nan_mass", "zero_frequency", "negative_power", "zero_n_init",
         "nan_tol", "nan_id_tol", "inf_series_tol", "malformed_tol_option", "nan_env_tol", "malformed_env_tol",
         "mass_beyond_float_range", "mass_sum_beyond_float_range", "gap_above_one", "zero_gap",
         "negative_depth", "negative_zero_tol", "huge_d1_frequency", "duplicate_lattice_index",
         "power_overflows_series", "power_beyond_float_range", "weight_overflows_series",
         "curves_t_max_beyond_budget", "curves_samples_beyond_budget", "emit_curves_beyond_budget",
         "curves_support_beyond_float_range", "trivial_basis_check_s", "trivial_basis_triplet",
         "grid_samples_a_near_zero", "member_grid_samples_a_near_zero", "negative_tail_bound",
         "tail_bound_overflows_error_bound", "tail_bound_overflows_scaled_tail", "non_utf8_law",
         "deeply_nested_json"],
    )
    def test_bad_input_gives_json_error_not_traceback(self, tmp_path, capsys, monkeypatch, case):
        good = write(tmp_path, "geom.json", jsonio.law_to_json(GEOMETRIC))
        trip = write(tmp_path, "trip.json", jsonio.triplet_to_json(triplet_lattice(BERN08)))
        repeated = write(tmp_path, "b11.json", {"basis": [1, 1], "atoms": [{"coords": [0, 0], "mass": 1}]})
        zero_freq = write(tmp_path, "t0.json", {"basis": [1], "gamma_coords": [0],
                                                "lambdas": [{"freq": [0], "value": 0.1}]})
        # gcd 1: the frequencies are not reduced, so the series would span 10**15 indices
        huge_freq = write(tmp_path, "t15.json", {"basis": [1], "gamma_coords": [0], "lambdas": [
            {"freq": [10**15], "value": 0.1}, {"freq": [10**15 + 1], "value": 0.1}]})
        heavy = write(tmp_path, "t1000.json", {"basis": [1], "gamma_coords": [0],
                                               "lambdas": [{"freq": [1], "value": 1000.0}]})
        dup = write(tmp_path, "dup.json", {"masses": {"0": 0.5, "1": 0.5, " 1 ": 0.5, "+1": 0.5}})
        nan_mass = tmp_path / "nan.json"
        nan_mass.write_text('{"basis": [1], "atoms": [{"coords": [0], "mass": NaN}]}')
        huge = write(tmp_path, "huge.json", {"basis": [1], "atoms": [{"coords": [0], "mass": 10**400}]})
        huge_mixed = write(tmp_path, "huge2.json", {"basis": [1], "atoms": [
            {"coords": [0], "mass": 10**400}, {"coords": [1], "mass": 0.5}]})
        far = write(tmp_path, "far.json", {"basis": [1], "atoms": [
            {"coords": [0], "mass": 0.8}, {"coords": [10**400], "mass": 0.2}]})
        # the point mass at 0 written with a second coordinate on the trivial basis
        trivial = write(tmp_path, "trivial.json", {"basis": [0], "atoms": [
            {"coords": [0], "mass": 0.5}, {"coords": [5], "mass": 0.5}]})
        # certified separated, with a floor of about 1e-14, yet |f| falls below 1e-13 at theta = pi on the grid
        near_zero = write(tmp_path, "near0.json", {"basis": [1], "atoms": [
            {"coords": [0], "mass": 0.5 + 5e-15}, {"coords": [1], "mass": 0.5 - 5e-15}]})
        tails = {bound: write(tmp_path, f"tail{bound}.json", {"basis": [1], "gamma_coords": [0], "tail_bound": bound,
                                                               "lambdas": [{"freq": [1], "value": 0.25}]})
                 for bound in (-1, 800, 1e308)}
        non_utf8 = tmp_path / "ff.json"
        non_utf8.write_bytes(b'{"basis": [1], "atoms": [{"coords": [0], "mass": 1}]}\xff')
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "]" * 100_000)
        if case.endswith("env_tol"):
            monkeypatch.setenv("QUASILEVY_TOL", "nan" if case == "nan_env_tol" else "abc")
        argv, error = {
            "reversed_t_range": (["curves", good, "--t-min", "5", "--t-max", "1"], "InvalidArgument"),
            "repeated_basis": (["triplet", repeated], "ParseError"),
            "nan_mass": (["triplet", str(nan_mass)], "ParseError"),
            "zero_frequency": (["reconstruct", zero_freq], "ParseError"),
            "negative_power": (["power", trip, "--s", "-1"], "InvalidArgument"),
            "zero_n_init": (["triplet", good, "--n-init", "0"], "InvalidArgument"),
            "nan_tol": (["triplet", good, "--tol", "nan"], "ParseError"),
            "nan_id_tol": (["classify-id", trip, "--id-tol", "nan"], "ParseError"),
            "inf_series_tol": (["reconstruct", trip, "--series-tol", "inf"], "ParseError"),
            "malformed_tol_option": (["triplet", good, "--tol", "abc"], "ParseError"),
            "nan_env_tol": (["triplet", good], "ParseError"),
            "malformed_env_tol": (["triplet", good], "ParseError"),
            "mass_beyond_float_range": (["triplet", huge], "MassSumNotOne"),
            "mass_sum_beyond_float_range": (["triplet", huge_mixed], "MassSumNotOne"),
            "gap_above_one": (["check-s", good, "--target-gap", "2"], "InvalidArgument"),
            "zero_gap": (["check-s", good, "--target-gap", "0"], "InvalidArgument"),
            "negative_depth": (["check-s", good, "--max-depth", "-1"], "InvalidArgument"),
            "negative_zero_tol": (["check-s", good, "--zero-tol=-1e-10"], "InvalidArgument"),
            "huge_d1_frequency": (["reconstruct", huge_freq], "Diverged"),
            "duplicate_lattice_index": (["triplet", dup], "DuplicateAtom"),
            "power_overflows_series": (["power", trip, "--s", "1e30"], "Diverged"),
            "power_beyond_float_range": (["power", trip, "--s", "1e400"], "InvalidArgument"),
            "weight_overflows_series": (["reconstruct", heavy], "Diverged"),
            "curves_t_max_beyond_budget": (["curves", good, "--t-max", "1e300"], "InvalidArgument"),
            "curves_samples_beyond_budget": (["curves", good, "--samples", str(10**20)], "InvalidArgument"),
            "emit_curves_beyond_budget": (["triplet", good, "--emit-curves", str(tmp_path / "c.csv"),
                                           "--t-max", "1e300"], "InvalidArgument"),
            "curves_support_beyond_float_range": (["curves", far], "InvalidArgument"),
            "trivial_basis_check_s": (["check-s", trivial], "ParseError"),
            "trivial_basis_triplet": (["triplet", trivial], "ParseError"),
            "grid_samples_a_near_zero": (["triplet", near_zero], "ZeroOnPath"),
            "member_grid_samples_a_near_zero": (["compact-check", near_zero], "TripletFailed"),
            "negative_tail_bound": (["reconstruct", tails[-1]], "ParseError"),
            "tail_bound_overflows_error_bound": (["reconstruct", tails[800]], "Diverged"),
            "tail_bound_overflows_scaled_tail": (["power", tails[1e308], "--s", "2"], "Diverged"),
            "non_utf8_law": (["check-s", str(non_utf8)], "ParseError"),
            "deeply_nested_json": (["check-s", str(nested)], "ParseError"),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == error

    def test_argument_errors_stay_value_errors(self):
        with pytest.raises(ValueError):
            emit_curves(GEOMETRIC, 5.0, 1.0, 16)
        with pytest.raises(ValueError, match="points"):
            emit_curves(GEOMETRIC, 0.0, 1e300, 16)

    def test_outputs_byte_stable(self, tmp_path):
        law_file = write(tmp_path, "geom.json", jsonio.law_to_json(GEOMETRIC))
        out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
        main(["triplet", law_file, "--out", str(out1)])
        main(["triplet", law_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_emit_trends_csv(self, tmp_path):
        limit_file = write(tmp_path, "limit.json", jsonio.law_to_json(GEOMETRIC))
        members = [write(tmp_path, f"m{i}.json", jsonio.law_to_json(GEOMETRIC)) for i in range(3)]
        trends = tmp_path / "trends.csv"
        assert main([
            "converge-check", "--limit", limit_file, *members, "--emit-trends", str(trends),
            "--out", str(tmp_path / "v.json"),
        ]) == 0
        lines = trends.read_text().strip().splitlines()
        assert lines[0] == "n,ell1_distance,tv_distance,ell1_norm"
        assert len(lines) == 4


class TestParserReuse:
    def test_parser_built_once_per_process(self, tmp_path, monkeypatch):
        law_file = write(tmp_path, "bern.json", jsonio.law_to_json(BERN08))
        build_parser = cli.build_parser
        builds = []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for argv in (["triplet", law_file], ["tv", law_file, law_file], ["check-s", law_file]):
                assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_environment_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        law_file = write(tmp_path, "bern.json", jsonio.law_to_json(BERN08))
        argv = ["triplet", law_file, "--out", str(tmp_path / "trip.json")]
        triplet_of = cli.triplet_of
        tols = []

        def recording_triplet_of(law, params):
            tols.append(params.tol)
            return triplet_of(law, params)

        monkeypatch.setattr(cli, "triplet_of", recording_triplet_of)
        monkeypatch.delenv("QUASILEVY_TOL", raising=False)
        assert main(argv) == 0  # builds the parser, if no earlier call did
        monkeypatch.setenv("QUASILEVY_TOL", "nan")
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
        monkeypatch.delenv("QUASILEVY_TOL")
        assert main(argv) == 0
        monkeypatch.setenv("QUASILEVY_TOL", "1e-8")
        assert main(argv) == 0
        assert main([*argv, "--tol", "1e-7"]) == 0
        assert tols == [1e-10, 1e-10, 1e-8, 1e-7]
