"""Command-line interface: verbs, exit codes, formats, and config handling."""

import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from toda_whittaker import cli, gl_whittaker
from toda_whittaker.errors import BudgetExceeded
from toda_whittaker.gl_baxter import baxter_eigenfunction, baxter_eigenvalue, baxter_kernel
from toda_whittaker.gl_whittaker import givental_step_kernel
from toda_whittaker.rankin_selberg import stade_kernel


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmit:
    RECORDS = [
        [("value", complex(1.5, -0.0)), ("ratio", Fraction(3, 4)), ("gap", math.nan),
         ("big", math.inf), ("count", 7), ("ok", True), ("case", "a-b")],
        [("value", complex(-2.0, 0.25)), ("ratio", Fraction(-1, 3)), ("gap", 0.1),
         ("big", -math.inf), ("count", 0), ("ok", False), ("case", "c")],
    ]

    def test_json(self, capsys):
        cli._emit("json", self.RECORDS)
        assert capsys.readouterr().out == (
            '{"value": {"re": 1.5, "im": -0}, "ratio": {"num": "3", "den": "4"}, "gap": NaN, '
            '"big": Infinity, "count": 7, "ok": true, "case": "a-b"}\n'
            '{"value": {"re": -2, "im": 0.25}, "ratio": {"num": "-1", "den": "3"}, '
            '"gap": 0.10000000000000001, "big": -Infinity, "count": 0, "ok": false, "case": "c"}\n'
        )

    def test_csv(self, capsys):
        cli._emit("csv", self.RECORDS)
        assert capsys.readouterr().out == (
            "re,im,ratio_re,ratio_im,gap,big,count,ok,case\n"
            "1.5,-0,0.75,0,nan,inf,7,true,a-b\n"
            "-2,0.25,-0.33333333333333331,0,0.10000000000000001,-inf,0,false,c\n"
        )

    def test_text(self, capsys):
        cli._emit("text", self.RECORDS[:1])
        assert capsys.readouterr().out == (
            "value = 1.5 - 0j\nratio = 0.75 + 0j\ngap = nan\nbig = inf\n"
            "count = 7\nok = true\ncase = a-b\n"
        )

    def test_text_layout_of_a_verb(self, capsys):
        cli._emit("text", self.RECORDS, lambda record: record[-1][1].upper())
        assert capsys.readouterr().out == "A-B\nC\n"


class TestEval:
    def test_gl2_closed_json(self, capsys):
        code, out, err = run(
            ["eval", "--algebra", "gl2", "--lambda", "1,-1", "--x", "0,0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["re"] == pytest.approx(0.09599598171294128, rel=1e-12)
        assert payload["value"]["im"] == pytest.approx(0.0, abs=1e-15)
        assert payload["converged"] is True

    def test_gl2_closed_form_at_order_20i(self, capsys):
        # 2 K_{20i}(2): the closed form once printed 2.0749732227570705e-15
        # marked converged, 14% off.  Reference: mpmath at 40 digits.
        code, out, err = run(
            ["eval", "--algebra", "gl2", "--lambda=10,-10", "--x", "0,0", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        ref = 2.4182738769894578e-15
        value = complex(payload["value"]["re"], payload["value"]["im"])
        assert abs(value - ref) <= 1e-10 * ref
        assert payload["abs_error"] >= abs(value - ref)
        assert payload["converged"] is True

    def test_unknown_rank_fails(self, capsys):
        code, out, err = run(
            ["eval", "--algebra", "gl9", "--lambda", "1", "--x", "0"],
            capsys,
        )
        assert code == 1
        assert "RankError" in err

    def test_missing_flags_fail(self, capsys):
        code, out, err = run(["eval", "--algebra", "gl2"], capsys)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize(
        "algebra, lam, x, method",
        [
            ("gl2", "0.5,-0.5", "0.3,-0.2", "givental"),
            ("gl2", "0.5,-0.5", "0.3,-0.2", "recursive"),
            ("gl2", "0.5,-0.5", "0.3,-0.2", "mb"),
            ("so3", "0.5", "0.3", "givental"),
            ("gl3", "0.6,0.1,-0.45", "0.3,-0.2,0.5", "recursive"),
            ("gl3", "0.6,0.1,-0.45", "0.3,-0.2,0.5", "givental"),
            ("so5", "0.5,-0.3", "0.2,-0.1", "givental"),
            ("so5", "0.5,-0.3", "0.2,-0.1", "recursive"),
        ],
    )
    def test_budget_caps_quadrature(self, algebra, lam, x, method, capsys):
        # The gl methods once ignored --budget: 180 or 1800 evaluations,
        # converged, exit 0.  gl3 `recursive` capped only its step, not the
        # rank-1 level below it, which makes up most of its count: 2,823,768
        # evaluations under a budget of 1,000,000, converged, exit 0.  It
        # took 708,696 on the adaptive box, 471,692 on the lattice with its
        # rank-1 level on Gauss-Legendre rules, and takes 13,842 with that
        # level on the lattice too, so the cap is set below that.  The star
        # contractions (gl3 and so5 `givental`, so5 `recursive`) count factor
        # values: their step 1/2 holds 255, 405 and 253 of them, past a cap
        # of 10.  so5 `recursive` took 4,224 on the adaptive box, its seed
        # regions.
        recursive_gl3 = (algebra, method) == ("gl3", "recursive")
        cap = ["--tol", "1e-6", "--budget", "10000"] if recursive_gl3 else ["--budget", "10"]
        code, out, err = run(
            ["eval", "--algebra", algebra, "--lambda", lam, "--x", x,
             "--method", method, "--format", "json"] + cap,
            capsys,
        )
        assert code == 2
        assert json.loads(out)["converged"] is False

    def test_gl3_recursive_stops_within_a_batch_of_its_budget(self, capsys, monkeypatch):
        # The budget was checked only when the step returned, so this call
        # ran all its evaluations (708,696 then) before it exited 2.  It is
        # now checked before each level of the rank-1 lattice, within the
        # step's batch of nodes.  The call needs 13,842 evaluations: 2,444
        # step nodes and 11,398 rank-1 values.  Under the cap the rank-1
        # lattice starts at step 1/2 (4,998 values) and stops before step
        # 1/4 (4,900 more) would pass the cap, at 7,442.  A check made when
        # the batch returns would stop past the cap, at 13,842.
        batches = []
        rank1 = gl_whittaker._coordinate_rank1

        def counted(p1, p2, u1, u2, reach, inner_tol, max_evals):
            try:
                values, err, evals = rank1(p1, p2, u1, u2, reach, inner_tol, max_evals)
            except BudgetExceeded as exc:
                batches.append(len(u1) + exc.result.evaluations)
                raise
            batches.append(values.size + evals)
            return values, err, evals

        monkeypatch.setattr(gl_whittaker, "_coordinate_rank1", counted)
        code, out, err = run(
            ["eval", "--algebra", "gl3", "--lambda", "0.6,0.1,-0.45", "--x", "0.3,-0.2,0.5",
             "--tol", "1e-6", "--budget", "10000", "--format", "json"],
            capsys,
        )
        record = json.loads(out)
        assert code == 2
        assert record["converged"] is False
        assert 10_000 - max(batches) < record["evaluations"] <= 10_000
        assert sum(batches) == record["evaluations"]

    def test_so5_default_is_recursive(self, capsys):
        # The fused 4-d model was the default and, on the adaptive box,
        # spent its whole budget here: exit 2 after 3,999,120 evaluations.
        # As a star contraction it converges in 813 factor values
        # (`test_deterministic_output`), but the default stays `recursive`.
        argv = ["eval", "--algebra", "so5", "--lambda", "0.5,-0.3", "--x", "0.2,-0.1",
                "--format", "json"]
        code, out, err = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["converged"] is True
        assert run(argv + ["--method", "recursive"], capsys) == (code, out, err)

    def test_text_format_has_sign(self, capsys):
        code, out, err = run(
            ["eval", "--algebra", "gl1", "--lambda", "0.7", "--x", "0.3",
             "--format", "text"],
            capsys,
        )
        assert code == 0
        assert "j" in out and ("+" in out or "-" in out)


class TestVerify:
    def test_stade_suite_json(self, capsys):
        code, out, err = run(
            ["verify", "--suite", "stade", "--format", "json"], capsys
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines and all(rec["pass"] for rec in lines)
        assert "passed" in err

    # mb-vs-givental (about 4 s) is left out: its cases run in
    # test_rank3_models_agree.
    @pytest.mark.parametrize("suite", sorted(set(cli._SUITES) - {"mb-vs-givental"}))
    def test_suite_passes(self, suite, capsys):
        code, out, err = run(["verify", "--suite", suite, "--format", "json"], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records and all(rec["pass"] is True for rec in records)

    def test_unknown_suite_fails(self, capsys):
        code, out, err = run(["verify", "--suite", "no-such-suite"], capsys)
        assert code == 1

    def test_failing_case_exits_3(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES,
            "always-fail",
            lambda: [
                ("boom", lambda: cli.CaseResult("boom", 0.0, 1.0, 1.0, 1e-8, False))
            ],
        )
        code, out, err = run(["verify", "--suite", "always-fail"], capsys)
        assert code == 3
        assert "FAIL" in out

    def test_budget_hit_exits_2(self, capsys, monkeypatch):
        # The record once made up its numbers: lhs 0, rhs 0, residual 1e300
        # and tol 0.  It has none, so they print as NaN and Infinity.
        def _raise():
            raise BudgetExceeded("out of evaluations", result=0.0,
                                 max_evaluations=10)

        monkeypatch.setitem(
            cli._SUITES, "always-budget", lambda: [("slow", _raise)]
        )
        code, out, err = run(["verify", "--suite", "always-budget", "--format", "json"], capsys)
        assert code == 2
        record = json.loads(out)
        assert record["case"] == "slow" and record["pass"] is False
        assert all(math.isnan(record[side][part]) for side in ("lhs", "rhs") for part in ("re", "im"))
        assert math.isnan(record["tol"]) and record["residual"] == math.inf

    @pytest.mark.parametrize("n", ["0", "6", "-3"])
    def test_n_out_of_range_fails(self, n, capsys):
        # These once ran as n = 1 (0, -3) and n = 5 (6), with exit 0.
        code, out, err = run(["verify", "--suite", "tq-padic", "--n=" + n], capsys)
        assert code == 1
        assert out == ""
        assert "--n must be between 1 and 5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "barnes", "--format", "csv"],
            ["eval", "--algebra", "gl3", "--lambda", "0.6,0.1,-0.45", "--x", "0.3,-0.2,0.5",
             "--method", "givental", "--tol", "1e-4", "--format", "json"],
            ["eval", "--algebra", "so5", "--lambda", "0.5,-0.3", "--x", "0.2,-0.1", "--method", "givental",
             "--format", "json"],
            ["baxter-apply", "--algebra", "gl", "--gamma=-1.2j", "--lambda", "0.4", "--y", "0.2",
             "--tol", "1e-8", "--format", "json"],
            ["baxter-apply", "--algebra", "so3", "--gamma=-1.6j", "--lambda", "0.45", "--y", "0.1",
             "--tol", "1e-3", "--format", "json"],
            ["kernel", "--kind", "step", "--lambda", "0.6", "--x-top", "0.3,-0.2", "--x-bot", "0.1",
             "--sweep", "0:-1:1:21", "--format", "csv"],
            ["kernel", "--kind", "baxter", "--gamma=-1.2j", "--y", "0.1", "--x", "0.0",
             "--sweep", "0:-1:1:21", "--format", "csv"],
        ],
        ids=["barnes", "eval-gl3-givental", "eval-so5-givental", "baxter-apply-gl", "baxter-apply-so3",
             "kernel-step", "kernel-baxter"],
    )
    def test_deterministic_output(self, argv, capsys):
        code_a, out_a, _ = run(argv, capsys)
        code_b, out_b, _ = run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b != ""

    def test_workers_flag(self, capsys):
        code, out, err = run(
            ["verify", "--suite", "barnes", "--workers", "2"], capsys
        )
        assert code == 1
        assert out == ""

    # Each suite once accepted and ignored these flags: exit 0, default bytes.
    @pytest.mark.parametrize(
        "suite, flag",
        [(suite, flag) for suite in ("toda", "tq-padic") for flag in ("--tol", "--budget")]
        + [(suite, "--rank") for suite in sorted(set(cli._SUITES) - {"baxter-eigen"})]
        + [(suite, flag) for suite in sorted(set(cli._SUITES) - {"tq-padic"})
           for flag in ("--n", "--trials")],
    )
    def test_unread_flag_fails(self, suite, flag, capsys):
        value = {"--tol": "1e-30", "--budget": "1"}.get(flag, "2")
        code, out, err = run(["verify", "--suite", suite, flag, value], capsys)
        assert code == 1
        assert out == ""
        assert flag in err and suite in err

    def test_config_key_of_unread_option_is_a_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-30\nrank = 2\n")
        code, out, err = run(["verify", "--suite", "toda", "--config", str(cfg)], capsys)
        assert code == 0

    def test_suite_parameters_are_verify_options(self):
        # A suite reads the options its parameters name: each must be a
        # verify flag, and each verify option must be read by some suite.
        args = cli._build_parser().parse_args(["verify"])
        reads = [set(inspect.signature(suite).parameters) for suite in cli._SUITES.values()]
        assert all(params <= set(cli._OPTIONS) for params in reads)
        assert set().union(*reads) == set(cli._OPTIONS)
        assert all(hasattr(args, name) for name in cli._OPTIONS)


class TestLFactor:
    def test_exact_rational_text(self, capsys):
        code, out, err = run(
            ["lfactor", "--place", "5", "--satake", "2,3", "--s", "2"],
            capsys,
        )
        assert code == 0
        assert "625/506" in out

    def test_exact_rational_json(self, capsys):
        code, out, err = run(
            ["lfactor", "--place", "5", "--satake", "2,3", "--s", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == {"num": "625", "den": "506"}

    def test_pole_fails(self, capsys):
        code, out, err = run(
            ["lfactor", "--place", "5", "--satake", "5,1/2", "--s", "1"],
            capsys,
        )
        assert code == 1
        assert "PoleError" in err

    def test_archimedean(self, capsys):
        code, out, err = run(
            ["lfactor", "--place", "inf", "--alpha", "0", "--s", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["re"] == pytest.approx(1.0, rel=1e-12)


class TestKernel:
    def test_sweep_csv(self, capsys):
        code, out, err = run(
            ["kernel", "--kind", "baxter", "--gamma=-1.2j", "--x", "0.0",
             "--y", "0.1", "--sweep", "0:-1:1:11", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        assert len(lines) == 12

    # Each kind's flags and its scalar kernel at a point; every sweep below
    # moves coordinate 1.
    KINDS = {
        "baxter": (["--gamma=-1.2j", "--y", "0.1,-0.2", "--x", "0.0,0.3", "--convention", "iwasawa"],
                   lambda pt: baxter_kernel((0.1, -0.2), pt, -1.2j, "iwasawa"), (0.0, 0.3)),
        "step": (["--lambda", "0.6+0.1j", "--x-top", "0.3,-0.2", "--x-bot", "0.1"],
                 lambda pt: givental_step_kernel(pt, (0.1,), 0.6 + 0.1j), (0.3, -0.2)),
        "stade": (["--lambda", "0.5,-0.3", "--x-top", "0.3,-0.2,0.4", "--x-bot", "0.1"],
                  lambda pt: stade_kernel(pt, (0.1,), (0.5, -0.3)), (0.3, -0.2, 0.4)),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_sweep_has_the_bytes_of_scalar_calls(self, kind, fmt, capsys):
        # A sweep evaluates all its points in one kernel call; each value
        # has the bits of the scalar kernel at its point alone.
        flags, scalar, base = self.KINDS[kind]
        code, out, err = run(["kernel", "--kind", kind, *flags, "--sweep", "1:-1:1:11", "--format", fmt], capsys)
        records = []
        for t in np.linspace(-1.0, 1.0, 11):
            pt = list(base)
            pt[1] = float(t)
            records.append([("t", float(t)), ("value", complex(scalar(pt)))])
        cli._emit("csv" if fmt == "text" else fmt, records)
        assert code == 0
        assert out == capsys.readouterr().out

    def test_sweep_needs_two_points(self, capsys):
        code, out, err = run(
            ["kernel", "--kind", "baxter", "--gamma=-1.2j", "--x", "0.0",
             "--y", "0.1", "--sweep", "0:-1:1:1"],
            capsys,
        )
        assert code == 1


class TestConfigAndDispatch:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algebra = gl1\nlambda = 0.7\nx = 0.3\nformat = json\n")
        code, out, err = run(["eval", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algebra = gl9\nlambda = 0.7\nx = 0.3\n")
        code, out, err = run(
            ["eval", "--config", str(cfg), "--algebra", "gl1"], capsys
        )
        assert code == 0

    def test_bad_config_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        code, out, err = run(
            ["eval", "--config", str(cfg), "--algebra", "gl1",
             "--lambda", "0.7", "--x", "0.3"],
            capsys,
        )
        assert code == 1

    def test_missing_config_fails(self, capsys):
        code, out, err = run(
            ["eval", "--config", "/no/such/file.cfg", "--algebra", "gl1",
             "--lambda", "0.7", "--x", "0.3"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lfactor", "--place", "inf", "--alpha", "0", "--s", "1", "--tol", "1e-3"],
            ["kernel", "--kind", "baxter", "--gamma=-1.2j", "--x", "0.0", "--y", "0.1",
             "--budget", "10"],
            ["eval", "--algebra", "gl1", "--lambda", "0.7", "--x", "0.3", "--workers", "2"],
            ["baxter-apply", "--lambda", "0.4", "--gamma=-1.2j", "--y", "0.2",
             "--workers", "2"],
        ],
    )
    def test_flag_of_another_verb_fails(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""

    def test_no_command_fails(self, capsys):
        code, out, err = run([], capsys)
        assert code == 1

    def test_baxter_apply_verb(self, capsys):
        code, out, err = run(
            ["baxter-apply", "--algebra", "gl", "--lambda", "0.4",
             "--gamma=-1.2j", "--y", "0.2", "--tol", "1e-6",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] < 1e-5

    def test_so3_baxter_apply_at_a_tight_tol(self, capsys):
        # The operator was once a fused 3-D box: at this tol it exited 2 at
        # the default budget after 3,993,066 evaluations.
        code, out, err = run(
            ["baxter-apply", "--algebra", "so3", "--gamma=-1.6j", "--lambda", "0.45",
             "--y", "0.1", "--tol", "1e-9", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] and payload["residual"] <= 1e-9

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_baxter_apply_budget_hit_keeps_its_prediction(self, fmt, capsys):
        # The prediction is a closed form; it was printed as 0 with an
        # infinite residual (json, csv) or left out (text) once the budget
        # ran out.
        code, out, err = run(
            ["baxter-apply", "--gamma=-1.2j", "--lambda", "0.4", "--y", "0.2",
             "--tol", "1e-12", "--budget", "50", "--format", fmt],
            capsys,
        )
        assert code == 2
        prediction = baxter_eigenvalue(-1.2j, (0.4,), "lie") * baxter_eigenfunction((0.4,), (0.2,), "lie")
        assert cli._f(prediction.real) in out and cli._f(prediction.imag) in out
        assert "inf" not in out.lower()
        if fmt == "json":
            record = json.loads(out)
            value = complex(record["value"]["re"], record["value"]["im"])
            assert record["residual"] == abs(value - prediction)
