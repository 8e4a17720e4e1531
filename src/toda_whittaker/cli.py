"""Command-line front end.

Verbs: ``eval`` (evaluate chain eigenfunctions), ``baxter-apply`` (apply an
integral operator and compare with its predicted eigenvalue action),
``verify`` (run an identity-verification suite and emit per-case records),
``lfactor`` (local factors, exact or numeric), and ``kernel`` (print kernel
values, optionally swept along one coordinate for plotting).

Output is text, JSON records (one per line, fixed key order, floats with 17
significant digits), or CSV.  A ``key=value`` config file supplies defaults
that explicit flags override.  Identical configuration yields byte-identical
reports.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .checks import (
    SUITE_OPTIONS as _SUITE_OPTIONS,
    SUITES as _SUITES,
    CaseResult,
    SuiteOptions,
)
from .errors import (
    BudgetExceeded,
    ContourError,
    PoleError,
    RankError,
    ShiftError,
    TodaWhittakerError,
)
from .gl_whittaker import (
    closed_form_gl2,
    givental_eval,
    givental_recursive_eval,
    givental_step_kernel,
    mellin_barnes_eval,
)
from .gl_baxter import (
    baxter_apply,
    baxter_eigenfunction,
    baxter_eigenfunction_batch,
    baxter_eigenvalue,
    baxter_kernel,
)
from .so_toda import (
    closed_form_so3,
    so_baxter_apply,
    so_baxter_eigenvalue,
    so_givental_eval,
    so_recursive_eval,
)
from .local_lfactors import (
    SatakeClass,
    archimedean_lfactor,
    local_lfactor_p,
    local_lfactor_p_exact,
)
from .quadrature import _DEFAULT_MAX_EVALS
from .rankin_selberg import stade_kernel

__all__ = ["main", "entry"]

_FLOAT_FMT = "%.17g"
_FORMATS = ("json", "csv", "text")
#: The options of ``verify`` that only some suites read (see ``SUITE_OPTIONS``).
_VERIFY_OPTIONS = ("tol", "budget", "rank", "n", "trials")


class _UsageError(Exception):
    """Invalid command-line arguments; reported with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Value parsing and formatting


def _parse_complex(text: str) -> complex:
    try:
        return complex(str(text).replace(" ", ""))
    except ValueError:
        raise _UsageError(f"not a number: {text!r}")


def _parse_clist(text: str) -> tuple[complex, ...]:
    toks = [t for t in str(text).split(",") if t.strip() != ""]
    return tuple(_parse_complex(t) for t in toks)


def _parse_rlist(text: str) -> tuple[float, ...]:
    vals = _parse_clist(text)
    for v in vals:
        if v.imag != 0.0:
            raise _UsageError(f"expected real coordinates, got {text!r}")
    return tuple(v.real for v in vals)


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    toks = [t.strip() for t in str(text).split(",") if t.strip() != ""]
    try:
        return tuple(Fraction(t) for t in toks)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational list: {text!r}")


def _f(x) -> str:
    return _FLOAT_FMT % float(x)


def _json_float(x) -> str:
    """A float in a JSON record; nan and infinities as Python's json module
    writes them (NaN, Infinity), so that ``json.loads`` reads them back."""
    x = float(x)
    return _f(x) if math.isfinite(x) else json.dumps(x)


def _json_scalar(v) -> str:
    if isinstance(v, Fraction) or (isinstance(v, int) and not isinstance(v, bool)):
        fr = Fraction(v)
        return '{"num": "%d", "den": "%d"}' % (fr.numerator, fr.denominator)
    c = complex(v)
    return '{"re": %s, "im": %s}' % (_json_float(c.real), _json_float(c.imag))


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _complex_str(v) -> str:
    c = complex(v)
    sign = "-" if c.imag < 0 or (c.imag == 0.0 and math.copysign(1.0, c.imag) < 0) else "+"
    return "%s %s %sj" % (_f(c.real), sign, _f(abs(c.imag)))


def _emit_scalar(fmt: str, value) -> None:
    """Print one complex or exact rational value; a rational prints as a
    fraction in text and as ``num``/``den`` in JSON."""
    if fmt == "json":
        print('{"value": %s}' % _json_scalar(value))
    elif fmt == "csv":
        print("re,im")
        print("%s,%s" % (_f(value.real), _f(value.imag)))
    elif isinstance(value, Fraction):
        print(value)
    else:
        print(_complex_str(value))


def _record_lines(results: Sequence[CaseResult], fmt: str) -> list[str]:
    lines = []
    if fmt == "csv":
        lines.append("case,lhs_re,lhs_im,rhs_re,rhs_im,residual,tol,pass")
        for r in results:
            lc, rc = complex(r.lhs), complex(r.rhs)
            lines.append(
                ",".join(
                    [
                        r.case,
                        _f(lc.real),
                        _f(lc.imag),
                        _f(rc.real),
                        _f(rc.imag),
                        _f(r.residual),
                        _f(r.tol),
                        _bool(r.ok),
                    ]
                )
            )
        return lines
    if fmt == "json":
        for r in results:
            lines.append(
                '{"case": %s, "lhs": %s, "rhs": %s, "residual": %s, '
                '"tol": %s, "pass": %s}'
                % (
                    json.dumps(r.case),
                    _json_scalar(r.lhs),
                    _json_scalar(r.rhs),
                    _json_float(r.residual),
                    _json_float(r.tol),
                    _bool(r.ok),
                )
            )
        return lines
    for r in results:
        lines.append(
            "%-32s %s  residual=%.3e  tol=%.3e"
            % (r.case, "PASS" if r.ok else "FAIL", r.residual, r.tol)
        )
    return lines


# ---------------------------------------------------------------------------
# Configuration


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip().lower().replace("-", "_")] = val.strip().strip('"')
    return cfg


def _resolve(args, attr: str, conv, default, cfg_key: str | None = None):
    """Flag value if given, else config-file value, else the default."""
    val = getattr(args, attr, None)
    if val is None:
        cfg = getattr(args, "_config_dict", {})
        val = cfg.get(cfg_key or attr)
    if val is None:
        return default
    try:
        return conv(val)
    except _UsageError:
        raise
    except (TypeError, ValueError):
        flag = (cfg_key or attr).replace("_", "-")
        raise _UsageError(f"invalid value for --{flag}: {val!r}")


def _format_option(args) -> str:
    fmt = _resolve(args, "format", str, "text")
    if fmt not in _FORMATS:
        raise _UsageError(f"--format must be one of {', '.join(_FORMATS)}")
    return fmt


def _common_options(args) -> tuple[float | None, int, str]:
    """``--tol``, ``--budget`` and ``--format`` of the verbs that integrate."""
    tol = _resolve(args, "tol", float, None)
    if tol is not None and tol <= 0.0:
        raise _UsageError("--tol must be positive")
    budget = _resolve(args, "budget", int, _DEFAULT_MAX_EVALS)
    if budget < 1:
        raise _UsageError("--budget must be at least 1")
    return tol, budget, _format_option(args)


# ---------------------------------------------------------------------------
# eval


_EVAL_RANK = {"gl1": 1, "gl2": 2, "gl3": 3, "so3": 1, "so5": 2}
_EVAL_METHODS = {
    "gl1": ("closed", "givental", "recursive"),
    "gl2": ("closed", "givental", "recursive", "mb"),
    "gl3": ("givental", "recursive", "mb"),
    "so3": ("closed", "givental", "recursive"),
    "so5": ("givental", "recursive"),
}
_EVAL_AUTO = {
    "gl1": "closed",
    "gl2": "closed",
    "gl3": "recursive",
    "so3": "closed",
    "so5": "recursive",
}


def _emit_value(fmt: str, value: complex, abs_error: float, evaluations: int, converged: bool) -> None:
    if fmt == "json":
        print(
            '{"value": %s, "abs_error": %s, "evaluations": %d, "converged": %s}'
            % (_json_scalar(value), _json_float(abs_error), evaluations, _bool(converged))
        )
        return
    if fmt == "csv":
        print("re,im,abs_error,evaluations,converged")
        print(
            ",".join(
                [_f(value.real), _f(value.imag), _f(abs_error), str(evaluations), _bool(converged)]
            )
        )
        return
    print("value = %s" % _complex_str(value))
    print("abs_error = %s" % _f(abs_error))
    print("evaluations = %d" % evaluations)
    print("converged = %s" % _bool(converged))


def cmd_eval(args) -> int:
    tol, budget, fmt = _common_options(args)
    tol = tol if tol is not None else 1e-8
    algebra = _resolve(args, "algebra", str, None)
    if algebra is None:
        raise _UsageError("--algebra is required")
    if algebra not in _EVAL_RANK:
        raise RankError(
            f"unsupported algebra tag {algebra!r}: expected one of "
            + ", ".join(sorted(_EVAL_RANK))
        )
    lam = _resolve(args, "lam", _parse_clist, None, cfg_key="lambda")
    x = _resolve(args, "x", _parse_rlist, None)
    if lam is None:
        raise _UsageError("--lambda is required")
    if x is None:
        raise _UsageError("--x is required")
    rank = _EVAL_RANK[algebra]
    if len(lam) != rank:
        raise _UsageError(f"--lambda must have {rank} entries for {algebra}")
    if len(x) != rank:
        raise _UsageError(f"--x must have {rank} entries for {algebra}")
    method = _resolve(args, "method", str, "auto")
    if method == "auto":
        method = _EVAL_AUTO[algebra]
    if method not in _EVAL_METHODS[algebra]:
        raise _UsageError(
            f"--method {method!r} not available for {algebra} "
            f"(choose from {', '.join(_EVAL_METHODS[algebra])})"
        )

    exit_code = 0
    if method == "closed":
        if algebra == "gl1":
            value = cmath.exp(1j * lam[0] * x[0])
            err = 2e-16 * abs(value)
        elif algebra == "gl2":
            value = closed_form_gl2(lam, x)
            err = 1e-11 * abs(value)
        else:  # so3
            value = closed_form_so3(lam[0], x[0])
            err = 1e-11 * abs(value)
        evals, converged = 0, True
    else:
        so_chain = algebra in ("so3", "so5")
        try:
            if method == "givental":
                res = (
                    so_givental_eval(lam, x, tol, budget)
                    if so_chain
                    else givental_eval(lam, x, tol, budget)
                )
            elif method == "recursive":
                res = (
                    so_recursive_eval(lam, x, tol, budget)
                    if so_chain
                    else givental_recursive_eval(lam, x, tol, budget)
                )
            else:
                res = mellin_barnes_eval(lam, x, tol, max_evals=budget)
        except BudgetExceeded as exc:
            res = exc.result
            if res is None:
                raise
        value, err, evals, converged = res.value, res.abs_error, res.evaluations, res.converged
        if not converged:
            exit_code = 2
    _emit_value(fmt, complex(value), err, evals, converged)
    return exit_code


# ---------------------------------------------------------------------------
# baxter-apply


def cmd_baxter_apply(args) -> int:
    tol, budget, fmt = _common_options(args)
    tol = tol if tol is not None else 1e-6
    algebra = _resolve(args, "algebra", str, "gl")
    if algebra not in ("gl", "so3"):
        raise RankError(f"unsupported algebra tag {algebra!r}: expected gl or so3")
    gamma_t = _resolve(args, "gamma", _parse_clist, None)
    lam = _resolve(args, "lam", _parse_clist, None, cfg_key="lambda")
    y = _resolve(args, "y", _parse_rlist, None)
    if gamma_t is None or len(gamma_t) != 1:
        raise _UsageError("--gamma must give exactly one operator parameter")
    if lam is None:
        raise _UsageError("--lambda is required")
    if y is None:
        raise _UsageError("--y is required")
    gamma = gamma_t[0]

    exit_code = 0
    try:
        if algebra == "so3":
            if len(lam) != 1 or len(y) != 1:
                raise _UsageError("so3 operator application takes scalar --lambda and --y")
            res = so_baxter_apply(gamma, lam, y, tol, budget)
            base = closed_form_so3(lam[0], y[0])
            prediction = so_baxter_eigenvalue(gamma, lam) * base
        else:
            conv = _resolve(args, "convention", str, "lie")
            if conv not in ("lie", "iwasawa", "iwasawa_pi"):
                raise _UsageError("--convention must be lie, iwasawa, or iwasawa_pi")
            if len(y) != len(lam):
                raise _UsageError("--y and --lambda must have the same length")

            def psi(xs: np.ndarray) -> np.ndarray:
                return baxter_eigenfunction_batch(lam, xs, conv)

            res = baxter_apply(psi, y, gamma, conv, tol, psi_spectral=lam, max_evals=budget)
            prediction = baxter_eigenvalue(gamma, lam, conv) * baxter_eigenfunction(lam, y, conv)
    except BudgetExceeded as exc:
        if exc.result is None:
            raise
        res = exc.result
        prediction = None
        exit_code = 2
    if not res.converged:
        exit_code = 2

    residual = abs(res.value - prediction) if prediction is not None else float("inf")
    if fmt == "json":
        print(
            '{"value": %s, "abs_error": %s, "prediction": %s, "residual": %s, '
            '"evaluations": %d, "converged": %s}'
            % (
                _json_scalar(res.value),
                _json_float(res.abs_error),
                _json_scalar(prediction if prediction is not None else 0.0),
                _json_float(residual),
                res.evaluations,
                _bool(res.converged),
            )
        )
    elif fmt == "csv":
        print("re,im,abs_error,prediction_re,prediction_im,residual,evaluations,converged")
        pc = complex(prediction) if prediction is not None else 0j
        print(
            ",".join(
                [
                    _f(res.value.real),
                    _f(res.value.imag),
                    _f(res.abs_error),
                    _f(pc.real),
                    _f(pc.imag),
                    _f(residual),
                    str(res.evaluations),
                    _bool(res.converged),
                ]
            )
        )
    else:
        print("value = %s" % _complex_str(res.value))
        print("abs_error = %s" % _f(res.abs_error))
        if prediction is not None:
            print("prediction = %s" % _complex_str(prediction))
            print("residual = %s" % _f(residual))
        print("evaluations = %d" % res.evaluations)
        print("converged = %s" % _bool(res.converged))
    return exit_code


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    tol, budget, fmt = _common_options(args)
    suite = _resolve(args, "suite", str, None)
    if suite is None:
        raise _UsageError("--suite is required")
    if suite not in _SUITES:
        raise _UsageError(
            f"unknown suite {suite!r}: expected one of " + ", ".join(sorted(_SUITES))
        )
    reads = _SUITE_OPTIONS.get(suite, ())
    for opt in _VERIFY_OPTIONS:
        if getattr(args, opt) is not None and opt not in reads:
            raise _UsageError(f"suite {suite!r} does not read --{opt}")
    rank = _resolve(args, "rank", int, None)
    n = _resolve(args, "n", int, SuiteOptions.n)
    trials = _resolve(args, "trials", int, SuiteOptions.trials)
    if trials < 1:
        raise _UsageError("--trials must be at least 1")
    opts = SuiteOptions(tol=tol, budget=budget, rank=rank, n=n, trials=trials)
    thunks = _SUITES[suite](opts)
    if not thunks:
        raise _UsageError("no cases selected (check --rank)")

    results = []
    budget_hit = False
    for name, fn in thunks:
        try:
            results.append(fn())
        except BudgetExceeded:
            budget_hit = True
            results.append(CaseResult(name, 0.0, 0.0, 1e300, 0.0, False))

    for line in _record_lines(results, fmt):
        print(line)
    passed = sum(1 for r in results if r.ok)
    print("passed %d/%d cases" % (passed, len(results)), file=sys.stderr)
    if budget_hit:
        return 2
    return 0 if passed == len(results) else 3


# ---------------------------------------------------------------------------
# lfactor


def cmd_lfactor(args) -> int:
    fmt = _format_option(args)
    place = _resolve(args, "place", str, None)
    if place is None:
        raise _UsageError("--place is required (inf or a prime number)")
    s_raw = _resolve(args, "s", str, None)
    if s_raw is None:
        raise _UsageError("--s is required")

    if place == "inf":
        alpha = _resolve(args, "alpha", _parse_clist, None)
        if alpha is None:
            raise _UsageError("--alpha is required at the archimedean place")
        _emit_scalar(fmt, archimedean_lfactor(alpha, _parse_complex(s_raw)))
        return 0

    try:
        p = int(place)
    except ValueError:
        raise _UsageError(f"--place must be 'inf' or a prime integer, got {place!r}")
    satake = _resolve(args, "satake", _parse_fraction_list, None)
    if satake is None:
        raise _UsageError("--satake is required at a finite place")
    sigma = SatakeClass(satake, p)

    s_frac: Fraction | None
    try:
        s_frac = Fraction(s_raw)
    except (ValueError, ZeroDivisionError):
        s_frac = None
    if s_frac is not None and s_frac.denominator == 1:
        _emit_scalar(fmt, local_lfactor_p_exact(sigma, int(s_frac)))
        return 0
    s_val = _parse_complex(s_raw) if s_frac is None else complex(float(s_frac))
    _emit_scalar(fmt, local_lfactor_p(sigma, s_val))
    return 0


# ---------------------------------------------------------------------------
# kernel


def _parse_sweep(text: str) -> tuple[int, float, float, int]:
    parts = str(text).split(":")
    if len(parts) != 4:
        raise _UsageError("--sweep must be index:start:stop:count")
    try:
        idx, start, stop, count = int(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise _UsageError("--sweep must be index:start:stop:count")
    if count < 2:
        raise _UsageError("--sweep count must be at least 2")
    return idx, start, stop, count


def cmd_kernel(args) -> int:
    fmt = _format_option(args)
    kind = _resolve(args, "kind", str, None)
    if kind is None:
        raise _UsageError("--kind is required (step, baxter, or stade)")
    if kind not in ("step", "baxter", "stade"):
        raise _UsageError(f"--kind must be step, baxter, or stade, got {kind!r}")
    sweep = _resolve(args, "sweep", _parse_sweep, None)

    if kind == "baxter":
        gamma_t = _resolve(args, "gamma", _parse_clist, None)
        y = _resolve(args, "y", _parse_rlist, None)
        x = _resolve(args, "x", _parse_rlist, None)
        conv = _resolve(args, "convention", str, "lie")
        if gamma_t is None or len(gamma_t) != 1:
            raise _UsageError("--gamma must give exactly one operator parameter")
        if y is None or x is None:
            raise _UsageError("--y and --x are required for the baxter kernel")

        def evaluate(pt: Sequence[float]) -> complex:
            return baxter_kernel(y, pt, gamma_t[0], conv)

        base = list(x)
    else:
        lam = _resolve(args, "lam", _parse_clist, None, cfg_key="lambda")
        xt = _resolve(args, "x_top", _parse_rlist, None, cfg_key="x_top")
        xb = _resolve(args, "x_bot", _parse_rlist, (), cfg_key="x_bot")
        if lam is None or xt is None:
            raise _UsageError("--lambda and --x-top are required for this kernel")
        if kind == "step":
            if len(lam) != 1:
                raise _UsageError("--lambda must be a single parameter for the step kernel")

            def evaluate(pt: Sequence[float]) -> complex:
                return givental_step_kernel(pt, xb, lam[0])

        else:
            if len(lam) != 2:
                raise _UsageError("--lambda must give two parameters for the stade kernel")

            def evaluate(pt: Sequence[float]) -> complex:
                return stade_kernel(pt, xb, lam)

        base = list(xt)

    if sweep is None:
        _emit_scalar(fmt, evaluate(base))
        return 0

    idx, start, stop, count = sweep
    if not (0 <= idx < len(base)):
        raise _UsageError(f"--sweep index {idx} out of range for a {len(base)}-coordinate kernel")
    rows = []
    for t in np.linspace(start, stop, count):
        pt = list(base)
        pt[idx] = float(t)
        rows.append((float(t), evaluate(pt)))
    if fmt == "json":
        for t, v in rows:
            print('{"t": %s, "value": %s}' % (_json_float(t), _json_scalar(v)))
    else:
        print("t,re,im")
        for t, v in rows:
            print("%s,%s,%s" % (_f(t), _f(v.real), _f(v.imag)))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry points


def _add_accuracy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", help="absolute accuracy target")
    p.add_argument("--budget", help="maximum quadrature evaluations")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", help="output format: json, csv, or text")
    p.add_argument("--config", help="key=value config file; flags override it")


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser.  It holds no state between calls, so it is
    built once and reused: building it costs more than most commands."""
    parser = _Parser(
        prog="toda-whittaker",
        description="Evaluate chain eigenfunctions, apply their integral operators, "
        "verify Gamma-product identities, and compute local factors.",
    )
    sub = parser.add_subparsers(dest="cmd")

    pe = sub.add_parser("eval", help="evaluate an eigenfunction")
    pe.add_argument("--algebra", help="gl1, gl2, gl3, so3, or so5")
    pe.add_argument("--lambda", dest="lam", help="comma-separated spectral parameters")
    pe.add_argument("--x", help="comma-separated evaluation point")
    pe.add_argument("--method", help="auto, closed, givental, recursive, or mb")
    _add_accuracy(pe)
    _add_common(pe)
    pe.set_defaults(func=cmd_eval)

    pb = sub.add_parser("baxter-apply", help="apply an integral operator")
    pb.add_argument("--algebra", help="gl (default) or so3")
    pb.add_argument("--gamma", help="operator spectral parameter")
    pb.add_argument("--lambda", dest="lam", help="eigenfunction spectral parameters")
    pb.add_argument("--y", help="evaluation point")
    pb.add_argument("--convention", help="lie (default), iwasawa, or iwasawa_pi")
    _add_accuracy(pb)
    _add_common(pb)
    pb.set_defaults(func=cmd_baxter_apply)

    pv = sub.add_parser("verify", help="run an identity-verification suite")
    pv.add_argument("--suite", help="suite name; one of " + ", ".join(sorted(_SUITES)))
    pv.add_argument("--rank", help="restrict suite cases to this rank (baxter-eigen)")
    pv.add_argument("--n", help="maximum parameter-multiset size (tq-padic)")
    pv.add_argument("--trials", help="number of random trials (tq-padic)")
    _add_accuracy(pv)
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("lfactor", help="compute a local factor")
    pl.add_argument("--place", help="'inf' or a prime integer")
    pl.add_argument("--alpha", help="archimedean parameters (comma-separated)")
    pl.add_argument("--satake", help="finite-place rational parameters (comma-separated)")
    pl.add_argument("--s", help="the point of evaluation")
    _add_common(pl)
    pl.set_defaults(func=cmd_lfactor)

    pk = sub.add_parser("kernel", help="print kernel values (optionally swept)")
    pk.add_argument("--kind", help="step, baxter, or stade")
    pk.add_argument("--gamma", help="operator parameter (baxter kernel)")
    pk.add_argument("--y", help="output point (baxter kernel)")
    pk.add_argument("--x", help="input point (baxter kernel)")
    pk.add_argument("--convention", help="kernel convention (baxter kernel)")
    pk.add_argument("--lambda", dest="lam", help="spectral parameters (step/stade)")
    pk.add_argument("--x-top", dest="x_top", help="top coordinates (step/stade)")
    pk.add_argument("--x-bot", dest="x_bot", help="bottom coordinates (step/stade)")
    pk.add_argument("--sweep", help="index:start:stop:count sweep of one coordinate")
    _add_common(pk)
    pk.set_defaults(func=cmd_kernel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        print(
            "error: a command is required (eval, baxter-apply, verify, lfactor, kernel)",
            file=sys.stderr,
        )
        return 1
    config_path = getattr(args, "config", None)
    try:
        args._config_dict = _load_config(config_path) if config_path else {}
    except OSError as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"BudgetExceeded: {exc}", file=sys.stderr)
        return 2
    except (PoleError, RankError, ShiftError, ContourError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TodaWhittakerError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
