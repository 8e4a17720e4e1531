"""Command-line front end.

Verbs: ``eval`` (evaluate chain eigenfunctions), ``baxter-apply`` (apply an
integral operator and compare with its predicted eigenvalue action),
``verify`` (run an identity-verification suite and emit per-case records),
``lfactor`` (local factors, exact or numeric), and ``kernel`` (print kernel
values, optionally swept along one coordinate for plotting).

Every verb prints records, lists of ``(name, value)`` pairs, through one
writer, :func:`_emit`: JSON (one object per record, fixed key order, floats
with 17 significant digits, non-finite floats as ``NaN``/``Infinity``), CSV
(a header and one row per record; a complex or rational value takes two
columns), or text.  A record whose quadrature ran out of ``--budget`` still
prints: ``baxter-apply`` prints its closed-form prediction and the residual
against the partial value, and a ``verify`` case prints NaN sides and limit
with an infinite residual; both exit 2.  ``verify`` hands a suite the options
that its parameters name and rejects a flag that the suite does not read;
``--n`` runs from 1 to 5.  A ``key=value`` config file supplies defaults
that explicit flags override.  Identical configuration yields byte-identical
reports.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import inspect
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .checks import SUITES as _SUITES, CaseResult
from .errors import BudgetExceeded, RankError, TodaWhittakerError
from .gl_whittaker import (
    _step_kernel_rows,
    closed_form_gl2,
    givental_eval,
    givental_recursive_eval,
    mellin_barnes_eval,
)
from .gl_baxter import (
    _baxter_kernel_rows,
    baxter_apply,
    baxter_eigenfunction,
    baxter_eigenfunction_batch,
    baxter_eigenvalue,
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
from .rankin_selberg import _stade_rows

__all__ = ["main", "entry"]

_FLOAT_FMT = "%.17g"
_FORMATS = ("json", "csv", "text")

#: Numeric option -> (conversion, the check a value must pass, what the check
#: asks of it).  ``eval`` and ``baxter-apply`` read ``tol`` and ``budget``;
#: ``verify`` hands a suite the options that its parameters name.
_OPTIONS = {
    "tol": (float, lambda v: v > 0.0, "be positive"),
    "budget": (int, lambda v: v >= 1, "be at least 1"),
    "rank": (int, lambda v: True, ""),
    "n": (int, lambda v: 1 <= v <= 5, "be between 1 and 5"),
    "trials": (int, lambda v: v >= 1, "be at least 1"),
}


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


def _complex_str(v) -> str:
    c = complex(v)
    sign = "-" if c.imag < 0 or (c.imag == 0.0 and math.copysign(1.0, c.imag) < 0) else "+"
    return "%s %s %sj" % (_f(c.real), sign, _f(abs(c.imag)))


def _cell(fmt: str, value) -> str:
    """``value`` as ``fmt`` prints it; its type decides how.  A complex or
    rational value is one JSON object, two CSV cells, or ``a + bj`` text."""
    if isinstance(value, (complex, Fraction)):
        if fmt == "csv":
            return "%s,%s" % (_f(value.real), _f(value.imag))
        if fmt == "text":
            return _complex_str(value)
        if isinstance(value, Fraction):
            return '{"num": "%d", "den": "%d"}' % (value.numerator, value.denominator)
        return '{"re": %s, "im": %s}' % (_json_float(value.real), _json_float(value.imag))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return _json_float(value) if fmt == "json" else _f(value)
    return json.dumps(value) if fmt == "json" else str(value)


def _column(name: str, value) -> str:
    """The CSV header of one field: ``re,im`` for a complex or rational
    ``value`` field, ``name_re,name_im`` for any other."""
    if not isinstance(value, (complex, Fraction)):
        return name
    return "re,im" if name == "value" else "%s_re,%s_im" % (name, name)


def _emit(fmt: str, records: Sequence[Sequence[tuple[str, object]]], text=None) -> None:
    """Print ``records``, each a list of ``(name, value)`` pairs: one JSON
    object per record, or a CSV header and one row per record, or in text
    ``text(record)`` where given and ``name = value`` lines otherwise."""
    if fmt == "csv":
        print(",".join(_column(name, value) for name, value in records[0]))
    for record in records:
        if fmt == "json":
            print("{%s}" % ", ".join('"%s": %s' % (name, _cell(fmt, v)) for name, v in record))
        elif fmt == "csv":
            print(",".join(_cell(fmt, v) for _, v in record))
        elif text is not None:
            print(text(record))
        else:
            for name, value in record:
                print("%s = %s" % (name, _cell(fmt, value)))


def _bare_value(record) -> str:
    """Text of a one-value record: a rational as a fraction, else ``a + bj``."""
    value = record[0][1]
    return str(value) if isinstance(value, Fraction) else _complex_str(value)


def _result_record(res, *middle) -> list[tuple[str, object]]:
    """A quadrature result as a record, with ``middle`` after its error."""
    return [
        ("value", res.value),
        ("abs_error", res.abs_error),
        *middle,
        ("evaluations", res.evaluations),
        ("converged", res.converged),
    ]


def _within_budget(call, *args, **kwargs):
    """``call``'s result, or the partial, unconverged result carried by the
    ``BudgetExceeded`` it raises."""
    try:
        return call(*args, **kwargs)
    except BudgetExceeded as exc:
        if exc.result is None:
            raise
        return exc.result


# ---------------------------------------------------------------------------
# Configuration


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    for raw in lines:
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


def _option(args, name: str, default=None):
    """The numeric option ``name`` (see ``_OPTIONS``), checked, or ``default``."""
    conv, check, requirement = _OPTIONS[name]
    value = _resolve(args, name, conv, None)
    if value is None:
        return default
    if not check(value):
        raise _UsageError(f"--{name} must {requirement}")
    return value


def _format_option(args) -> str:
    fmt = _resolve(args, "format", str, "text")
    if fmt not in _FORMATS:
        raise _UsageError(f"--format must be one of {', '.join(_FORMATS)}")
    return fmt


# ---------------------------------------------------------------------------
# eval


def _closed(form, rel_err: float):
    """A closed form as an ``eval`` method: no evaluations, and an error of
    ``rel_err`` relative to the value."""

    def method(lam, x, tol, max_evals):
        value = complex(form(lam, x))
        return SimpleNamespace(
            value=value, abs_error=rel_err * abs(value), evaluations=0, converged=True
        )

    return method


#: Algebra -> (rank, method -> evaluator ``(lam, x, tol, max_evals)``); the
#: first method is the default.
_EVAL = {
    "gl1": (1, {
        "closed": _closed(lambda lam, x: cmath.exp(1j * lam[0] * x[0]), 2e-16),
        "givental": givental_eval,
        "recursive": givental_recursive_eval,
    }),
    "gl2": (2, {
        "closed": _closed(closed_form_gl2, 1e-11),
        "givental": givental_eval,
        "recursive": givental_recursive_eval,
        "mb": mellin_barnes_eval,
    }),
    "gl3": (3, {
        "recursive": givental_recursive_eval,
        "givental": givental_eval,
        "mb": mellin_barnes_eval,
    }),
    "so3": (1, {
        "closed": _closed(lambda lam, x: closed_form_so3(lam[0], x[0]), 1e-11),
        "givental": so_givental_eval,
        "recursive": so_recursive_eval,
    }),
    "so5": (2, {"recursive": so_recursive_eval, "givental": so_givental_eval}),
}


def cmd_eval(args) -> int:
    fmt = _format_option(args)
    tol = _option(args, "tol", 1e-8)
    budget = _option(args, "budget", _DEFAULT_MAX_EVALS)
    algebra = _resolve(args, "algebra", str, None)
    if algebra is None:
        raise _UsageError("--algebra is required")
    if algebra not in _EVAL:
        raise RankError(
            f"unsupported algebra tag {algebra!r}: expected one of " + ", ".join(sorted(_EVAL))
        )
    lam = _resolve(args, "lam", _parse_clist, None, cfg_key="lambda")
    x = _resolve(args, "x", _parse_rlist, None)
    if lam is None:
        raise _UsageError("--lambda is required")
    if x is None:
        raise _UsageError("--x is required")
    rank, methods = _EVAL[algebra]
    if len(lam) != rank:
        raise _UsageError(f"--lambda must have {rank} entries for {algebra}")
    if len(x) != rank:
        raise _UsageError(f"--x must have {rank} entries for {algebra}")
    method = _resolve(args, "method", str, "auto")
    if method == "auto":
        method = next(iter(methods))
    if method not in methods:
        raise _UsageError(
            f"--method {method!r} not available for {algebra} "
            f"(choose from {', '.join(methods)})"
        )
    res = _within_budget(methods[method], lam, x, tol, max_evals=budget)
    _emit(fmt, [_result_record(res)])
    return 0 if res.converged else 2


# ---------------------------------------------------------------------------
# baxter-apply


def cmd_baxter_apply(args) -> int:
    fmt = _format_option(args)
    tol = _option(args, "tol", 1e-6)
    budget = _option(args, "budget", _DEFAULT_MAX_EVALS)
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

    # The prediction is a closed form, so it stands when the budget runs out.
    if algebra == "so3":
        if len(lam) != 1 or len(y) != 1:
            raise _UsageError("so3 operator application takes scalar --lambda and --y")
        prediction = so_baxter_eigenvalue(gamma, lam) * closed_form_so3(lam[0], y[0])
        res = _within_budget(so_baxter_apply, gamma, lam, y, tol, budget)
    else:
        conv = _resolve(args, "convention", str, "lie")
        if conv not in ("lie", "iwasawa", "iwasawa_pi"):
            raise _UsageError("--convention must be lie, iwasawa, or iwasawa_pi")
        if len(y) != len(lam):
            raise _UsageError("--y and --lambda must have the same length")
        prediction = baxter_eigenvalue(gamma, lam, conv) * baxter_eigenfunction(lam, y, conv)

        def psi(xs: np.ndarray) -> np.ndarray:
            return baxter_eigenfunction_batch(lam, xs, conv)

        res = _within_budget(
            baxter_apply, psi, y, gamma, conv, tol, psi_spectral=lam, max_evals=budget
        )
    prediction = complex(prediction)
    residual = abs(res.value - prediction)
    _emit(fmt, [_result_record(res, ("prediction", prediction), ("residual", residual))])
    return 0 if res.converged else 2


# ---------------------------------------------------------------------------
# verify


def _case_record(r: CaseResult) -> list[tuple[str, object]]:
    def side(v):
        return v if isinstance(v, Fraction) else complex(v)

    return [
        ("case", r.case),
        ("lhs", side(r.lhs)),
        ("rhs", side(r.rhs)),
        ("residual", float(r.residual)),
        ("tol", float(r.tol)),
        ("pass", bool(r.ok)),
    ]


def _table_line(record) -> str:
    r = dict(record)
    return "%-32s %s  residual=%.3e  tol=%.3e" % (
        r["case"], "PASS" if r["pass"] else "FAIL", r["residual"], r["tol"]
    )


def cmd_verify(args) -> int:
    fmt = _format_option(args)
    suite = _resolve(args, "suite", str, None)
    if suite is None:
        raise _UsageError("--suite is required")
    if suite not in _SUITES:
        raise _UsageError(
            f"unknown suite {suite!r}: expected one of " + ", ".join(sorted(_SUITES))
        )
    reads = inspect.signature(_SUITES[suite]).parameters
    for name in _OPTIONS:
        if getattr(args, name) is not None and name not in reads:
            raise _UsageError(f"suite {suite!r} does not read --{name}")
    given = {name: _option(args, name) for name in reads}
    thunks = _SUITES[suite](**{k: v for k, v in given.items() if v is not None})
    if not thunks:
        raise _UsageError("no cases selected (check --rank)")

    results = []
    budget_hit = False
    for name, fn in thunks:
        try:
            results.append(fn())
        except BudgetExceeded:
            # No value to report: NaN sides and limit, infinite residual.
            budget_hit = True
            nan = complex(math.nan, math.nan)
            results.append(CaseResult(name, nan, nan, math.inf, math.nan, False))

    _emit(fmt, [_case_record(r) for r in results], _table_line)
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
        value = archimedean_lfactor(alpha, _parse_complex(s_raw))
    else:
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
            value = local_lfactor_p_exact(sigma, int(s_frac))
        else:
            s_val = _parse_complex(s_raw) if s_frac is None else complex(float(s_frac))
            value = local_lfactor_p(sigma, s_val)
    _emit(fmt, [[("value", value)]], _bare_value)
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

        def evaluate(rows: np.ndarray) -> np.ndarray:
            return _baxter_kernel_rows(y, rows, gamma_t[0], conv)

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

            def evaluate(rows: np.ndarray) -> np.ndarray:
                return _step_kernel_rows(rows, xb, lam[0])

        else:
            if len(lam) != 2:
                raise _UsageError("--lambda must give two parameters for the stade kernel")

            def evaluate(rows: np.ndarray) -> list:
                return _stade_rows(rows, xb, lam)

        base = list(xt)

    if sweep is None:
        _emit(fmt, [[("value", complex(evaluate(np.array([base]))[0]))]], _bare_value)
        return 0

    idx, start, stop, count = sweep
    if not (0 <= idx < len(base)):
        raise _UsageError(f"--sweep index {idx} out of range for a {len(base)}-coordinate kernel")
    ts = np.linspace(start, stop, count)
    rows = np.tile(np.asarray(base, dtype=float), (count, 1))
    rows[:, idx] = ts
    # Every point in one kernel call; each value has the bits of its point alone.
    records = [[("t", float(t)), ("value", complex(v))] for t, v in zip(ts, evaluate(rows))]
    # A sweep is a table for plotting, so text prints it as CSV.
    _emit("csv" if fmt == "text" else fmt, records)
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
    pv.add_argument("--n", help="maximum parameter-multiset size, 1 to 5 (tq-padic)")
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
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError(
                "a command is required (eval, baxter-apply, verify, lfactor, kernel)"
            )
        args._config_dict = _load_config(args.config) if args.config else {}
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"BudgetExceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TodaWhittakerError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
