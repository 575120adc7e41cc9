"""Command-line front end: eval, transform, verify, report.

Exit codes: 0 success, 2 input/domain/convergence error or a result out of
float range (also argparse usage errors), 3 accuracy failure (quadrature
could not certify the target tolerance, or a verify run produced failing
records).

An optional flat key=value config file supplies defaults for any flag of
the invoked subcommand; explicit flags win.  Bare output filenames are
placed in $FRACBESSEL_REPORT_DIR when that variable is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import Optional, Sequence

from .closed_forms import TheoremParams, evaluate_closed_form, theorem21_spec, theorem24_spec
from .errors import AccuracyError, ConvergenceError, DomainError
from .gammafns import k_gamma
from .harness import (
    THEOREM_IDS,
    SuiteConfig,
    _csv_table,
    _jsonable_float,
    render_csv,
    render_text,
    report_from_json,
    run_suite,
)
from .integrands import kbessel_integrand, monomial
from .operators import (
    Family,
    SaigoParams,
    saigo_left,
    saigo_left_monomial,
    saigo_right,
    saigo_right_monomial,
)
from .series import (
    HypergeomSpec,
    KBesselParams,
    SeriesValue,
    WrightSpec,
    eval_k_bessel,
    eval_pfq,
    eval_wright,
)

REPORT_DIR_ENV = "FRACBESSEL_REPORT_DIR"

_FAMILIES = {
    "saigo": Family.SAIGO,
    "rl": Family.RIEMANN_LIOUVILLE,
    "ek": Family.ERDELYI_KOBER,
}

def _tol_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (0 < value <= 1e-2):
        raise argparse.ArgumentTypeError(
            f"tol must lie in (0, 1e-2], got {value!r}"
        )
    return value


def _float_list(text: str) -> tuple:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    try:
        return tuple(float(piece) for piece in items)
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc


def _wright_pairs(text: str) -> tuple:
    pairs = []
    for piece in (s.strip() for s in text.split(",") if s.strip()):
        if ":" not in piece:
            raise DomainError(
                f"Fox-Wright pairs use coeff:step syntax, got {piece!r}"
            )
        coeff_s, step_s = piece.split(":", 1)
        try:
            pairs.append((float(coeff_s), float(step_s)))
        except ValueError as exc:
            raise DomainError(f"bad Fox-Wright pair {piece!r}") from exc
    return tuple(pairs)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent notation,
    such as -1e-3, as an argument: argparse's own pattern takes -5 and -0.5
    for numbers but -1e-3 for an option.  Its subparsers are _Parsers too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracbessel",
        description=(
            "Generalized fractional transforms of the k-Bessel function: "
            "series evaluation, quadrature, and identity verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a series (kbessel, wright, pfq, gamma_k)")
    p_eval.add_argument("kind", choices=("kbessel", "wright", "pfq", "gamma_k"))
    p_eval.add_argument("--v", type=float, default=0.0, help="k-Bessel order v (v > -1)")
    p_eval.add_argument("--c", type=float, default=1.0, help="k-Bessel coefficient c")
    p_eval.add_argument("--k", type=float, default=1.0, help="deformation parameter k > 0")
    p_eval.add_argument("--z", type=float, required=True, help="evaluation argument")
    p_eval.add_argument("--upper", default=None, help='upper parameters: "a,b" (pfq) or "a:step,b:step" (wright)')
    p_eval.add_argument("--lower", default=None, help='lower parameters, same syntax; "" for none')
    p_eval.add_argument("--tol", type=_tol_arg, default=1e-12)
    _output_flags(p_eval)

    p_tr = sub.add_parser("transform", help="apply a fractional transform by quadrature")
    p_tr.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p_tr.add_argument("--side", choices=("left", "right"), required=True)
    p_tr.add_argument("--alpha", type=float, required=True)
    p_tr.add_argument("--beta", type=float, default=None, help="required for --family saigo")
    p_tr.add_argument("--eta", type=float, default=0.0)
    p_tr.add_argument("--x", type=float, required=True, help="evaluation point x > 0")
    p_tr.add_argument("--monomial", type=float, default=None, metavar="LAM",
                      help="integrand t^(LAM-1)")
    p_tr.add_argument("--kbessel", type=float, nargs=3, default=None, metavar=("V", "C", "K"),
                      help="integrand W^k_{v,c}(t) on --side left, W^k_{v,c}(1/t) on --side right")
    p_tr.add_argument("--tol", type=_tol_arg, default=1e-9)
    _output_flags(p_tr)

    p_ver = sub.add_parser("verify", help="run the randomized identity verification suite")
    p_ver.add_argument("--theorems", default="all",
                       help=f'comma-separated ids or "all"; known: {", ".join(THEOREM_IDS)}')
    p_ver.add_argument("--n", type=int, default=5, help="draws per theorem")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=_tol_arg, default=1e-5)
    p_ver.add_argument("--x-points", default="0.5,1,2", help="comma-separated evaluation points")
    p_ver.add_argument("--margin", type=float, default=0.05,
                       help="constraint margin for parameter sampling")
    _output_flags(p_ver)

    p_rep = sub.add_parser("report", help="re-render a saved JSON verification report")
    p_rep.add_argument("input", help="path to a JSON report produced by verify")
    _output_flags(p_rep)

    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("json", "text", "csv"), default="text")
    p.add_argument("--out", default=None, help="output file (bare names land in $" + REPORT_DIR_ENV + ")")
    p.add_argument("--config", default=None, help="flat key=value file of flag defaults")


def _load_config_args(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from exc
    args: list = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise DomainError(f"{path}:{lineno}: empty key")
        args.append("--" + key.replace("_", "-"))
        args.extend(value.split() or [""])
    return args


def _resolve_path(name: str) -> str:
    report_dir = os.environ.get(REPORT_DIR_ENV)
    if report_dir and not os.path.dirname(name):
        return os.path.join(report_dir, name)
    return name


def _resolve_input(name: str) -> str:
    if os.path.exists(name):
        return name
    return _resolve_path(name)


def _emit(content: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        with open(_resolve_path(out), "w", encoding="utf-8") as fh:
            fh.write(content)


def _emit_payload(payload: dict, output: str, out: Optional[str]) -> None:
    if output == "json":
        strict = {k: _jsonable_float(v) if isinstance(v, float) else v for k, v in payload.items()}
        _emit(json.dumps(strict, sort_keys=True, indent=2) + "\n", out)
    elif output == "csv":
        _emit(_csv_table([payload], list(payload)), out)
    else:
        width = max(len(k) for k in payload)
        _emit("".join(f"{k:<{width}}  {v}\n" for k, v in payload.items()), out)


def cmd_eval(args) -> int:
    if args.kind == "kbessel":
        sv = eval_k_bessel(KBesselParams(v=args.v, c=args.c, k=args.k), args.z, args.tol)
        extra = {"v": args.v, "c": args.c, "k": args.k, "z": args.z}
    elif args.kind == "wright":
        if args.upper is None or args.lower is None:
            raise DomainError("eval wright needs --upper and --lower (coeff:step pairs)")
        spec = WrightSpec(upper=_wright_pairs(args.upper), lower=_wright_pairs(args.lower))
        sv = eval_wright(spec, args.z, args.tol)
        extra = {"upper": args.upper, "lower": args.lower, "z": args.z}
    elif args.kind == "pfq":
        if args.upper is None or args.lower is None:
            raise DomainError("eval pfq needs --upper and --lower (comma-separated numbers)")
        spec = HypergeomSpec(upper=_float_list(args.upper), lower=_float_list(args.lower))
        sv = eval_pfq(spec, args.z, args.tol)
        extra = {"upper": args.upper, "lower": args.lower, "z": args.z}
    else:
        value = k_gamma(args.z, args.k)
        sv = SeriesValue(value=value, terms_used=1, trunc_estimate=0.0, converged=True)
        extra = {"z": args.z, "k": args.k}
    payload = {"command": "eval", "kind": args.kind, **extra, **dataclasses.asdict(sv)}
    _emit_payload(payload, args.output, args.out)
    return 0 if sv.converged else 3


def _transform_closed_form(args, sp: SaigoParams) -> float:
    """Closed-form companion value: the exact monomial image, or the
    Fox-Wright image of the k-Bessel integrand for the operator's side, at
    the family's beta."""
    if args.monomial is not None:
        image = saigo_left_monomial if args.side == "left" else saigo_right_monomial
        coeff, exponent = image(sp, args.monomial)
        return coeff * args.x**exponent
    v, c, k = args.kbessel
    p = TheoremParams(alpha=sp.alpha, beta=sp.beta, eta=sp.eta, lam=k, v=v, c=c, k=k)
    builder = theorem21_spec if args.side == "left" else theorem24_spec
    return evaluate_closed_form(builder(p), args.x, args.tol / 100.0).value


def cmd_transform(args) -> int:
    if (args.monomial is None) == (args.kbessel is None):
        raise DomainError("transform needs exactly one of --monomial or --kbessel")
    sp = SaigoParams(alpha=args.alpha, beta=args.beta, eta=args.eta, family=_FAMILIES[args.family])

    if args.monomial is not None:
        f = monomial(args.monomial)
    else:
        # each side has one closed-form image: of W(t) on the left, and of
        # W(1/t) on the right, whose argument stays bounded as t -> inf
        v, c, k = args.kbessel
        f = kbessel_integrand(
            KBesselParams(v=v, c=c, k=k), lam=k,
            reciprocal=args.side == "right", series_tol=args.tol / 100.0,
        )

    operator = saigo_left if args.side == "left" else saigo_right
    qr = operator(f, sp, args.x, tol=args.tol)

    closed_value = None
    note = ""
    try:
        closed_value = _transform_closed_form(args, sp)
    except (DomainError, ConvergenceError) as exc:
        note = f"closed form not applicable: {exc}"

    payload = {
        "command": "transform",
        "family": args.family,
        "side": args.side,
        "alpha": sp.alpha,
        "beta": sp.beta,
        "eta": sp.eta,
        "x": args.x,
        "value": qr.value,
        "error_estimate": qr.error_estimate,
        "evaluations": qr.evaluations,
        "closed_form": closed_value,
        "rel_difference": (
            abs(qr.value - closed_value)
            / max(abs(qr.value), abs(closed_value), 1e-300)
            if closed_value is not None
            else None
        ),
        "note": note,
    }
    _emit_payload(payload, args.output, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.theorems.strip().lower() == "all":
        theorems = THEOREM_IDS
    else:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    config = SuiteConfig(
        theorems=theorems,
        n_draws=args.n,
        seed=args.seed,
        tol=args.tol,
        x_points=_float_list(args.x_points),
        margin=args.margin,
    )
    report = run_suite(config)
    _emit(_render_report(report, args.output), args.out)
    return 0 if report.all_passed else 3


def _render_report(report, output: str) -> str:
    if output == "json":
        return report.to_json()
    if output == "csv":
        return render_csv(report)
    return render_text(report)


def cmd_report(args) -> int:
    path = _resolve_input(args.input)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read report {path!r}: {exc}") from exc
    try:
        report = report_from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed report {path!r}: {exc}") from exc
    _emit(_render_report(report, args.output), args.out)
    return 0


_DISPATCH = {
    "eval": cmd_eval,
    "transform": cmd_transform,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            merged = [argv[0]] + _load_config_args(args.config) + argv[1:]
            args = parser.parse_args(merged)
        return _DISPATCH[args.command](args)
    except AccuracyError as exc:
        print(f"fracbessel: accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConvergenceError) as exc:
        print(f"fracbessel: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"fracbessel: result out of floating-point range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
