"""Command-line interface.

Subcommands:

* ``capacity``    -- one channel, one capacity, JSON on stdout
* ``sweep-modes`` -- capacities versus mode number, CSV "N,method,alloc,bits"
* ``random``      -- random-ensemble capacities (analytic or Monte Carlo),
                     CSV "N,K,M,sigma2,method,mode,bits,stderr"
* ``density``     -- analytic eigenvalue density, CSV "lambda,p_lambda"

Every command is deterministic given its flags and seed.  Flags can also be
supplied through ``--config FILE`` (a JSON object whose keys are the long
flag names of the subcommand with dashes replaced by underscores; any other
key is an input error); explicit flags win.  Exit codes: 0 ok, 2 input
error, 3 unphysical parameters or a non-finite result, 4 ensemble-parameter
error, 64 usage.
"""

import argparse
import ast
import functools
import json
import math
import sys

import numpy as np

from . import active, capacity, channels, ensembles
from .errors import (
    DimensionMismatch,
    InsufficientEnvironment,
    InvalidChannel,
    NegativeArgument,
    NegativeEntropyArgument,
    NoFeasibleWaterlevel,
    NonPositiveDefinite,
    NonThermalNoise,
    NotBlockForm,
    NotHermitian,
    SingularNoise,
    UnphysicalOutput,
    ZeroNoiseClassical,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNPHYSICAL = 3
EXIT_ENSEMBLE = 4
EXIT_USAGE = 64

_INPUT_ERRORS = (InvalidChannel, DimensionMismatch, NotBlockForm,
                 NonThermalNoise, OSError, ValueError)
_UNPHYSICAL_ERRORS = (UnphysicalOutput, NegativeEntropyArgument,
                      NonPositiveDefinite, NegativeArgument, NotHermitian,
                      ZeroNoiseClassical, NoFeasibleWaterlevel, SingularNoise)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _fmt(x):
    return "%.12g" % x


def _finite_result(x):
    """x, refusing a NaN or infinite result as unphysical (exit 3)."""
    if not math.isfinite(x):
        raise UnphysicalOutput("result is not finite: %s" % x)
    return x


def _finite(value, flag):
    """float(value), refusing NaN and +-inf as input errors."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("%s must be a finite number, got %r" % (flag, value))
    return x


_RULE_OPS = {ast.Add, ast.Sub, ast.Mult, ast.Div}


@functools.lru_cache(maxsize=64)
def _rule_tree(expr):
    """The parsed body of a rule; each distinct rule text is parsed once."""
    try:
        return ast.parse(expr, mode="eval").body
    except SyntaxError as exc:
        raise ValueError("cannot parse rule %r: %s" % (expr, exc)) from None


def _eval_node(node, names, expr):
    """Value of a rule's syntax tree; `names` maps to floats or float arrays.

    The operations are float64 + - * / in the tree's order, so an array
    argument gives, elementwise, the same bits as the scalar evaluations.
    """
    if isinstance(node, ast.BinOp) and type(node.op) in _RULE_OPS:
        left = _eval_node(node.left, names, expr)
        right = _eval_node(node.right, names, expr)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if np.any(right == 0):
            raise ValueError("division by zero in rule %r" % expr)
        return left / right
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return (_eval_node(node.operand, names, expr)
                * (-1.0 if isinstance(node.op, ast.USub) else 1.0))
    if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    raise ValueError("unsupported token in rule %r" % expr)


def eval_rule(expr, **names):
    """Evaluate a tiny arithmetic expression over the given variable names.

    Supports +, -, *, / and numeric constants; just enough to encode
    per-mode transmission rules like "0.2+0.7*k/N".  A division by zero or a
    non-finite result raises ValueError.
    """
    values = {name: float(value) for name, value in names.items()}
    value = _eval_node(_rule_tree(expr), values, expr)
    if not math.isfinite(value):
        raise ValueError("rule %r is not finite: %r" % (expr, value))
    return value


def _rule_values(expr, N):
    """[eval_rule(expr, k=k, N=N) for k in 1..N], evaluated as one array.

    A rule without k gives the same value for every mode.  On an error, the
    scalar loop reruns, so the message names the first k that fails, exactly
    as the loop would.
    """
    modes = np.arange(1.0, N + 1)
    try:
        with np.errstate(all="ignore"):
            values = _eval_node(_rule_tree(expr), {"k": modes, "N": float(N)},
                                expr)
        values = np.broadcast_to(values, modes.shape)
        if np.isfinite(values).all():
            return values.tolist()
    except ValueError:
        pass
    return [eval_rule(expr, k=k, N=N) for k in range(1, N + 1)]


def _parse_range(text):
    """An int or an inclusive 'a..b' range, as a list of ints."""
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError("empty range %r" % text)
        return list(range(lo, hi + 1))
    return [int(text)]


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _apply_config(args, defaults):
    """Fill unset (None) options from --config JSON, then from defaults."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        # the subcommand's option destinations, not argparse's bookkeeping
        options = set(vars(args)) - {"command", "func", "defaults"}
        for key in cfg:
            if key not in options:
                raise ValueError("unknown config key %r for %s"
                                 % (key, args.command))
    for key, value in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def _require(parser, args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            parser.error("the following argument is required: --%s"
                         % name.replace("_", "-"))


def _channel_params(args, parser):
    """Resolve the (lambda_k, n, xi) list and the input-mode count."""
    noise_n = _finite(args.n, "--n")
    xi = _finite(args.xi, "--xi")
    if args.lambdas is not None:
        lams = [_finite(tok, "--lambdas") for tok in str(args.lambdas).split(",")
                if tok.strip()]
        if not lams:
            raise ValueError("--lambdas must list at least one value")
    elif args.lambdas_rule is not None:
        _require(parser, args, "N")
        lams = _rule_values(str(args.lambdas_rule), int(args.N))
    else:
        parser.error("one of --channel, --lambdas or --lambdas-rule is required")
    if min(lams) < 0:
        raise ValueError("transmissions must be nonnegative")
    return [(lam, noise_n, xi) for lam in lams], len(lams)


def cmd_capacity(args, parser):
    _require(parser, args, "power")
    P = _finite(args.power, "--power")
    if args.channel is not None:
        with open(args.channel) as fh:
            ch = channels.channel_from_json(fh.read())
        if not channels.validate_channel(ch):
            raise UnphysicalOutput(
                "channel file violates the noise bound Y - (i/2)Sigma >= 0")
        res = capacity._channel_capacity(ch, P, args.method, args.alloc)
        # an unset --alloc water-fills a diagonalizable channel; any other
        # channel takes the general path, which has no per-mode allocation
        alloc = args.alloc or ("uniform" if res.allocation is None
                               else "waterfill")
    else:
        alloc = args.alloc or "waterfill"
        params, n_signal = _channel_params(args, parser)
        res = capacity.diagonal_capacity(params, P, args.method, alloc,
                                         n_signal)
    per_mode = [] if res.allocation is None else res.allocation.per_mode
    mu = res.waterlevel
    report = {
        "bits": _finite_result(res.bits),
        "method": args.method,
        "alloc": alloc,
        "allocation": [float(p) for p in per_mode],
        # JSON has no infinity: a water level that is infinite (the holevo
        # threshold of a noise-free mode at zero power) is reported as null
        "mu": mu if mu is None or math.isfinite(mu) else None,
        "power": P,
    }
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", args.output)
    return EXIT_OK


def cmd_sweep_modes(args, parser):
    _require(parser, args, "N_range", "power")
    n_values = _parse_range(args.N_range)
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    allocs = [tok.strip() for tok in args.allocs.split(",") if tok.strip()]
    for method in methods:
        if method not in ("holevo", "het", "hom", "classical"):
            raise ValueError("unknown method %r" % method)
    for alloc in allocs:
        if alloc not in ("uniform", "waterfill"):
            raise ValueError("unknown allocation %r" % alloc)
    P = _finite(args.power, "--power")
    noise_n = _finite(args.n, "--n")
    xi = _finite(args.xi, "--xi")
    # a --config number is a rule too; a JSON boolean, list or object
    # becomes text that no rule token matches
    rule = str(args.lambdas_rule)
    lines = ["N,method,alloc,bits"]
    for N in n_values:
        lams = _rule_values(rule, N)
        if min(lams) < 0:
            raise ValueError("transmissions must be nonnegative")
        params = [(lam, noise_n, xi) for lam in lams]
        for method in methods:
            for alloc in allocs:
                bits = capacity.diagonal_capacity(params, P, method, alloc,
                                                  N).bits
                lines.append("%d,%s,%s,%s"
                             % (N, method, alloc, _fmt(_finite_result(bits))))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_random(args, parser):
    _require(parser, args, "N", "power")
    if args.mode == "mc" and args.seed is None:
        parser.error("--seed is required in mc mode")
    sigma2 = _finite(args.sigma2, "--sigma2")
    if args.mode == "analytic" and sigma2 != 0:
        parser.error("analytic mode requires sigma2 = 0")
    n_values = _parse_range(args.N)
    if args.dump_samples and (len(n_values) != 1 or args.mode != "mc"):
        parser.error("--dump-samples needs mc mode and a single configuration")
    P = _finite(args.power, "--power")
    noise = channels.NoiseParams(_finite(args.n, "--n"), _finite(args.xi, "--xi"))
    threads = args.threads if args.threads is None else int(args.threads)
    rows = []
    for N in n_values:
        K = int(eval_rule(str(args.K), N=N)) if args.K is not None else N
        M = int(eval_rule(str(args.M), N=N)) if args.M is not None else N
        spec = ensembles.EnsembleSpec(N=N, K=K, M=M, noise=noise,
                                      sigma2=sigma2, seed=int(args.seed or 0))
        if args.mode == "analytic":
            bits = ensembles.expected_capacity_passive(spec, P, args.method)
            rows.append((spec, _finite_result(bits), None))
        else:
            mean, se = active.mc_capacity_active(
                spec, P, args.method, int(args.samples),
                threads=threads, allow_rect=args.allow_rect_active,
                dump_path=args.dump_samples)
            rows.append((spec, _finite_result(mean), _finite_result(se)))
    lines = ["N,K,M,sigma2,method,mode,bits,stderr"]
    for spec, bits, se in rows:
        lines.append("%d,%d,%d,%s,%s,%s,%s,%s" % (
            spec.N, spec.K, spec.M, _fmt(spec.sigma2), args.method, args.mode,
            _fmt(bits), "" if se is None else _fmt(se)))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_density(args, parser):
    _require(parser, args, "N", "K", "M")
    spec = ensembles.EnsembleSpec(N=int(args.N), K=int(args.K), M=int(args.M))
    density = ensembles.spectral_density(spec)
    grid = np.linspace(0.0, 1.0, int(args.grid))
    values = density.pdf(grid)
    lines = ["lambda,p_lambda"]
    lines.extend("%s,%s" % (_fmt(lam), _fmt(_finite_result(p)))
                 for lam, p in zip(grid, values))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="gausscap",
                     description="Capacities of multimode Gaussian channels")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p):
        p.add_argument("--config", help="JSON file of default option values")
        p.add_argument("--output", help="write to this file instead of stdout")

    p_cap = sub.add_parser("capacity", parents=[], description=(
        "Capacity of one channel, as JSON"))
    p_cap.add_argument("--channel", help="channel JSON file")
    p_cap.add_argument("--lambdas", help="comma-separated transmissions")
    p_cap.add_argument("--lambdas-rule", dest="lambdas_rule",
                       help="per-mode rule over k and N, e.g. '0.2+0.7*k/N'")
    p_cap.add_argument("--N", type=int, help="mode count for --lambdas-rule")
    p_cap.add_argument("--n", default=None, help="thermal photons per env mode")
    p_cap.add_argument("--xi", default=None, help="additive noise")
    p_cap.add_argument("--power", type=float, help="total mean photons P")
    p_cap.add_argument("--method", choices=["holevo", "het", "hom", "classical"],
                       default=None)
    p_cap.add_argument("--alloc", choices=["uniform", "waterfill"], default=None)
    common(p_cap)
    p_cap.set_defaults(func=cmd_capacity,
                       defaults={"n": 0.0, "xi": 0.0, "method": "holevo"})

    p_sweep = sub.add_parser("sweep-modes", description=(
        "Capacity versus mode count, as CSV"))
    p_sweep.add_argument("--N-range", dest="N_range",
                         help="inclusive range 'a..b' or single N")
    p_sweep.add_argument("--lambdas-rule", dest="lambdas_rule", default=None)
    p_sweep.add_argument("--power", type=float)
    p_sweep.add_argument("--methods", default=None,
                         help="comma list of holevo,het,hom,classical")
    p_sweep.add_argument("--allocs", default=None,
                         help="comma list of uniform,waterfill")
    p_sweep.add_argument("--n", default=None)
    p_sweep.add_argument("--xi", default=None)
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep_modes,
                         defaults={"lambdas_rule": "1", "methods": "holevo",
                                   "allocs": "waterfill", "n": 0.0, "xi": 0.0})

    p_rand = sub.add_parser("random", description=(
        "Random-ensemble capacities, analytic or Monte Carlo, as CSV"))
    p_rand.add_argument("--N", help="signal modes: int or range 'a..b'")
    p_rand.add_argument("--K", help="receiver modes: int or rule over N")
    p_rand.add_argument("--M", help="environment modes: int or rule over N")
    p_rand.add_argument("--sigma2", default=None, help="squeezing variance")
    p_rand.add_argument("--mode", choices=["analytic", "mc"], default=None)
    p_rand.add_argument("--samples", default=None, help="MC sample count")
    p_rand.add_argument("--seed", type=int, help="base seed (required for mc)")
    p_rand.add_argument("--power", type=float)
    p_rand.add_argument("--method", choices=["holevo", "het", "hom"], default=None)
    p_rand.add_argument("--n", default=None)
    p_rand.add_argument("--xi", default=None)
    p_rand.add_argument("--threads", default=None,
                        help="worker cap for active (sigma2 > 0) MC, "
                             "GAUSSCAP_THREADS as fallback; passive MC runs "
                             "batched in the calling thread")
    p_rand.add_argument("--allow-rect-active", dest="allow_rect_active",
                        action="store_true",
                        help="allow K > N active sampling by truncating the "
                             "enlarged transform")
    p_rand.add_argument("--dump-samples", dest="dump_samples",
                        help="per-sample CSV (single configuration only)")
    common(p_rand)
    p_rand.set_defaults(func=cmd_random,
                        defaults={"sigma2": 0.0, "mode": "analytic",
                                  "samples": 1000, "method": "holevo",
                                  "n": 0.0, "xi": 0.0})

    p_dens = sub.add_parser("density", description=(
        "Analytic transmission-eigenvalue density, as CSV"))
    p_dens.add_argument("--N", type=int)
    p_dens.add_argument("--K", type=int)
    p_dens.add_argument("--M", type=int)
    p_dens.add_argument("--grid", default=None, help="grid points on [0, 1]")
    common(p_dens)
    p_dens.set_defaults(func=cmd_density, defaults={"grid": 1001})

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, args.defaults)
        return args.func(args, parser)
    except InsufficientEnvironment as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ENSEMBLE
    except _UNPHYSICAL_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_UNPHYSICAL
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
