"""Command-line interface.

Subcommands:

* ``capacity``    -- one channel, one capacity, JSON on stdout
* ``sweep-modes`` -- capacities versus mode number, CSV "N,method,alloc,bits"
* ``random``      -- random-ensemble capacities (analytic or Monte Carlo),
                     CSV "N,K,M,sigma2,method,mode,bits,stderr"
* ``density``     -- analytic eigenvalue density, CSV "lambda,p_lambda"

Every command is deterministic given its flags and seed.  A ``--config FILE``
JSON object sets options as flags do: key ``k`` with value ``v`` means the flag
``--k=v`` (see _with_config), and flags on the command line win.  Exit codes:
0 ok, 2 input error (a malformed value, whatever its source), 3 unphysical
parameters or a non-finite result, 4 ensemble-parameter error, 64 usage.
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


class _BadValue(Exception):
    """A malformed option value (not a ValueError, which argparse catches)."""


_INPUT_ERRORS = (InvalidChannel, DimensionMismatch, NotBlockForm,
                 NonThermalNoise, OSError, ValueError, _BadValue,
                 RecursionError)   # a rule nested too deeply to evaluate
_UNPHYSICAL_ERRORS = (UnphysicalOutput, NegativeEntropyArgument,
                      NonPositiveDefinite, NegativeArgument, NotHermitian,
                      ZeroNoiseClassical, NoFeasibleWaterlevel, SingularNoise)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))

    # An option with a type or choices converts its text through _convert: a
    # malformed value, from a flag or --config, is an input error (exit 2).
    def add_argument(self, *flags, **kwargs):
        if "type" in kwargs or "choices" in kwargs:
            kwargs["type"] = functools.partial(
                _convert, flags[0], kwargs.get("type", str),
                kwargs.get("choices"))
        return super().add_argument(*flags, **kwargs)


def _convert(flag, convert, choices, text):
    try:
        value = convert(text)
        if choices is not None and value not in choices:
            raise ValueError("must be one of " + ", ".join(choices))
    except ValueError as exc:
        raise _BadValue("%s %s, got %r" % (flag, exc, text)) from None
    return value


def _fmt(x):
    return "%.12g" % x


def _finite_result(x):
    """x, refusing a NaN or infinite result as unphysical (exit 3)."""
    if not math.isfinite(x):
        raise UnphysicalOutput("result is not finite: %s" % x)
    return x


def _number(text, kind=float, least=-math.inf):
    """kind(text), refusing non-numbers, NaN, +-inf and values below least."""
    try:
        x = kind(text)
    except ValueError:
        x = math.nan
    if not -math.inf < x < math.inf or x < least:
        raise ValueError("must be %s%s" % (
            "a finite number" if kind is float else "an integer",
            "" if least == -math.inf else " >= %g" % least))
    return x


_power = functools.partial(_number, least=0)
_integer = functools.partial(_number, kind=int)
_count = functools.partial(_number, kind=int, least=1)


def _counts(text):
    """A mode count or an inclusive range 'a..b' of them, as a list."""
    lo, dots, hi = text.partition("..")
    counts = list(range(_count(lo), _count(hi if dots else lo) + 1))
    if not counts:
        raise ValueError("must not be an empty range")
    return counts


def _transmissions(text):
    lams = [_number(tok) for tok in text.split(",") if tok.strip()]
    if not lams:
        raise ValueError("must list at least one value")
    return lams


def _some_of(*names):
    def some_of(text):
        picked = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not picked or not set(picked) <= set(names):
            raise ValueError("must be a comma list of " + ",".join(names))
        return picked
    return some_of


_RULE_OPS = {ast.Add, ast.Sub, ast.Mult, ast.Div}


@functools.lru_cache(maxsize=64)
def _rule_tree(expr):
    """The parsed body of a rule; each distinct rule text is parsed once."""
    try:
        return ast.parse(expr, mode="eval").body
    except SyntaxError as exc:
        raise ValueError("cannot parse rule %r: %s" % (expr, exc)) from None


def _rule(text):
    _rule_tree(text)   # its tokens are checked when it is evaluated
    return text


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


def _rule_array(expr, N):
    """[eval_rule(expr, k=k, N=N) for k in 1..N] as one float64 array.

    The rule is evaluated over all k at once; a rule without k gives the
    same value for every mode.  On an error, the scalar loop reruns, so the
    message names the first k that fails, exactly as the loop would.
    """
    modes = np.arange(1.0, N + 1)
    try:
        with np.errstate(all="ignore"):
            values = _eval_node(_rule_tree(expr), {"k": modes, "N": float(N)},
                                expr)
        values = np.broadcast_to(values, modes.shape)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([eval_rule(expr, k=k, N=N) for k in range(1, N + 1)])


def _rule_values(expr, N):
    """_rule_array(expr, N) as a list of floats."""
    return _rule_array(expr, N).tolist()


def _mode_count(rule, N, flag):
    """The value of a --K or --M rule at N, which must be a whole number."""
    value = eval_rule(rule, N=N)
    if value != int(value):
        raise ValueError("%s must be an integer, got %r" % (flag, value))
    return int(value)


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _with_config(parser, argv):
    """argv with the options of its --config file inserted after the
    subcommand as --flag=value tokens, so that the flags after them win.

    A key is a long flag name with '_' for '-'.  A string value is the flag's
    text and any other value its JSON text; null leaves the option unset, a
    switch takes true or false, and a file option a string or a number.
    """
    # argparse reads --config only from a token that starts with "--c"
    if not any(tok.startswith("--c") for tok in argv[1:]):
        return argv
    probe = _Parser(prog="gausscap " + argv[0], add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv[1:])[0].config
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    if path is None or argv[0] not in commands:
        return argv
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    options = {action.dest: action for action in commands[argv[0]]._actions
               if action.option_strings and action.dest != "help"}
    front = []
    for key, value in cfg.items():
        action = options.get(key)
        if action is None:
            raise ValueError("unknown config key %r for %s" % (key, argv[0]))
        switch = action.nargs == 0
        if value is None or value is False and switch:
            continue
        if (value is not True if switch else action.type is None
                and isinstance(value, (bool, list, dict))):
            raise ValueError("config key %r cannot take %s: a switch takes "
                             "true or false, a file a string or a number"
                             % (key, json.dumps(value)))
        text = value if isinstance(value, str) else json.dumps(value)
        front.append(action.option_strings[0] + ("" if switch else "=" + text))
    return argv[:1] + front + argv[1:]


def _channel_params(args, parser):
    """Resolve the (lambda_k, n, xi) list and the input-mode count."""
    if args.lambdas is not None:
        lams = args.lambdas
    elif args.lambdas_rule is not None:
        if args.N is None:
            parser.error("the following argument is required: --N")
        lams = _rule_values(args.lambdas_rule, args.N)
    else:
        parser.error("one of --channel, --lambdas or --lambdas-rule is required")
    if min(lams) < 0:
        raise ValueError("transmissions must be nonnegative")
    return [(lam, args.n, args.xi) for lam in lams], len(lams)


def cmd_capacity(args, parser):
    if args.channel is not None:
        with open(args.channel) as fh:
            ch = channels.channel_from_json(fh.read())
        if not channels.validate_channel(ch):
            raise UnphysicalOutput(
                "channel file violates the noise bound Y - (i/2)Sigma >= 0")
        res = capacity._channel_capacity(ch, args.power, args.method,
                                         args.alloc)
        # an unset --alloc water-fills a diagonalizable channel; any other
        # channel takes the general path, which has no per-mode allocation
        alloc = args.alloc or ("uniform" if res.allocation is None
                               else "waterfill")
    else:
        alloc = args.alloc or "waterfill"
        params, n_signal = _channel_params(args, parser)
        res = capacity.diagonal_capacity(params, args.power, args.method,
                                         alloc, n_signal)
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
        "power": args.power,
    }
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", args.output)
    return EXIT_OK


def cmd_sweep_modes(args, parser):
    lines = ["N,method,alloc,bits"]
    for N in args.N_range:
        lams = _rule_array(args.lambdas_rule, N)
        if lams.min() < 0:
            raise ValueError("transmissions must be nonnegative")
        # one set of mode arrays per N, shared by all its rows
        modes = capacity._Modes(lams, args.n, args.xi)
        for method in args.methods:
            for alloc in args.allocs:
                bits = capacity.diagonal_capacity(modes, args.power, method,
                                                  alloc, N).bits
                lines.append("%d,%s,%s,%s"
                             % (N, method, alloc, _fmt(_finite_result(bits))))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_random(args, parser):
    if args.mode == "mc" and args.seed is None:
        parser.error("--seed is required in mc mode")
    if args.mode == "analytic" and args.sigma2 != 0:
        parser.error("analytic mode requires sigma2 = 0")
    if args.dump_samples and (len(args.N) != 1 or args.mode != "mc"):
        parser.error("--dump-samples needs mc mode and a single configuration")
    noise = channels.NoiseParams(args.n, args.xi)
    rows = []
    for N in args.N:
        K = N if args.K is None else _mode_count(args.K, N, "--K")
        M = N if args.M is None else _mode_count(args.M, N, "--M")
        spec = ensembles.EnsembleSpec(N=N, K=K, M=M, noise=noise,
                                      sigma2=args.sigma2, seed=args.seed or 0)
        if args.mode == "analytic":
            bits = ensembles.expected_capacity_passive(spec, args.power,
                                                       args.method)
            rows.append((spec, _finite_result(bits), None))
        else:
            mean, se = active.mc_capacity_active(
                spec, args.power, args.method, args.samples,
                threads=args.threads, allow_rect=args.allow_rect_active,
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
    spec = ensembles.EnsembleSpec(N=args.N, K=args.K, M=args.M)
    density = ensembles.spectral_density(spec)
    grid = np.linspace(0.0, 1.0, args.grid)
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
    files = _Parser(add_help=False)
    files.add_argument("--config", help="JSON file of option values")
    files.add_argument("--output", help="write to this file instead of stdout")
    budget = _Parser(add_help=False)
    budget.add_argument("--n", type=_number, default=0.0,
                        help="thermal photons per env mode")
    budget.add_argument("--xi", type=_number, default=0.0,
                        help="additive noise")
    budget.add_argument("--power", type=_power, required=True,
                        help="total mean photons P")

    p_cap = sub.add_parser("capacity", parents=[budget, files],
                           description="Capacity of one channel, as JSON")
    p_cap.add_argument("--channel", help="channel JSON file")
    p_cap.add_argument("--lambdas", type=_transmissions,
                       help="comma-separated transmissions")
    p_cap.add_argument("--lambdas-rule", type=_rule,
                       help="per-mode rule over k and N, e.g. '0.2+0.7*k/N'")
    p_cap.add_argument("--N", type=_count, help="modes of --lambdas-rule")
    p_cap.add_argument("--method", default="holevo",
                       choices=["holevo", "het", "hom", "classical"])
    p_cap.add_argument("--alloc", choices=["uniform", "waterfill"])
    p_cap.set_defaults(func=cmd_capacity)

    p_sweep = sub.add_parser("sweep-modes", parents=[budget, files],
                             description="Capacity versus mode count, as CSV")
    p_sweep.add_argument("--N-range", type=_counts, required=True,
                         help="inclusive range 'a..b' or single N")
    p_sweep.add_argument("--lambdas-rule", type=_rule, default="1")
    p_sweep.add_argument("--methods",
                         type=_some_of("holevo", "het", "hom", "classical"),
                         default=["holevo"],
                         help="comma list of holevo,het,hom,classical")
    p_sweep.add_argument("--allocs", type=_some_of("uniform", "waterfill"),
                         default=["waterfill"],
                         help="comma list of uniform,waterfill")
    p_sweep.set_defaults(func=cmd_sweep_modes)

    p_rand = sub.add_parser("random", parents=[budget, files], description=(
        "Random-ensemble capacities, analytic or Monte Carlo, as CSV"))
    p_rand.add_argument("--N", type=_counts, required=True,
                        help="signal modes: int or range 'a..b'")
    p_rand.add_argument("--K", type=_rule, help="receiver modes: rule over N")
    p_rand.add_argument("--M", type=_rule, help="env modes: rule over N")
    p_rand.add_argument("--sigma2", type=_number, default=0.0,
                        help="squeezing variance")
    p_rand.add_argument("--mode", choices=["analytic", "mc"],
                        default="analytic")
    p_rand.add_argument("--samples", type=_integer, default=1000,
                        help="MC sample count")
    p_rand.add_argument("--seed", type=_integer, help="base seed (mc only)")
    p_rand.add_argument("--method", choices=["holevo", "het", "hom"],
                        default="holevo")
    p_rand.add_argument("--threads", type=_integer,
                        help="worker cap for active (sigma2 > 0) MC, "
                             "GAUSSCAP_THREADS as fallback; passive MC runs "
                             "batched in the calling thread")
    p_rand.add_argument("--allow-rect-active", action="store_true",
                        help="allow K > N in active (sigma2 > 0) MC by "
                             "truncating the enlarged transform")
    p_rand.add_argument("--dump-samples",
                        help="per-sample CSV (single configuration only)")
    p_rand.set_defaults(func=cmd_random)

    p_dens = sub.add_parser("density", parents=[files], description=(
        "Analytic transmission-eigenvalue density, as CSV"))
    for flag in ("--N", "--K", "--M"):
        p_dens.add_argument(flag, type=_count, required=True)
    p_dens.add_argument("--grid", type=_integer, default=1001,
                        help="grid points on [0, 1]")
    p_dens.set_defaults(func=cmd_density)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
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
