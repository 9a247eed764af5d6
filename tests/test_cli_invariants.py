"""The output invariant of the closed-form commands on a seeded corpus.

About 400 commands, drawn from random.Random(20261021) over this grid:

* `capacity --lambdas` with 1-6 transmissions from
  {0, 1e-12, 1e-6, 0.05, 0.5, 0.9, 1, 1.5};
* `capacity --lambdas-rule` and `sweep-modes` with a rule over k/N from
  RULES below (every value in [0, 1.5]) and N <= 40;
* P in {0, 1e-7, 1e-3, 1, 7.5, 1e3, 1e6}, and n and xi each in {0, 0.3};
* every method and allocation (sweeps take a random non-empty subset).

Every command must exit 0, or 3 when it asks for the classical capacity at
xi = 0, which has no finite value.  Exit 0 must come with strict JSON or
CSV holding only finite numbers, an empty stderr and no warning.
"""

import contextlib
import io
import json
import math
import random
import warnings

import pytest

from gausscap.cli import EXIT_OK, EXIT_UNPHYSICAL, main

LAMBDAS = ["0", "1e-12", "1e-6", "0.05", "0.5", "0.9", "1", "1.5"]
RULES = ["k/N", "1-k/N", "0.2+0.7*k/N", "1.5*k/N", "1e-12*k/N",
         "1e-6*(N-k)/N", "1-k/(2*N)", "0.9", "1.5*k*k/(N*N)", "0.05+k/N/2"]
POWERS = ["0", "1e-7", "1e-3", "1", "7.5", "1e3", "1e6"]
NOISE = ["0", "0.3"]
METHODS = ["holevo", "het", "hom", "classical"]
ALLOCS = ["uniform", "waterfill"]


def corpus(count=400, seed=20261021):
    rng = random.Random(seed)
    commands = []
    for i in range(count):
        budget = ["--power", rng.choice(POWERS), "--n", rng.choice(NOISE),
                  "--xi", rng.choice(NOISE)]
        if i % 3 == 0:
            lams = ",".join(rng.choice(LAMBDAS)
                            for _ in range(rng.randint(1, 6)))
            argv = ["capacity", "--lambdas", lams,
                    "--method", rng.choice(METHODS),
                    "--alloc", rng.choice(ALLOCS)]
        elif i % 3 == 1:
            argv = ["capacity", "--lambdas-rule", rng.choice(RULES),
                    "--N", str(rng.randint(1, 40)),
                    "--method", rng.choice(METHODS),
                    "--alloc", rng.choice(ALLOCS)]
        else:
            lo = rng.randint(1, 40)
            argv = ["sweep-modes", "--N-range",
                    "%d..%d" % (lo, rng.randint(lo, 40)),
                    "--lambdas-rule", rng.choice(RULES),
                    "--methods", ",".join(rng.sample(METHODS,
                                                     rng.randint(1, 4))),
                    "--allocs", ",".join(rng.sample(ALLOCS,
                                                    rng.randint(1, 2)))]
        commands.append(argv + budget)
    return commands


def _strict(constant):
    raise ValueError("non-finite JSON constant %s" % constant)


def _finite_numbers(argv, text):
    """The numbers of a JSON or CSV payload, parsed strictly."""
    if argv[0] == "capacity":
        report = json.loads(text, parse_constant=_strict)
        numbers = [report["bits"], report["power"], *report["allocation"]]
        return numbers + ([] if report["mu"] is None else [report["mu"]])
    lines = text.splitlines()
    assert lines[0] == "N,method,alloc,bits"
    return [float(line.split(",")[3]) for line in lines[1:]]


def _classical_without_noise(argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    asked = opts.get("--method", opts.get("--methods", "")).split(",")
    return "classical" in asked and float(opts["--xi"]) == 0


@pytest.mark.parametrize("block", range(4))
def test_closed_form_commands_exit_cleanly(block):
    commands = corpus()[block::4]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(list(argv))
        if _classical_without_noise(argv):
            assert code == EXIT_UNPHYSICAL, argv
            continue
        assert code == EXIT_OK, (argv, err.getvalue())
        assert err.getvalue() == "" and caught == [], argv
        numbers = _finite_numbers(argv, out.getvalue())
        assert numbers and all(math.isfinite(x) for x in numbers), argv
