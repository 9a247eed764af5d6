"""Golden-output regression test for the closed-form CLI.

Runs analytic `random`, `sweep-modes`, `capacity --lambdas-rule` and
`capacity --lambdas` commands through main(argv) and compares their stdout
and exit codes byte for byte with tests/data/closed_form_golden.txt.
Regenerate that file only when a printed digit is meant to change:

    PYTHONPATH=src python tests/test_golden.py > tests/data/closed_form_golden.txt
"""

import contextlib
import io
import pathlib
import sys

from gausscap.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "closed_form_golden.txt"

_NOISE = ["--n", "0.3", "--xi", "0.1"]
_RULES = ["0.2+0.7*k/N", "1-k/(2*N)", "0.9"]

COMMANDS = (
    [["random", "--mode", "analytic", "--N", "1..16", "--method", method,
      "--power", "5.5"] + _NOISE for method in ("holevo", "het", "hom")]
    + [["random", "--mode", "analytic", "--N", "1..8", "--K", "N+1",
        "--M", "N+2", "--method", method, "--power", "3", "--n", "0.1",
        "--xi", "0.2"] for method in ("holevo", "hom")]
    + [["sweep-modes", "--N-range", "1..16", "--lambdas-rule", rule,
        "--methods", "holevo,het,hom,classical",
        "--allocs", "uniform,waterfill", "--power", "7.5"] + _NOISE
       for rule in _RULES]
    + [["sweep-modes", "--N-range", "1..16", "--lambdas-rule", rule,
        "--methods", "holevo,het,hom", "--allocs", "uniform,waterfill",
        "--power", power]
       for rule, power in zip(_RULES, ("1e-6", "1e4", "15"))]
    + [["capacity", "--lambdas-rule", "0.2+0.7*k/N", "--N", "7",
        "--power", "5", "--method", method, "--alloc", alloc] + _NOISE
       for method in ("holevo", "het", "hom", "classical")
       for alloc in ("uniform", "waterfill")]
    + [["capacity", "--lambdas-rule=-0.1+k/N", "--N", "9", "--power",
        "2e4", "--method", "holevo"],
       ["capacity", "--lambdas-rule", "1-k/(2*N)", "--N", "12", "--power",
        "1e-7", "--method", "holevo"] + _NOISE,
       ["capacity", "--lambdas-rule", "0.9", "--N", "4", "--power", "0"]]
    + [["capacity", "--lambdas", lams, "--power", "5", "--method", method,
        "--alloc", alloc] + noise
       for lams, noise in (("0.9", []), ("0.36,0.81,0,0.5", _NOISE))
       for method in ("holevo", "het", "hom", "classical")
       for alloc in ("uniform", "waterfill")]
)


def render():
    """Every command with its exit code and stdout, as one text."""
    chunks = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        chunks.append("$ gausscap %s\n# exit %d\n%s"
                      % (" ".join(argv), code, out.getvalue()))
    return "".join(chunks)


def test_closed_form_output_matches_golden_file():
    expected = GOLDEN.read_text()
    got = render()
    assert got.splitlines() == expected.splitlines()
    assert got == expected


if __name__ == "__main__":
    sys.stdout.write(render())
