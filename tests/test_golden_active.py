"""Golden-output regression test for the weakly-active Monte Carlo CLI.

Runs `random --mode mc` at sigma2 > 0 through main(argv) for holevo, het and
hom at (N, K, M) = (4, 4, 4), (3, 2, 2) and (2, 3, 3), on one and on two
threads, and compares stdout, exit codes and two `--dump-samples` files byte
for byte with tests/data/active_mc_golden.txt.  Regenerate that file only
when a printed digit is meant to change:

    PYTHONPATH=src python tests/test_golden_active.py > tests/data/active_mc_golden.txt
"""

import contextlib
import io
import pathlib
import sys
import tempfile

from gausscap.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "active_mc_golden.txt"

_CONFIGS = [("4", "4", "4"), ("3", "2", "2"), ("2", "3", "3")]
_SIGMA2 = ["0.01", "0.05", "0.2"]
_METHODS = ["holevo", "het", "hom"]


def _mc(N, K, M, sigma2, method, seed, samples, threads):
    return ["random", "--mode", "mc", "--N", N, "--K", K, "--M", M,
            "--sigma2", sigma2, "--method", method, "--samples", str(samples),
            "--seed", str(seed), "--power", "4.5", "--n", "0.3", "--xi", "0.1",
            "--threads", threads, "--allow-rect-active"]


COMMANDS = [
    _mc(N, K, M, sigma2, method, 100 + 9 * c + 3 * s + m, 64, threads)
    for c, (N, K, M) in enumerate(_CONFIGS)
    for s, sigma2 in enumerate(_SIGMA2)
    for m, method in enumerate(_METHODS)
    for threads in ("1", "2")
]

# (argv, dump file name): the per-sample CSV is part of the golden output
DUMPS = [
    (_mc("4", "4", "4", "0.05", "hom", 7, 200, "2"), "hom444.csv"),
    (_mc("2", "3", "3", "0.2", "het", 11, 200, "1"), "het233.csv"),
]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def render():
    """Every command with its exit code, stdout and dump file, as one text."""
    chunks = []
    for argv in COMMANDS:
        code, out = _run(argv)
        chunks.append("$ gausscap %s\n# exit %d\n%s"
                      % (" ".join(argv), code, out))
    with tempfile.TemporaryDirectory() as tmp:
        for argv, name in DUMPS:
            path = pathlib.Path(tmp) / name
            code, out = _run(argv + ["--dump-samples", str(path)])
            chunks.append("$ gausscap %s --dump-samples %s\n# exit %d\n%s"
                          "# %s\n%s" % (" ".join(argv), name, code, out, name,
                                        path.read_text()))
    return "".join(chunks)


def test_active_mc_output_matches_golden_file():
    expected = GOLDEN.read_text()
    got = render()
    assert got.splitlines() == expected.splitlines()
    assert got == expected


if __name__ == "__main__":
    sys.stdout.write(render())
