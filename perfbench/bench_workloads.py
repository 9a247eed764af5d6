"""The benchmark's workloads: per-call CLI inputs and their correctness gate.

Every workload is a closed loop with one client: the next CLI call starts
when the previous one has returned.  All per-call inputs come from a
``random.Random`` seeded with the workload seed, so a seed fixes the whole
call sequence.  Each call gets its own Monte Carlo seed, so no two calls of a
run ask the program for the same answer.

A workload object hands out calls (``next_call``), gates each call's output
against the independent reference (``check``) and runs its untimed checks
once per run (``untimed_checks``).  The gate runs between calls, outside
their timing, on batches of calls.
"""

import random
from dataclasses import dataclass, field

import bench_reference as ref

SWEEP_METHODS = ["holevo", "het", "hom", "classical"]
SWEEP_ALLOCS = ["uniform", "waterfill"]


@dataclass
class Call:
    """One client request: CLI argument lists run back to back."""

    argvs: list
    items: int
    params: dict = field(default_factory=dict)


def _seed62(rng):
    return rng.getrandbits(62)


def _power(rng):
    return round(rng.uniform(1.0, 30.0), 4)


class PassiveMC:
    """``random --mode mc`` on the Haar-passive ensemble, Holevo, 1 thread."""

    powers_per_run = 3
    min_pooled_calls = 10

    def __init__(self, name, N, samples, seed):
        self.name, self.N, self.samples = name, N, samples
        self.rng = random.Random(seed)
        self.powers = [_power(self.rng) for _ in range(self.powers_per_run)]

    def _argv(self, mc_seed, power):
        N = str(self.N)
        return ["random", "--mode", "mc", "--N", N, "--K", N, "--M", N,
                "--method", "holevo", "--samples", str(self.samples),
                "--seed", str(mc_seed), "--power", repr(power)]

    def next_call(self):
        mc_seed, power = _seed62(self.rng), self.rng.choice(self.powers)
        return Call([self._argv(mc_seed, power)], self.samples,
                    {"seed": mc_seed, "power": power})

    def check(self, call, outputs):
        N = self.N
        expected = ref.passive_mc_holevo(call.params["seed"], self.samples,
                                         N, N, N, call.params["power"])
        ok, parsed = ref.check_random(outputs[0], [(N, N, N, 0.0)], "holevo",
                                      "mc", [expected])
        call.params["parsed"] = parsed
        return ok

    def untimed_checks(self, invoke, records):
        """Pooled MC mean within 5 SE of the CLI's analytic mean, per power.

        Each call's mean and standard error come from its own output; calls
        with the same power are pooled (equal sample counts), which keeps the
        test meaningful at two samples per call; a power with fewer than
        ``min_pooled_calls`` correct calls is not tested.  A failed power
        marks all of its calls failed.  Returns the number of extra checks
        attempted and failed.
        """
        attempted = failed = 0
        N = self.N
        for power in self.powers:
            group = [r for r in records if r.ok and r.call.params["power"] == power]
            if len(group) < self.min_pooled_calls:
                continue
            attempted += 1
            argv = ["random", "--mode", "analytic", "--N", str(N), "--K", str(N),
                    "--M", str(N), "--method", "holevo", "--power", repr(power)]
            rc, out = invoke(argv)
            expected = (ref.analytic_holevo(N, N, N, power), None)
            ok = rc == 0 and ref.check_random(out, [(N, N, N, 0.0)], "holevo",
                                              "analytic", [expected])[0]
            if ok:
                means = [r.call.params["parsed"][0][0] for r in group]
                ses = [r.call.params["parsed"][0][1] for r in group]
                mean = sum(means) / len(means)
                se = sum(s * s for s in ses) ** 0.5 / len(ses)
                ok = abs(mean - expected[0]) <= 5.0 * se
            if not ok:
                failed += 1
                for r in group:
                    r.ok = False
        return attempted, failed


class ActiveMC:
    """``random --mode mc`` on the weakly-active ensemble, homodyne, 2 threads."""

    N = 4
    sigma2 = 0.05

    def __init__(self, name, samples, seed):
        self.name, self.samples = name, samples
        self.rng = random.Random(seed)

    def _argv(self, mc_seed, power, threads):
        N = str(self.N)
        return ["random", "--mode", "mc", "--N", N, "--K", N, "--M", N,
                "--sigma2", repr(self.sigma2), "--method", "hom",
                "--samples", str(self.samples), "--seed", str(mc_seed),
                "--power", repr(power), "--threads", str(threads)]

    def next_call(self):
        mc_seed, power = _seed62(self.rng), _power(self.rng)
        return Call([self._argv(mc_seed, power, 2)], self.samples,
                    {"seed": mc_seed, "power": power})

    def check(self, call, outputs):
        N = self.N
        expected = ref.active_mc_hom(call.params["seed"], self.samples, N, N, N,
                                     self.sigma2, call.params["power"])
        return ref.check_random(outputs[0], [(N, N, N, self.sigma2)], "hom",
                                "mc", [expected])[0]

    def untimed_checks(self, invoke, records):
        """--threads 1 and --threads 2 print byte-identical CSV for one seed."""
        if not records:
            return 0, 0
        params = records[0].call.params
        one = invoke(self._argv(params["seed"], params["power"], 1))
        two = invoke(self._argv(params["seed"], params["power"], 2))
        return 1, int(not (one[0] == two[0] == 0 and one[1] == two[1]))


class ClosedForm:
    """``random --mode analytic`` then ``sweep-modes`` over N = 1..n_max.

    One call is the pair, so every call has the same shape.  Power, thermal
    photons n, additive noise xi > 0 and the coefficients of the rule
    ``a+b*k/N`` (transmissions inside (0, 1)) are drawn per call.
    """

    def __init__(self, name, seed, n_max=16):
        self.name, self.n_max = name, n_max
        self.rng = random.Random(seed)
        self.n_values = list(range(1, n_max + 1))

    def next_call(self):
        rng = self.rng
        p = {"power": _power(rng), "n": round(rng.uniform(0.0, 1.0), 4),
             "xi": round(rng.uniform(0.02, 0.5), 4),
             "a": round(rng.uniform(0.05, 0.3), 4), "b": round(rng.uniform(0.2, 0.65), 4)}
        noise = ["--power", repr(p["power"]), "--n", repr(p["n"]), "--xi", repr(p["xi"])]
        n_range = "1..%d" % self.n_max
        analytic = ["random", "--mode", "analytic", "--N", n_range, "--method",
                    "holevo"] + noise
        sweep = ["sweep-modes", "--N-range", n_range,
                 "--methods", ",".join(SWEEP_METHODS), "--allocs", ",".join(SWEEP_ALLOCS),
                 "--lambdas-rule", "%r+%r*k/N" % (p["a"], p["b"])] + noise
        items = self.n_max * (1 + len(SWEEP_METHODS) * len(SWEEP_ALLOCS))
        return Call([analytic, sweep], items, p)

    def check(self, call, outputs):
        p = call.params
        P, n, xi, a, b = p["power"], p["n"], p["xi"], p["a"], p["b"]
        configs = [(N, N, N, 0.0) for N in self.n_values]
        expected = [(ref.analytic_holevo(N, N, N, P, n, xi), None) for N in self.n_values]
        if not ref.check_random(outputs[0], configs, "holevo", "analytic", expected)[0]:
            return False
        sweep = {}
        for N in self.n_values:
            lams = [a + b * k / N for k in range(1, N + 1)]
            for (method, alloc), bits in ref.sweep_rows(N, P, n, xi, lams).items():
                sweep[(N, method, alloc)] = bits
        return ref.check_sweep(outputs[1], self.n_values, SWEEP_METHODS,
                               SWEEP_ALLOCS, sweep)

    def untimed_checks(self, invoke, records):
        return 0, 0


WORKLOADS = {
    "mc-passive-small": lambda seed: PassiveMC("mc-passive-small", 2, 64, seed),
    "mc-passive-large": lambda seed: PassiveMC("mc-passive-large", 100, 2, seed),
    "mc-active": lambda seed: ActiveMC("mc-active", 64, seed),
    "closed-form": lambda seed: ClosedForm("closed-form", seed),
}
