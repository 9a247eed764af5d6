"""Independent numpy reference values and the output gate.

Nothing here imports gausscap.  Every number the CLI prints on a benchmark
workload is recomputed from the same inputs with plain numpy, so a change to
the package that alters a result is caught even though the reference is
never recorded from the package itself:

* passive Monte Carlo: the same per-sample ``Philox(seed, i)`` draws, but the
  transmissions come from a thin QR of the first N Gaussian columns (the
  N columns of a Haar unitary span the same space, and the column phase fix
  does not change singular values);
* active Monte Carlo: the Bogoliubov draw, the minimal thermal noise and the
  normal-mode homodyne formula, batched over samples;
* closed form: the Jacobi-law quadrature with the same order escalation, and
  uniform and water-filled per-mode capacities solved from scratch.

Printed values are compared in units of their last printed digit.  The CLI
prints 12 significant digits, and the reference reproduces the unrounded
value to far below one unit, so a correct output is within half a unit.
``LAST_DIGIT_UNITS`` = 1.5 also accepts a change of the last printed digit
by one, which reordered floating-point sums can cause, and rejects any
change of two units or more.  A standard error is a difference of samples,
so it inherits the absolute rounding of the per-sample bits: its tolerance
adds one last-digit unit of the bits column.  With two samples and a small
spread that is many units of the standard error's own last digit.
"""

import functools
import math

import numpy as np

LAST_DIGIT_UNITS = 1.5

RANDOM_HEADER = "N,K,M,sigma2,method,mode,bits,stderr"
SWEEP_HEADER = "N,method,alloc,bits"

_QUAD_ORDERS = (32, 64, 128, 256, 512, 1024, 2048)


def last_digit_unit(x):
    """One unit in the 12th significant digit of x."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 1e-300


def close(printed, reference, slack=0.0):
    return (abs(printed - reference)
            <= LAST_DIGIT_UNITS * last_digit_unit(reference) + slack)


def entropy_g(x):
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    out = (x + 1.0) * np.log2(x + 1.0)
    pos = x > 0.0
    out[pos] -= x[pos] * np.log2(x[pos])
    return out


def noise_photons(lams, n, xi):
    return (lams - 1.0) / 2.0 + (n + 0.5) * np.abs(1.0 - lams) + xi


def philox(seed, index):
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gaussian(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _mean_se(bits):
    return float(np.mean(bits)), float(np.std(bits, ddof=1) / math.sqrt(len(bits)))


# ---------------------------------------------------------------- passive MC

def passive_lambdas(seed, samples, N, K, M):
    """Transmission eigenvalues (samples, min(K, N)) of sample i = 0..samples-1."""
    dim = N + M
    z = np.empty((samples, dim, N), dtype=complex)
    for i in range(samples):
        z[i] = _gaussian(philox(seed, i), dim)[:, :N]
    q = np.linalg.qr(z, mode="reduced")[0]
    return np.linalg.svd(q[:, :K, :], compute_uv=False) ** 2


def passive_mc_holevo(seed, samples, N, K, M, P, n=0.0, xi=0.0):
    """(mean, stderr) of the uniform-power Holevo capacity over the samples."""
    lams = passive_lambdas(seed, samples, N, K, M)
    Nk = noise_photons(lams, n, xi)
    bits = np.sum(entropy_g(lams * (P / N) + Nk) - entropy_g(Nk), axis=1)
    return _mean_se(bits)


# ----------------------------------------------------------------- active MC

def _haar_stack(z):
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _omega(modes):
    eye, zero = np.eye(modes), np.zeros((modes, modes))
    return np.block([[zero, eye], [-eye, zero]])


def active_mc_hom(seed, samples, N, K, M, sigma2, P, n=0.0, xi=0.0):
    """(mean, stderr) of the normal-mode homodyne capacity of active samples.

    Only samples whose signal block mixes quadratures are covered (every
    sample at sigma2 > 0 in practice); a block-form draw raises.
    """
    dim = N + M
    z1 = np.empty((samples, dim, dim), dtype=complex)
    z2 = np.empty_like(z1)
    r = np.empty((samples, dim))
    for i in range(samples):
        rng = philox(seed, i)
        z1[i] = _gaussian(rng, dim)
        r[i] = rng.standard_normal(dim) * math.sqrt(sigma2)
        z2[i] = _gaussian(rng, dim)
    u1, u2 = _haar_stack(z1), _haar_stack(z2)
    a = (u1 * np.cosh(r)[:, None, :]) @ u2
    b = (u1 * np.sinh(r)[:, None, :]) @ np.conj(u2)
    apb, amb = a + b, a - b
    H = np.concatenate([np.concatenate([apb.real, -amb.imag], axis=2),
                        np.concatenate([apb.imag, amb.real], axis=2)], axis=1)
    rows = np.r_[0:K, dim:dim + K]
    cols = np.r_[0:N, dim:dim + N]
    Hs = H[:, rows][:, :, cols]
    qq, qp, pq, pp = Hs[:, :K, :N], Hs[:, :K, N:], Hs[:, K:, :N], Hs[:, K:, N:]
    defect = np.maximum(np.abs(qq - pp).max(axis=(1, 2)),
                        np.abs(qp + pq).max(axis=(1, 2)))
    if defect.min() <= 1e-9:
        raise ValueError("block-form active sample; reference covers only "
                         "the general path")
    HsT = np.swapaxes(Hs, 1, 2)
    sigma = _omega(K) - Hs @ _omega(N) @ HsT
    _, s, vt = np.linalg.svd(sigma)
    absval = np.swapaxes(vt, 1, 2) @ (s[:, :, None] * vt)
    Y = (n + 0.5) * (absval + np.swapaxes(absval, 1, 2)) / 2.0 + xi * np.eye(2 * K)
    Y = (Y + np.swapaxes(Y, 1, 2)) / 2.0
    u, sv, _ = np.linalg.svd(Hs)
    m = min(K, N)
    sel = u[:, :, 0:2 * m:2]
    noise = np.swapaxes(sel, 1, 2) @ (0.5 * Hs @ HsT + Y) @ sel
    gain = (2.0 * P / N) * sv[:, 0:2 * m:2] ** 2
    signal = gain[:, :, None] * np.eye(m)
    ld_noise = np.linalg.slogdet(noise)[1]
    ld_total = np.linalg.slogdet(noise + signal)[1]
    return _mean_se(0.5 * (ld_total - ld_noise) / math.log(2.0))


# --------------------------------------------------------------- closed form

def _jacobi_sq_series(x, a, b, inv_h):
    """sum_k inv_h[k] P_k^(a,b)(x)^2 by the three-term recurrence."""
    p_prev, p_cur = np.ones_like(x), 0.5 * ((a + b + 2.0) * x + (a - b))
    acc = inv_h[0] * p_prev ** 2
    if len(inv_h) > 1:
        acc = acc + inv_h[1] * p_cur ** 2
    for k in range(2, len(inv_h)):
        s = 2.0 * k + a + b
        p_prev, p_cur = p_cur, (((s - 1.0) * s * (s - 2.0) * x
                                 + (s - 1.0) * (a * a - b * b)) * p_cur
                                - 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * p_prev
                                ) / (2.0 * k * (k + a + b) * (s - 2.0))
        acc = acc + inv_h[k] * p_cur ** 2
    return acc


@functools.lru_cache(maxsize=None)
def _gauss_legendre_01(order):
    t, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (t + 1.0), 0.5 * w


def analytic_holevo(N, K, M, P, n=0.0, xi=0.0):
    """Jacobi-law expected Holevo capacity at uniform power P/N."""
    m = min(K, N)
    a = max(K, N) - m
    b = N + M - m - max(K, N)
    inv_h = np.array([math.exp(-(math.lgamma(k + a + 1) + math.lgamma(k + b + 1)
                                 - math.lgamma(k + a + b + 1) - math.lgamma(k + 1)
                                 - math.log(2 * k + a + b + 1)))
                      for k in range(m)])
    value, prev = 0.0, None
    for order in _QUAD_ORDERS:
        lam, w = _gauss_legendre_01(order)
        pdf = lam ** a * (1.0 - lam) ** b * _jacobi_sq_series(
            1.0 - 2.0 * lam, float(a), float(b), inv_h) / m
        Nk = noise_photons(lam, n, xi)
        c1 = entropy_g(lam * (P / N) + Nk) - entropy_g(Nk)
        value = m * float(np.sum(w * c1 * pdf))
        if prev is not None and abs(value - prev) <= 1e-8 * max(abs(value), 1e-12):
            break
        prev = value
    return value


def _classical_waterfill(floors, P):
    # Sorted floors f; with the j cheapest modes filled, the level is
    # (P + sum f_1..f_j) / j.  The optimum is the largest j whose level
    # clears f_j.
    f = np.sort(floors)
    levels = (P + np.cumsum(f)) / np.arange(1, len(f) + 1)
    j = int(np.nonzero(levels > f)[0][-1])
    return np.maximum(levels[j] - floors, 0.0)


def _holevo_waterfill(lams, Nk, P):
    # Output photon target per mode 1/(mu^(1/lam) - 1) at w = ln mu.  The
    # spent power falls monotonically in w: bracket the budget on a log
    # grid, then narrow the bracket on linear grids.  The capacity is flat to
    # first order at the optimum, so a 1e-10 relative bracket is plenty.
    def spent(w):
        with np.errstate(over="ignore"):
            x = 1.0 / np.expm1(w[:, None] / lams)
        return (np.maximum(x - Nk, 0.0) / lams).sum(axis=1)

    grid = np.geomspace(1e-12, 1e4, 65)
    while True:
        j = int(np.argmax(spent(grid) <= P))
        if j == 0 and spent(grid[:1])[0] > P:
            grid = grid * 1e4                     # budget below the grid
        elif j == 0:
            grid = grid * 1e-4                    # budget above the grid
        else:
            break
    lo, hi = grid[j - 1], grid[j]
    while hi - lo > 1e-10 * hi:
        grid = np.linspace(lo, hi, 65)
        j = max(int(np.argmax(spent(grid) <= P)), 1)
        lo, hi = grid[j - 1], grid[j]
    p = np.maximum(1.0 / np.expm1(hi / lams) - Nk, 0.0) / lams
    return p * (P / p.sum())


def sweep_rows(N, P, n, xi, lams):
    """{(method, alloc): bits} of one sweep-modes N over N parallel modes."""
    lams = np.asarray(lams, dtype=float)
    Nk = noise_photons(lams, n, xi)
    g_noise = entropy_g(Nk)
    uniform = np.full(N, P / N)
    floors = {"het": (Nk + 1.0) / lams, "hom": (Nk + 0.5) / (2.0 * lams),
              "classical": xi / lams}
    rows = {}
    for alloc in ("uniform", "waterfill"):
        p = uniform if alloc == "uniform" else _holevo_waterfill(lams, Nk, P)
        rows[("holevo", alloc)] = float(np.sum(entropy_g(lams * p + Nk) - g_noise))
        for method, f in floors.items():
            p = uniform if alloc == "uniform" else _classical_waterfill(f, P)
            scale = 0.5 if method == "hom" else 1.0
            rows[(method, alloc)] = float(np.sum(scale * np.log2(1.0 + p / f)))
    return rows


# --------------------------------------------------------------- calibration

_CAL_LAMS = [0.2 + 0.5 * k / 12 for k in range(1, 13)]


def calibrate():
    """Fixed small-array numpy and Python work: one unit of "cal".

    The benchmark times this after every CLI call.  It does not touch
    gausscap, so its duration follows only the host's speed, which other
    tenants of a shared machine move by up to 1.6x for seconds to minutes.
    """
    sweep_rows(12, 7.0, 0.2, 0.1, _CAL_LAMS)
    passive_mc_holevo(5, 8, 2, 2, 2, 7.0)


# ---------------------------------------------------------------------- gate

def parse_csv(text, header):
    """Rows of a CSV payload as lists of strings; ValueError on a bad header."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("unexpected CSV header %r" % (lines[:1],))
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise ValueError("CSV row with the wrong number of fields")
    return rows


def check_random(text, configs, method, mode, expected):
    """Gate a ``random`` payload.

    configs: [(N, K, M, sigma2)] in row order; expected: [(bits, stderr or
    None)] reference values.  Returns (ok, parsed [(bits, stderr)]).
    """
    rows = parse_csv(text, RANDOM_HEADER)
    if len(rows) != len(configs):
        return False, []
    parsed, ok = [], True
    for row, (N, K, M, sigma2), (bits, se) in zip(rows, configs, expected):
        head = [str(N), str(K), str(M), "%.12g" % sigma2, method, mode]
        got_bits = float(row[6])
        got_se = None if row[7] == "" else float(row[7])
        parsed.append((got_bits, got_se))
        ok &= row[:6] == head and close(got_bits, bits)
        if se is None:
            ok &= got_se is None
        else:
            ok &= got_se is not None and close(got_se, se, last_digit_unit(bits))
    return ok, parsed


def check_sweep(text, n_values, methods, allocs, expected):
    """Gate a ``sweep-modes`` payload against {(N, method, alloc): bits}.

    Also requires Holevo >= het and Holevo >= hom at every N and allocation.
    """
    rows = parse_csv(text, SWEEP_HEADER)
    keys = [(N, m, a) for N in n_values for m in methods for a in allocs]
    if len(rows) != len(keys):
        return False
    got = {}
    for row, key in zip(rows, keys):
        if (int(row[0]), row[1], row[2]) != key:
            return False
        got[key] = float(row[3])
        if not close(got[key], expected[key]):
            return False
    for N in n_values:
        for a in allocs:
            chi = got[(N, "holevo", a)]
            if chi < got[(N, "het", a)] or chi < got[(N, "hom", a)]:
                return False
    return True
