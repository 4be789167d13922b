"""Contraction-style bounds on a self-map and their verification.

The central quantity for a pair (x, y) is the weighted displacement
maximum

    M(x, y) = max( a * S(x, x, y),
                   b/2 * (S(x, x, Tx) + S(y, y, Ty)),
                   c/2 * (S(x, x, Ty) + S(y, y, Tx)) )

with a, b in [0, 1) and c in [0, 1/2].  Two conditions are checked over a
pair sample:

  (i)  S(Tx, Tx, Ty) <= phi(M(x, y)) for a gauge phi with phi(t) < t on
       t > 0, and
  (ii) for each probe eps > 0 with window width delta(eps) > 0:
       eps < M(x, y) < eps + delta(eps) implies S(Tx, Tx, Ty) <= eps.

Window membership in (ii) is compared exactly; only the final inequality
gets the additive tolerance.  Both checks read one row per pair, M(x, y)
and S(Tx, Tx, Ty) as ints over one denominator den, through
``space._read`` (README, "Tolerance semantics"), and compare them with
integer bounds; on the lattice the space keeps the last rows read, and
the next condition over the same map, pairs and weights reuses them
(``_pair_rows``).  A gauge is read at an int through ``_gauge_at``: phi
at den, and delta at the probes' own den, a multiple of den over which
every probe is an int.  (ii) sorts the rows by M once and bisects each
probe's window.  Both return their violations as ``evidence.Rows`` over
those ints, the first ``max_evidence`` of them when a cap is given, with
the exact total.  The derived contraction factor

    xi = max(a, b / (2 - b), c / (2 - 2c))

is strictly below 1 for admissible parameters and bounds the step-to-step
decay of displacements along an orbit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .evidence import Indexed, Rows, Scaled
from .expr import Formula
from .mapping import Mapping
from .numeric import DEFAULT_TOL, to_fraction
from .space import Space, _cut, _read, _scaled

_HALF = Fraction(1, 2)


class GaugeDomainError(ValueError):
    """A gauge value left its admissible range (for example delta <= 0)."""


@dataclass(frozen=True)
class ContractionParams:
    """Weights (a, b, c) with the admissibility ranges enforced."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", to_fraction(self.a))
        object.__setattr__(self, "b", to_fraction(self.b))
        object.__setattr__(self, "c", to_fraction(self.c))
        if not 0 <= self.a < 1:
            raise ValueError(f"a must lie in [0, 1), got {self.a}")
        if not 0 <= self.b < 1:
            raise ValueError(f"b must lie in [0, 1), got {self.b}")
        if not 0 <= self.c <= _HALF:
            raise ValueError(f"c must lie in [0, 1/2], got {self.c}")


@dataclass(frozen=True)
class GaugeSpec:
    """Optional gauge functions: phi in the variable t, delta in eps."""

    phi: Formula | None = None
    delta: Formula | None = None


def xi(params: ContractionParams) -> Fraction:
    """Contraction factor; strictly below 1 for admissible parameters."""
    return max(
        params.a,
        params.b / (2 - params.b),
        params.c / (2 - 2 * params.c),
    )


def _folded(params):
    """(w, wa, wb, wc): ints with wa = a * w, wb = b/2 * w and wc = c/2 * w."""
    return _scaled([1, params.a, params.b / 2, params.c / 2])


def _m_folded(s, weights, px, py, tx, ty):
    """M(x, y) times w, each S value read by ``s`` from x, y and z, one
    argument each, in the order M names them; ``weights`` as from
    ``_folded``.  A weight of exactly 0 makes its term exactly 0, so the
    S values under it are not read."""
    _, wa, wb, wc = weights
    return max(
        wa * s(px, px, py) if wa else 0,
        wb * (s(px, px, tx) + s(py, py, ty)) if wb else 0,
        wc * (s(px, px, ty) + s(py, py, tx)) if wc else 0,
    )


def m_z_s(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    x: object,
    y: object,
) -> Fraction:
    """The displacement maximum M(x, y) under the three-argument distance."""
    weights = _folded(params)
    read = _read(space, mapping, [space.coerce(x), space.coerce(y)])
    (px, py), t = read.points, read.t
    m = _m_folded(read.s, weights, px, py, t(px), t(py))
    return read.exact(m, weights[0])


def verify_phi_gauge(
    gauge: GaugeSpec,
    t_values: list[object],
    tol: object = DEFAULT_TOL,
) -> list[tuple[Fraction, Fraction]]:
    """Check phi(t) < t at each positive probe, with strictness margin.

    Returns the violating (t, phi(t)) pairs; nonpositive probes are
    skipped since the gauge law only constrains t > 0.
    """
    if gauge.phi is None:
        raise ValueError("gauge has no phi to verify")
    tol = to_fraction(tol)
    bad = []
    for t in map(to_fraction, t_values):
        if t <= 0:
            continue
        phi_t = gauge.phi(t)
        if phi_t > t - tol:
            bad.append((t, phi_t))
    return bad


def _gauge_at(formula, scale):
    """``formula`` as a function from an int v to its value at v / scale,
    as a pair (p, q) worth p/q with q > 0: through the formula's kernel at
    ``scale``, called on v itself, when it has one (``Formula.scaled``),
    else through its exact kernel, which raises where the formula does."""
    compiled = formula.scaled(scale)
    if compiled is None:
        def read(v):
            value = formula.exact(Fraction(v, scale))
            return value.numerator, value.denominator
        return read
    kernel, den = compiled
    return lambda v: (kernel(v), den)


def _pair_rows(space, mapping, pairs, params):
    """(points, xs, ys, refs, s_ts, den): per pair, in sample order, the
    indices of x and y in ``points``, and the reference and
    S(Tx, Tx, Ty) as ints over den.

    The reference is M(x, y) under ``params``, or S(x, x, y) when
    ``params`` is None; a, b/2 and c/2 are folded into one integer
    weight.  Each distinct reference is coerced once.  On a lattice the
    values are computed over ints, and the space keeps the rows under the
    map, the weights and the pairs (``Space.reuse``) for the next
    condition over them; there the int kernels cannot raise, so the reads
    it saves are not observable.  Otherwise each call reads its own rows
    as Fractions, T applied once to each point of a pair and S read in
    the order of ``_m_folded``, then scaled.
    """
    if pairs is None:
        points = space.points
        n = len(points)
        xs, ys = [i for i in range(n) for _ in range(n)], list(range(n)) * n
    else:
        ends = list(itertools.chain.from_iterable(pairs))
        coerced = {r: space.coerce(r) for r in dict.fromkeys(ends)}
        at = {p: i for i, p in enumerate(dict.fromkeys(coerced.values()))}
        points, ends = list(at), [at[coerced[r]] for r in ends]
        xs, ys = ends[0::2], ends[1::2]
    weights = (1, 1, 0, 0) if params is None else _folded(params)
    def rows():
        w = weights[0]
        read = _read(space, mapping, points)
        if read.scale is None:
            def lookup(i):
                return read.points[i], read.t(read.points[i])
        else:
            lookup = [*zip(read.points, map(read.t, read.points))].__getitem__
        s, refs, s_ts = read.s, [], []
        for i, j in zip(xs, ys):
            (x, tx), (y, ty) = lookup(i), lookup(j)
            refs.append(_m_folded(s, weights, x, y, tx, ty))
            s_ts.append(w * s(tx, tx, ty))
        den = read.den * w
        if read.scale is None:
            one, *flat = _scaled([1, *refs, *s_ts])
            refs, s_ts = flat[:len(refs)], flat[len(refs):]
            den *= one
        return (points, xs, ys, refs, s_ts, den), read.scale is not None
    key = ("rows", mapping, weights,
           None if pairs is None else (points, xs, ys))
    return space.reuse(key, rows)


def _column(values, den, kept, violating=None):
    """The ``kept`` rows of ``values`` as a ``Scaled`` column.  When the
    cap cut some violations, ``violating()`` yields the rows of them all,
    and the column's ``largest`` covers them: the largest |v| over every
    row when its float is in range, else over those rows."""
    largest = None
    if violating is not None:
        largest = max(map(abs, values), default=0)
        try:
            largest / den
        except OverflowError:
            largest = max((abs(values[i]) for i in violating()), default=0)
    return Scaled([values[k] for k in kept], den, largest)


def _evidence(points, xs, ys, kept, columns, total):
    """Rows of the ``kept`` pairs: x and y as indices into ``points``,
    then ``columns``."""
    return Rows([
        Indexed([xs[k] for k in kept], points),
        Indexed([ys[k] for k in kept], points),
        *columns,
    ], total=total)


def verify_condition_i(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    gauge: GaugeSpec | None = None,
    pairs: list[tuple[object, object]] | None = None,
    mode: str = "full",
    tol: object = DEFAULT_TOL,
    max_evidence: int | None = None,
) -> Rows:
    """Check the pointwise bound (i) over a pair sample.

    Modes: "full" compares S(Tx, Tx, Ty) against phi(M(x, y)); "simple"
    against phi(S(x, x, y)); "strict" against M(x, y) itself with margin
    tol, skipping pairs where M(x, y) <= tol (nothing is claimed there).
    Returns the (x, y, reference, S(Tx, Tx, Ty)) rows of the violating
    pairs, in sample order: the first ``max_evidence`` of them, when
    given, with ``total`` counting them all.
    """
    if mode not in ("full", "simple", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("full", "simple") and (gauge is None or gauge.phi is None):
        raise ValueError(f"mode {mode!r} needs a phi gauge")
    tol = to_fraction(tol)
    points, xs, ys, refs, s_ts, den = _pair_rows(
        space, mapping, pairs, None if mode == "simple" else params
    )
    # S(Tx, Tx, Ty) > t exactly when its int v > floor(t * den)
    if mode == "strict":  # s_t <= M - tol, checked with slack
        low, slack = _cut(tol, den), _cut(-tol, den)
        cut = {m: m + slack for m in refs if m > low}
    else:  # floor((phi(m / den) + tol) * den) over ints
        phi, cut = _gauge_at(gauge.phi, den), {}
        for m in dict.fromkeys(refs):
            p, q = phi(m)
            cut[m] = (p * tol.denominator + tol.numerator * q) * den \
                // (q * tol.denominator)
    failing = [
        k for k, (m, v) in enumerate(zip(refs, s_ts))
        if v > cut.get(m, math.inf)
    ]
    kept = failing[:max_evidence]
    violating = None if len(kept) == len(failing) else lambda: failing
    return _evidence(points, xs, ys, kept, [
        _column(refs, den, kept, violating),
        _column(s_ts, den, kept, violating),
    ], len(failing))


def eps_grid(
    m_values: list[object],
    user_eps: list[object] | None = None,
    tol: object = DEFAULT_TOL,
) -> list[Fraction]:
    """Probe values for condition (ii) from the realized M values.

    For the distinct realized values m_1 < m_2 < ... the grid contains
    0.9 * m_i, m_i - tol, and the midpoint of each consecutive gap, plus
    any caller-supplied probes, all filtered to be positive.
    """
    den, *ms = _scaled([1, *map(to_fraction, m_values)])
    scale, probes = _probes(ms, den, user_eps, to_fraction(tol))
    return [Fraction(e, scale) for e in probes]


def _probes(ms, den, user_eps, tol):
    """(scale, probes): ``eps_grid`` of the values m / den for m in
    ``ms``, as sorted ints over scale = den * lcm(10, the dens of tol and
    of each user probe), over which each probe is an int."""
    user = [to_fraction(e) for e in user_eps or []]
    k = math.lcm(10, tol.denominator, *(e.denominator for e in user))
    scale = den * k
    realized = sorted({m for m in ms if m > 0})
    shift = tol.numerator * (scale // tol.denominator)
    probes = {m * k - shift for m in realized}
    probes.update(m * (k // 10 * 9) for m in realized)
    probes.update((lower + upper) * (k // 2)
                  for lower, upper in itertools.pairwise(realized))
    probes.update(e.numerator * (scale // e.denominator) for e in user)
    return scale, sorted(e for e in probes if e > 0)


def _windows_total(s_ts, order, windows):
    """How many rows lie in each window with S(Tx, Tx, Ty) past its cap,
    summed over the windows, without listing them: windows by cap and rows
    by S(Tx, Tx, Ty), both descending, each row entered at its M-rank in a
    Fenwick tree before the windows it exceeds count it."""
    n = len(order)
    by_rank = [s_ts[i] for i in order]
    entering = sorted(range(n), key=by_rank.__getitem__, reverse=True)
    tree, total, entered = [0] * (n + 1), 0, 0

    def before(rank):  # rows entered with an M-rank below ``rank``
        count = 0
        while rank:
            count += tree[rank]
            rank &= rank - 1
        return count

    for start, end, cap in sorted(windows, key=operator.itemgetter(2),
                                  reverse=True):
        while entered < n and by_rank[entering[entered]] > cap:
            rank = entering[entered] + 1
            while rank <= n:
                tree[rank] += 1
                rank += rank & -rank
            entered += 1
        total += before(end) - before(start)
    return total


def condition_ii_probe(
    space: Space,
    mapping: Mapping,
    params: ContractionParams,
    gauge: GaugeSpec,
    pairs: list[tuple[object, object]] | None = None,
    eps_values: list[object] | None = None,
    tol: object = DEFAULT_TOL,
    max_evidence: int | None = None,
) -> tuple[list[Fraction], Rows]:
    """Check the window condition (ii) over the eps probe grid.

    For each probe eps the window is (eps, eps + delta(eps)), membership
    exact; every pair whose M value falls inside must have
    S(Tx, Tx, Ty) <= eps + tol.  The rows are sorted by M once; each
    probe bisects its window in them and keeps the rows inside it whose
    S(Tx, Tx, Ty) exceeds eps + tol, in pair order.  A probe with
    delta(eps) <= 0 is a configuration error.  Returns the probe grid and
    the violations as (x, y, eps, M(x, y), S(Tx, Tx, Ty)), ordered by
    eps, then by pair position: the first ``max_evidence`` of them, when
    given, with ``total`` counting them all.  Once that many are kept, the
    probes only bisect their windows, and the total is counted by
    ``_windows_total``.
    """
    if gauge.delta is None:
        raise ValueError("condition (ii) needs a delta gauge")
    tol = to_fraction(tol)
    points, xs, ys, ms, s_ts, den = _pair_rows(space, mapping, pairs, params)
    scale, eps_ints = _probes(ms, den, eps_values, tol)
    grid = [Fraction(e, scale) for e in eps_ints]
    order = sorted(range(len(ms)), key=ms.__getitem__)
    keys = [ms[i] for i in order]
    room = len(grid) * len(ms) if max_evidence is None else max_evidence
    # over den: eps is e / up, eps + tol is (e + shift) / up, and the
    # window's end eps + p/q is (e * q + p * scale) / (up * q)
    delta, up = _gauge_at(gauge.delta, scale), scale // den
    shift = tol.numerator * (scale // tol.denominator)
    windows, probes, kept = [], [], []
    for k, e in enumerate(eps_ints):
        p, q = delta(e)
        if p <= 0:
            raise GaugeDomainError(
                f"delta({grid[k]}) = {Fraction(p, q)} is not positive"
            )
        start = bisect.bisect_right(keys, e // up)
        end = bisect.bisect_left(keys, -(-(e * q + p * scale) // (up * q)))
        cap = (e + shift) // up
        windows.append((start, end, cap))
        if len(kept) < room:
            inside = sorted(i for i in order[start:end] if s_ts[i] > cap)
            inside = inside[:room - len(kept)]
            kept += inside
            probes += [k] * len(inside)
    total, violating = len(kept), None
    if total == room:  # the cap may have cut some
        total = _windows_total(s_ts, order, windows)

        def violating():
            for start, end, cap in windows:
                yield from (i for i in order[start:end] if s_ts[i] > cap)

    return grid, _evidence(points, xs, ys, kept, [
        Indexed(probes, grid),
        _column(ms, den, kept, violating),
        _column(s_ts, den, kept, violating),
    ], total)
