"""Bucketed closed formula for the left action of a square-zero
element, with the star/shift reduction for the right action.

Fix a target pair (u, v) and count r-dimensional subspaces W of Ker(u)
by the label of the quotient pair.  Two filtrations of Ker(u) control
that label: the depth flag F_k = Ker(u) cap Im(u^k), and the coarser
G_k = Ker(u) cap (Im(u^k) + span(u^i v)).  G_k gains one direction
over F_k exactly at the levels where no new cyclic vector appears
(the stalls).  Stalls group into gaps, one gap per positive row-length
value of the vector component, and within gap a the extra direction is
the straightening of u^a v.

A subspace W is classified by its profile rho against the F-flag plus,
for each gap, the deepest level k with u^a v in W + Im(u^k).  The gap
depths range independently over their gaps, the count of subspaces per
class is a product of one four-term inclusion-exclusion factor per gap
(the exclusion terms drop at the gap ceiling, where a deeper position
is impossible), and the quotient label is read off from the class.
The printed one-depth recursion this replaces breaks as soon as two
gaps coexist; every formula here is pinned by brute-force counts.

Targets with no vector component have no gaps and reduce to the
classical one-flag count.

These closed tables serve every structure constant in the package: the
Hall product, both sides of the bimodule, the class ring and the
`mirabolic` command.  A column (`closed_form_G`) reads them only at
the targets its step can reach (`reachable_targets`), built from the
source within the rank (a label fits by `partitions.fits`).  A right
constant is a mirrored left one, read cell by cell (`right_via_star`):
one rank above the target's size for `bimodule.act("right")` away from
the vacuum, which no serving request reaches (`act` reads the vacuum in
closed form), and at its own rank for a right `mirabolic` column.  The
counted tables of `pairs` and the checks of `oracle` are oracles that
only `verify` and the tests reach.
"""

from __future__ import annotations

from itertools import product
from functools import lru_cache
from typing import Mapping

from .errors import EdgeConventionMismatch, MiraError, UsageError
from .laurent import QPoly, gauss_binomial
from .partitions import (
    Bipartition,
    Partition,
    add_parts,
    conjugate,
    fits,
    interleaved_key,
    label_size,
    shifted,
    splits,
    star,
    trim_pair,
    upsilon,
    vertical_strips,
    xi,
)


@lru_cache(maxsize=None)
def _compositions(bounds: tuple[int, ...], total: int) -> tuple[tuple[int, ...], ...]:
    """Every tuple x with 0 <= x[i] <= bounds[i] summing to `total`,
    first entries largest first; only the positive bounds vary."""
    support = [i for i, b in enumerate(bounds) if b]
    return tuple(
        tuple(dict(zip(support, xs)).get(i, 0) for i in range(len(bounds)))
        for xs in product(*(range(bounds[i], -1, -1) for i in support))
        if sum(xs) == total
    )


def _dual_from_profile(profile: list[int]) -> Partition:
    """Partition whose conjugate is the given weakly decreasing list."""
    prof = list(profile)
    while prof and prof[-1] == 0:
        prof.pop()
    if any(prof[i] < prof[i + 1] for i in range(len(prof) - 1)):
        raise EdgeConventionMismatch(f"profile {profile} not weakly decreasing")
    if any(x < 0 for x in prof):
        raise EdgeConventionMismatch(f"profile {profile} negative")
    return conjugate(tuple(prof)) if prof else ()


@lru_cache(maxsize=None)
def closed_left_table(tgt: Bipartition, r: int) -> Mapping[Bipartition, QPoly]:
    """Constants of the rank-r square-zero left action at one target,
    keyed by source label."""
    tgt = trim_pair(tgt)
    lam, mu = tgt
    if r < 0:
        raise UsageError("negative rank")
    if r == 0:
        return {tgt: QPoly.one()}
    nu = add_parts(lam, mu)
    if r > len(nu):
        return {}
    nu1 = nu[0]
    nut = [0] * (nu1 + 3)
    for k, val in enumerate(conjugate(nu), start=1):
        nut[k] = val
    _, theta = upsilon(tgt)
    tht = [0] * (nu1 + 3)
    for k, val in enumerate(conjugate(theta), start=1):
        tht[k] = val

    lam1 = lam[0] if lam else 0
    mup = tuple(mu[i] if i < len(mu) else 0 for i in range(len(lam)))
    marks = [
        min(a + mup[i] for i in range(len(lam)) if lam[i] > a)
        for a in range(lam1)
    ]
    # a gap between consecutive marks has no stalled level and carries
    # no choice; only gaps with room participate
    gaps = [
        (marks[a], marks[a + 1] - 1 if a + 1 < lam1 else nu1)
        for a in range(lam1)
    ]
    gaps = [(fl, ce) for fl, ce in gaps if ce > fl]
    gap_of = [-1] * (nu1 + 2)
    for a, (fl, ce) in enumerate(gaps):
        for t in range(fl + 1, ce + 1):
            gap_of[t] = a

    d = [nut[k] - nut[k + 1] for k in range(1, nu1 + 1)]
    denom = QPoly.one()
    for fl, _ in gaps:
        denom = denom * (QPoly.q_power(nut[fl + 1]) - QPoly.q_power(nut[fl + 2]))

    out: dict[Bipartition, QPoly] = {}
    for rho in _compositions(tuple(d), r):
        rsum = [0] * (nu1 + 2)
        for t in range(nu1 - 1, -1, -1):
            rsum[t] = rsum[t + 1] + rho[t]

        def cap(i: int, l: int) -> int:
            if l >= i:
                return nut[min(l, nu1) + 1]
            return nut[min(i, nu1) + 1] + rsum[l] - rsum[min(i, nu1)]

        p_rho = QPoly.one()
        for k in range(nu1):
            p_rho = p_rho * gauss_binomial(d[k], rho[k])
        # sum over k < l of rho[k] (d[l] - rho[l]), by suffix sums
        cell = free = 0
        for k in range(nu1 - 1, -1, -1):
            cell += rho[k] * free
            free += d[k] - rho[k]
        p_rho = p_rho * QPoly.q_power(cell)
        if p_rho.is_zero():
            continue

        bucket_sum = QPoly.zero()
        for depths in product(*(range(fl, ce + 1) for fl, ce in gaps)):
            num = p_rho
            for a, (fl, ce) in enumerate(gaps):
                j = depths[a]
                fac = QPoly.q_power(cap(j, fl)) - QPoly.q_power(cap(j, fl + 1))
                if j < ce:
                    fac = (
                        fac
                        - QPoly.q_power(cap(j + 1, fl))
                        + QPoly.q_power(cap(j + 1, fl + 1))
                    )
                num = num * fac
            if num.is_zero():
                continue
            try:
                cnt = num.exact_div(denom)
            except MiraError as exc:
                raise EdgeConventionMismatch(
                    f"class ({rho}, {depths}) at {tgt}: count not polynomial"
                ) from exc
            bucket_sum = bucket_sum + cnt
            if cnt.is_zero():
                continue
            s = [0] * (nu1 + 2)
            for t in range(1, nu1 + 1):
                a = gap_of[t]
                if a >= 0 and t <= depths[a]:
                    s[t] = 1
            nu_prof = [nut[k] - rho[k - 1] for k in range(1, nu1 + 1)]
            th_prof = [
                tht[k] - (rho[k - 1] + s[k - 1] - s[k])
                for k in range(1, nu1 + 1)
            ]
            try:
                src = xi(_dual_from_profile(nu_prof), _dual_from_profile(th_prof))
            except MiraError as exc:
                raise EdgeConventionMismatch(
                    f"class ({rho}, {depths}) at {tgt}: no label for quotient"
                ) from exc
            out[src] = out.get(src, QPoly.zero()) + cnt
        if bucket_sum != p_rho:
            raise EdgeConventionMismatch(
                f"classes of {rho} at {tgt} sum to {bucket_sum.pretty()}, "
                f"want {p_rho.pretty()}"
            )
    return {k: v for k, v in out.items() if not v.is_zero()}


@lru_cache(maxsize=None)
def reachable_targets(nu: Partition, r: int, rank: int | None = None) -> tuple[Bipartition, ...]:
    """Every label that a rank-r square-zero step can reach from a source
    of Jordan type nu = lam + mu (`add_parts`), at most `rank` rows per
    component, in `bipartitions_of` order: the splits of nu plus a
    vertical r-strip, since the classical Hall polynomial
    g^nu'_(nu, (1^r)) is nonzero only then (Macdonald, ch. II §4).  A
    label fits `rank` exactly when its Jordan type does."""
    targets = [tgt for big in vertical_strips(nu, r, rank) for tgt in splits(big)]
    rows = len(nu) + r  # no target has more
    return tuple(sorted(targets, key=lambda bp: interleaved_key(bp, rows), reverse=True))


@lru_cache(maxsize=None)
def closed_form_G(
    r: int, src: Bipartition, side: str = "left", rank: int | None = None
) -> Mapping[Bipartition, QPoly]:
    """Constants of the square-zero action on one side and one source,
    keyed by target label, over the `reachable_targets` (at most `rank`
    rows per component, if given); a right constant is the mirror one
    rank above the target's size (`right_via_star`)."""
    src = trim_pair(src)
    top = label_size(src) + r + 1
    cell = {
        "left": lambda tgt: closed_left_table(tgt, r).get(src),
        "right": lambda tgt: right_via_star(tgt, src, r, top),
    }[side]
    targets = reachable_targets(add_parts(*src), r, rank)
    cells = {tgt: cell(tgt) for tgt in targets}
    return {tgt: poly for tgt, poly in cells.items() if poly}


def _rank_source(src: Bipartition, rank: int) -> Bipartition:
    """The trimmed source, which must have at most `rank` rows per
    component."""
    src = trim_pair(src)
    if not fits(src, rank):
        raise UsageError(f"source {src} needs more than {rank} rows")
    return src


def closed_left_column(
    r: int, src: Bipartition, rank: int
) -> Mapping[Bipartition, QPoly]:
    """`closed_form_G` on the left, with labels of at most `rank` rows
    per component: a longer source is a usage error, as in
    `stable_right_column`."""
    return closed_form_G(r, _rank_source(src, rank), "left", rank)


def stable_right_column(
    r: int, src: Bipartition, rank: int
) -> Mapping[Bipartition, QPoly]:
    """Stabilised right constants (`oracle.stable_right_constant`) on one
    source, keyed by target label, read from the mirror at `rank`.

    Labels have at most `rank` rows per component: a longer source, or
    r >= rank on a nonempty source, is a usage error.  Only at the
    vectorless square-zero target do these differ from `closed_form_G`,
    which keeps the mass that the stabilised count sheds."""
    src = _rank_source(src, rank)
    if src == ((), ()):
        return {((), (1,) * r): QPoly.one()} if r <= rank else {}
    if r >= rank:
        raise UsageError(f"rank-{r} generator on {src} needs rank above {r}, "
                         f"got {rank}")
    cells = {
        tgt: right_via_star(tgt, src, r, rank)
        for tgt in reachable_targets(add_parts(*src), r, rank)
    }
    return {tgt: poly for tgt, poly in cells.items() if poly}


def _mirror(
    tgt: Bipartition, src: Bipartition, rank: int
) -> tuple[Bipartition, Bipartition]:
    """Target and source of a right constant carried to the left side.

    Mirroring swaps the two components and negates their rows; the
    target's first slot then takes one extra box per row.  The two
    slots take independent lifts (one for first components, one for
    second), shared between the target and the source: each is the
    least that leaves every row of both labels positive.  A star is
    weakly decreasing, so the lifted rows are already a partition."""
    a = tuple(x + 1 for x in star(tgt[1], rank))
    b = star(tgt[0], rank)
    a2, b2 = star(src[1], rank), star(src[0], rank)
    i = max(0, -min(a), -min(a2)) + 1
    j = max(0, -min(b), -min(b2)) + 1
    return (shifted(a, i), shifted(b, j)), (shifted(a2, i), shifted(b2, j))


def right_via_star(tgt: Bipartition, src: Bipartition, r: int, rank: int) -> QPoly:
    """Right-action constant from the mirrored left-action table.

    `_mirror` carries the target and the source to the left side: swap
    the components, negate the rows, give the target's first slot one
    extra box per row, and lift both slots until every row is positive.
    The extra boxes are forced by box count: a right generator adding r
    boxes must match a left generator adding rank - r.

    The result is the stabilised constant that
    `oracle.stable_right_constant` counts (`oracle.rho_check` pins the
    two together), and the only route to right-side constants:
    `stable_right_column` reads it at its own rank, `closed_form_G`
    one rank above the target's size."""
    if not 1 <= r <= rank - 1:
        raise UsageError(f"rank-{r} generator outside 1..{rank - 1}")
    big_tgt, big_src = _mirror(tgt, src, rank)
    return closed_left_table(big_tgt, rank - r).get(big_src, QPoly.zero())


