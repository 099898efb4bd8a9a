"""Hot solver kernels, written on Python big-int bitsets.

There is one implementation in plain Python and nothing to compile.  A set
of sums is an int whose bit s is set when s is reachable, so adding an item
to every reachable sum is one shift and one or over the whole set.  The
oracles call these functions as ``kernels.<name>`` at call time, so a
caller may rebind them (to trace them, say).

Contract:

- ``subset_sum_solve(items, target)``: items outside [1, target] are never
  used; returns an ascending index list summing to target, or None.
- ``subset_sum_mod_solve(items, q, target)``: target in [0, q), items
  taken mod q; returns an ascending index list summing to target mod q, or
  None.
- Both hold about ``2 * sqrt(n)`` bitsets of ``target + 1`` (or q) bits
  at once for n items: every isqrt(n)+1-th prefix, plus one block of
  prefixes recomputed during the walk back (see ``_scan``).
- ``counter_machine_solve(incs, decs, required, dimension, limit)``: disjoint
  masks of +1/-1 coordinates per vector; returns the chosen ascending index
  list, or None; raises RuntimeError once more than ``limit`` states are
  stored.
- ``ilp_column_codes(columns, rows)``: the row totals of |entries|, the
  base B and the balanced-base integer codes of the columns;
  ``ilp_rhs_code(rhs, totals, base)``: the code of rhs, or None when some
  row's rhs is out of reach of every 0/1 combination.  A caller codes one
  set of columns once for many right-hand sides.
- ``ilp01_brute(codes, rhs, base)``: exact 0-1 search for A x = rhs by meet
  in the middle over the column codes in base B, for an rhs that
  ``ilp_rhs_code`` accepts; returns a 0/1 assignment list, or None.  Stores
  the 2^ceil(n/2) subset sums of each half of the n codes.
- ``pareto_solve(items, caps, goal, limit)``: (cost, value) items with
  nonnegative entries; item i may be taken when the cost of the items taken
  up to and including i is at most ``caps[i]``; returns an ascending index
  list whose values sum to at least goal, or None.  Stores one
  non-dominated front per item, each of at most min(max(caps) + 1, goal)
  pairs, one int each; raises RuntimeError once more than ``limit`` pairs
  are stored.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt

BACKEND = "pure"


def subset_sum_solve(items, target):
    """Bitset subset sum; items outside [1, target] are skipped."""
    if target < 0:
        return None
    mask = (1 << (target + 1)) - 1

    def add(reach, p):
        if 1 <= p <= target:
            return reach | ((reach << p) & mask)
        return reach

    # the remaining sum stays in [0, target], where mod target+1 is a no-op
    return _scan(items, target, add, target + 1)


def subset_sum_mod_solve(items, q, target):
    """Bitset subset sum over Z_q: adding p rotates the set by p mod q."""
    full = (1 << q) - 1

    def add(reach, p):
        p %= q
        if p:
            return reach | (((reach << p) | (reach >> (q - p))) & full)
        return reach

    return _scan(items, target, add, q)


def _scan(items, target, add, q):
    """Add items until bit ``target`` is set, then walk back to a witness.

    ``add(reach, p)`` is the set of sums after item p joins the sums in
    ``reach``.  Walking back from the last item scanned, item i is needed
    exactly when the remaining sum s is missing from the sums reachable
    before i; s then moves to (s - items[i]) mod q.  Only every k-th prefix
    bitset is kept, k = isqrt(n) + 1, and the walk back recomputes one block
    of k prefixes at a time from its checkpoint: about 2 * sqrt(n) bitsets
    are held at once, for at most twice the shifts.
    """
    k = isqrt(len(items)) + 1
    checkpoints = []
    reach = 1
    scanned = 0
    for p in items:
        if reach >> target & 1:
            break
        if scanned % k == 0:
            checkpoints.append(reach)
        reach = add(reach, p)
        scanned += 1
    if not reach >> target & 1:
        return None
    out = []
    s = target
    for c in range(len(checkpoints) - 1, -1, -1):
        lo, hi = c * k, min(c * k + k, scanned)
        prefixes = [checkpoints[c]]
        for i in range(lo, hi - 1):
            prefixes.append(add(prefixes[-1], items[i]))
        for i in range(hi - 1, lo - 1, -1):
            if not prefixes[i - lo] >> s & 1:
                out.append(i)
                s = (s - items[i]) % q
    out.reverse()
    return out


def counter_machine_solve(incs, decs, required, dimension, limit):
    """Frontier reachability over counter states encoded as bitmasks.

    A vector applies to state s when its +1 coordinates are clear and its -1
    coordinates are set.  Its two masks are disjoint, so with
    ``flip = inc | dec`` it applies when ``s & flip == dec`` and leads to
    ``s ^ flip``, and state s was reached from ``s ^ flip`` when
    ``s & flip == inc``.  Stores each layer's frontier for the backward
    walk; raises RuntimeError when the stored states exceed ``limit``.
    """
    n = len(incs)
    cur = {0}
    layers = [cur]
    total = 1
    for i in range(n):
        dec = decs[i]
        flip = incs[i] | dec
        nxt = set() if required[i] else set(cur)
        for s in cur:
            if s & flip == dec:
                nxt.add(s ^ flip)
        total += len(nxt)
        if total > limit:
            raise RuntimeError("counter machine state limit exceeded")
        layers.append(nxt)
        cur = nxt
        if not cur:
            return None
    if 0 not in cur:
        return None
    chosen = []
    s = 0
    for i in range(n - 1, -1, -1):
        if not required[i] and s in layers[i]:
            continue
        inc = incs[i]
        flip = inc | decs[i]
        if s & flip == inc:
            prev = s ^ flip
            if prev in layers[i]:
                chosen.append(i)
                s = prev
                continue
        raise RuntimeError("counter machine reconstruction failed")
    chosen.reverse()
    return chosen


def ilp_column_codes(columns, rows):
    """Integer codes that turn A x = rhs into one equation over ints.

    A vector v is coded as sum(v[j] * B**j) with B = 2R + 1, where R is the
    largest row total of |entries|.  The code is linear, and one-to-one on
    vectors whose entries all lie in [-R, R]; every 0/1 combination of the
    columns has its row sums there.  So when each |rhs[j]| is at most its
    row's total (``ilp_rhs_code``), x solves A x = rhs exactly when the
    chosen codes sum to the code of rhs.  Returns the row totals of
    |entries|, the base B and the column codes.
    """
    totals = [0] * rows
    for col in columns:
        for j, a in enumerate(col):
            totals[j] += abs(a)
    base = 2 * max(totals, default=0) + 1
    return totals, base, [_code(col, base) for col in columns]


def ilp_rhs_code(rhs, totals, base):
    """The code of rhs, or None when some |rhs[j]| exceeds totals[j]."""
    for b, r in zip(rhs, totals):
        if b > r or -b > r:
            return None
    return _code(rhs, base)


def _code(vec, base):
    acc = 0
    for d in reversed(vec):
        acc = acc * base + d
    return acc


def ilp01_brute(codes, rhs, base):
    """Meet-in-the-middle 0-1 search for A x = rhs (Horowitz and Sahni, 1974).

    ``codes`` are the column codes in base ``base`` (``ilp_column_codes``),
    and every |rhs[j]| is at most its row's total.  Lists the code sums of
    every subset of each half of the codes, then looks up, for each
    right-half sum, the left-half sum that completes the code of rhs.
    """
    goal = _code(rhs, base)
    half = len(codes) // 2
    left = {s: mask for mask, s in enumerate(_subset_sums(codes[:half]))}
    for mask, s in enumerate(_subset_sums(codes[half:])):
        lmask = left.get(goal - s)
        if lmask is not None:
            return [lmask >> i & 1 for i in range(half)] + \
                [mask >> i & 1 for i in range(len(codes) - half)]
    return None


def _subset_sums(codes):
    """sums[mask] is the sum of codes[i] over the set bits i of mask."""
    sums = [0]
    for c in codes:
        sums += [s + c for s in sums]
    return sums


def pareto_solve(items, caps, goal, limit):
    """Non-dominated (cost, value) fronts, one per item (Nemhauser and
    Ullmann, 1969; Lawler and Moore, 1969, for caps that grow).

    A front holds the pairs of the item subsets scanned so far that no other
    pair beats on both cost and value: sorted by cost, values strictly
    increasing, one pair per cost.  The next front is the merge of the front
    with its shift by item i's (p, w), keeping the shifted pairs whose cost
    is at most ``caps[i]``.  The scan stops at the first item whose shift
    reaches goal, so every stored value is below goal, and a pair (c, v) is
    coded as the int c * goal + (goal - 1 - v): ascending ints sort by cost,
    then by value from high to low, and a shift adds p * goal - w.  Walking
    back, a pair that is in the previous front means the item was skipped;
    otherwise the item was taken and the pair came from the previous front's
    pair minus that shift.
    """
    total = 1
    if total > limit:
        raise RuntimeError("pareto front limit exceeded")
    if goal <= 0:
        return []
    m = goal
    front = [m - 1]              # the empty subset: cost 0, value 0
    layers = []
    for i, (p, w) in enumerate(items):
        layers.append(front)
        k = bisect_left(front, (caps[i] - p + 1) * m)   # pairs that fit
        if not k:
            continue
        if front[k - 1] % m < w:
            # the cheapest fitting pair with v + w >= goal ends the scan
            j = 0
            while front[j] % m >= w:
                j += 1
            return _pareto_walk(items, layers, i, front[j], m)
        shift = p * m - w
        merged = front + [x + shift for x in front[:k]]
        merged.sort()
        front = []
        low = m                  # goal - 1 - v of the best value kept so far
        for x in merged:
            u = x % m
            if u < low:
                front.append(x)
                low = u
        total += len(front)
        if total > limit:
            raise RuntimeError("pareto front limit exceeded")
    return None


def _pareto_walk(items, layers, last, x, m):
    """Indices taken to reach pair x of front ``layers[last]``, plus last."""
    chosen = [last]
    for i in range(last - 1, -1, -1):
        prev = layers[i]
        j = bisect_left(prev, x)
        if j < len(prev) and prev[j] == x:
            continue
        p, w = items[i]
        x -= p * m - w
        chosen.append(i)
    chosen.reverse()
    return chosen
