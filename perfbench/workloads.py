"""The three benchmark workloads: inputs from a seed, one operation, references.

Each workload builds a fixed pool of inputs from its seed in setup(); op(k)
runs operation k on pool entry k modulo the pool size and returns the count
the program produced.  expected(k) gives the independent reference count,
computed outside every timed region and once per pool entry.  Operations
call primalcount through module attributes, so a Tracer sees every call.
"""

import contextlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd

from primalcount import cli, genfun, oracle, parametric
from primalcount.halfopen import HalfOpenPolyhedron
from primalcount.lp import interior_point
from primalcount.polytope import HPolytope


class OpFailed(Exception):
    """An operation ended without a count, e.g. a non-zero CLI exit."""


class Workload:
    name = None
    setup_in_trace = False  # whether the traced pass repeats setup()
    trace_ops = 0  # operations in one traced pass
    round_ops = 1  # a timed run holds whole rounds of this many operations

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.pool = []
        self._expected = {}

    def setup(self):
        raise NotImplementedError

    def write_inputs(self):
        """Write the files the operations read; not part of setup time."""

    def op(self, k):
        raise NotImplementedError

    def _reference(self, entry):
        raise NotImplementedError

    def expected(self, k):
        i = k % len(self.pool)
        if i not in self._expected:
            self._expected[i] = self._reference(self.pool[i])
        return self._expected[i]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# count-random


def random_polytope(rng, d, cuts):
    """A box with sides in [0, 9] plus `cuts` random cuts, full-dimensional.

    The acceptance test on random polytopes draws 0-3 cuts per polytope;
    here the caller cycles the cut count, so every seed has the same mix
    and the spread between seeds stays small.  The interior-point filter
    calls the library's LP, so it is part of setup.
    """
    while True:
        A, b = [], []
        for j in range(d):
            row = [0] * d
            row[j] = 1
            A.append(tuple(row))
            b.append(rng.randint(0, 9))
            row = [0] * d
            row[j] = -1
            A.append(tuple(row))
            b.append(rng.randint(0, 9))
        for _ in range(cuts):
            extra = tuple(rng.randint(-9, 9) for _ in range(d))
            if any(extra):
                A.append(extra)
                b.append(rng.randint(-9, 9))
        if interior_point([list(r) for r in A], list(b)) is not None:
            return HPolytope(A=tuple(A), b=tuple(b))


class CountRandom(Workload):
    name = "count-random"
    pool_size = 600
    trace_ops = 40
    round_ops = 4  # one polytope with each cut count

    def setup(self):
        rng = random.Random(self.seed)
        self.pool = [random_polytope(rng, 3, k % 4) for k in range(self.pool_size)]

    def op(self, k):
        return genfun.count_polytope(self.pool[k % len(self.pool)])

    def _reference(self, P):
        return oracle.brute_count(P)


# ---------------------------------------------------------------------------
# count-skew

# Coefficient ranges per dimension.  Vertex cones of x >= 0, a.x <= b have
# index a_i^(d-1); these ranges give 3-d indices up to 6400 and 4-d up to
# 3375 at 0.1-0.3 s and 1-2 s per count, so a run holds over 100 counts.
SKEW_RANGES = {3: (30, 80), 4: (5, 15)}
SKEW_4D_EVERY = 20  # every 20th operation is 4-d


def skew_coefficients(rng, d):
    low, high = SKEW_RANGES[d]
    while True:
        a = tuple(rng.randint(low, high) for _ in range(d))
        if all(gcd(x, y) == 1 for x, y in combinations(a, 2)):
            return a


def skew_reference(a, b):
    """#{x in Z^d : x >= 0, a.x <= b} by a dynamic program over b.

    The count is the coefficient of z^b in 1/((1 - z) prod (1 - z^a_i)).
    Multiplying by 1/(1 - z^c) is a running sum along each residue class
    mod c.  Independent of the library, and linear in b.
    """
    coeffs = [1] + [0] * b
    for c in (1,) + tuple(a):
        for r in range(min(c, b + 1)):
            coeffs[r::c] = accumulate(coeffs[r::c])
    return coeffs[b]


def skew_polytope(a, b):
    """The simplex x >= 0, a.x <= b."""
    d = len(a)
    A = tuple(tuple(-1 if i == j else 0 for j in range(d)) for i in range(d))
    return HPolytope(A=A + (tuple(a),), b=(0,) * d + (b,))


def skew_text(a, b):
    """The simplex in the CLI's polytope file format."""
    P = skew_polytope(a, b)
    rows = [" ".join(str(x) for x in row + (rhs,)) for row, rhs in zip(P.A, P.b)]
    return f"{len(a)} {len(rows)}\n" + "\n".join(rows) + "\n"


class CountSkew(Workload):
    name = "count-skew"
    pool_sizes = {3: 160, 4: 8}
    trace_ops = round_ops = SKEW_4D_EVERY  # 19 3-d counts, then one 4-d
    dir = None  # the input files, written by write_inputs()

    def setup(self):
        """Draw the pool and check that the library parses each input back."""
        rng = random.Random(self.seed)
        self.by_dim = {}
        for d, size in self.pool_sizes.items():
            entries = []
            for _ in range(size):
                a = skew_coefficients(rng, d)
                b = int(10 ** rng.uniform(3, 6))
                text = skew_text(a, b)
                if cli.parse_polytope(text) != skew_polytope(a, b):
                    raise ValueError(f"input for a = {a}, b = {b} does not parse back")
                entries.append((a, b, text))
            self.by_dim[d] = entries

    def write_inputs(self):
        self.close()
        self.dir = tempfile.mkdtemp(prefix="count-skew-", dir=self.workdir)
        for d, entries in self.by_dim.items():
            for i, (_, _, text) in enumerate(entries):
                with open(self._path(d, i), "w", encoding="utf-8") as handle:
                    handle.write(text)

    def _path(self, d, i):
        return f"{self.dir}/{d}d-{i:03d}.txt"

    def _entry(self, k):
        """(dimension, pool index) of operation k."""
        if k % SKEW_4D_EVERY == SKEW_4D_EVERY - 1:
            d, i = 4, k // SKEW_4D_EVERY
        else:
            d, i = 3, k - k // SKEW_4D_EVERY
        return d, i % len(self.by_dim[d])

    def op(self, k):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["count", self._path(*self._entry(k)), "--json"])
        if code != 0:
            raise OpFailed(f"primalcount count exited {code}")
        return int(json.loads(out.getvalue())["count"])

    def expected(self, k):
        key = self._entry(k)
        if key not in self._expected:
            a, b, _ = self.by_dim[key[0]][key[1]]
            self._expected[key] = skew_reference(a, b)
        return self._expected[key]

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


# ---------------------------------------------------------------------------
# pcount-sweep

# x >= 0 and five rows a.x <= e.q + f over q >= 0: 29 vertex maps and 21
# chambers; one evaluation sums about 17 cached leaf cones.
FAMILY_A = ((-1, 0, 0), (0, -1, 0), (0, 0, -1),
            (1, 2, 3), (3, 2, 1), (1, 1, 1), (2, 1, 0), (0, 1, 2))
FAMILY_E = ((0, 0), (0, 0), (0, 0),
            (1, 0), (0, 1), (1, 1), (1, 0), (0, 1))
FAMILY_F = (0, 0, 0, 0, 0, 0, 4, 3)
SMALL_Q = 24  # points up to here are also checked by enumeration


def sweep_point(rng, k):
    """Parameter point k: small or up to 1e6, integral or rational, by k % 4."""
    kind = k % 4
    den = rng.choice((2, 3, 5)) if kind % 2 else 1
    if kind < 2:
        return tuple(Fraction(rng.randint(0, SMALL_Q * den), den) for _ in range(2))
    return tuple(Fraction(int(10 ** rng.uniform(0, 6)) * den + rng.randrange(den), den)
                 for _ in range(2))


class PcountSweep(Workload):
    name = "pcount-sweep"
    setup_in_trace = True
    pool_size = 400
    trace_ops = 200
    round_ops = 4  # one point of each kind

    def setup(self):
        """Build the family, analyse it, and fill the decomposition cache."""
        qset = HalfOpenPolyhedron.from_inequalities(((-1, 0), (0, -1)), (0, 0))
        self.pp = parametric.ParametricPolytope(FAMILY_A, FAMILY_E, FAMILY_F, qset)
        analysis = self.pp.analysis()
        for chamber in analysis.chambers:
            analysis.count_at(chamber.sample)
        rng = random.Random(self.seed)
        self.pool = [sweep_point(rng, k) for k in range(self.pool_size)]

    def op(self, k):
        return parametric.evaluate_count(self.pp, self.pool[k % len(self.pool)])

    def _reference(self, q):
        via_activities = self.pp.analysis().count_at(q, via="activities")
        if max(q) <= SMALL_Q:
            b = tuple(sum(e * x for e, x in zip(erow, q)) + f
                      for erow, f in zip(FAMILY_E, FAMILY_F))
            brute = oracle.brute_count(HPolytope(A=FAMILY_A, b=b))
            if brute != via_activities:
                raise OpFailed(f"references disagree at q = {q}: "
                               f"enumeration {brute}, activities {via_activities}")
        return via_activities


WORKLOADS = {w.name: w for w in (CountRandom, CountSkew, PcountSweep)}
