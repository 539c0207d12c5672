"""Vector-space allocation on a binary interference topology.

Two graphs drive the solution.  The alignment graph joins transmitters
that interfere at a common unintended receiver (their beams must share a
direction there to occupy a single dimension); the conflict graph joins a
transmitter to each receiver it interferes at (their signal spaces must
stay linearly independent).  Users untouched by interference keep their
whole space.  If no alignment component contains a conflict between two
of its own members, every remaining user gets half its space in a 2-use
block; otherwise the conflict graph is fractionally colored and users get
orthogonal time-sharing slots.  Every such component takes the exact LP
over its maximal independent sets, up to COLORING_LP_LIMIT = 16 users;
there is no heuristic fallback, so a larger one raises BudgetOutOfRange,
as does a solution whose directions would hold more than
MAX_DIRECTION_ENTRIES coordinates, before any is built.

At 16 users the LP stays cheap (integer simplex, one thread of a 2-vCPU
VM, Bron-Kerbosch + LP): a hub joined to five triangles, 244 maximal
sets, 1.3 + 46 ms; a 16-cycle, 90 sets, 0.9 + 17 ms; complete
multipartite graphs, 2-16 sets, under 1.3 ms.  The LP's time grows with
the number of sets, not only the users: the hub with six and seven
triangles (19 users, 730 sets; 22 users, 2,188 sets) takes 0.54 s and
4.6 s, a 24-cycle (853 sets) 2.4 s.  The sets of m users can number
3^(m/3) (Moon and Moser), so a higher user limit would have to bound the
set count as well.

The solution depends on the topology only through K and the two graphs.
A caller that solves many related topologies (a decomposition search)
keeps its own cache of solutions by graph pair, and passes tim_solve a
coloring memo, so equal conflict components share one fractional
coloring across distinct graph pairs.

Every solution carries an explicit vector assignment so the evaluator can
certify the claimed fractions on the binary channel.  Its directions are
integral (basis vectors and half-rate (1, t) pairs, zero-padded into the
block), so they are built and compared as Python ints; the scheme built
from them converts each coordinate to a Fraction at the model boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from . import exactlp
from .model import BudgetOutOfRange, InvariantViolation, over_lcm

COLORING_LP_LIMIT = 16  # largest conflict component the exact coloring LP accepts
# Most coordinates a solution's directions may hold in all: the block n is
# the lcm of the component blocks, so a few small components can need a
# huge one.  Disjoint circulant components C_m(1, 2) of 11 and 13 users
# hold 143,143 (n = 143) and `timtin tim` prints them at 39 MB peak RSS in
# 0.23 s; 5, 7 and 11 users hold 889,350 (n = 385) and take 157 MB; add
# 13 users and 2.5e8 would take gigabytes.
MAX_DIRECTION_ENTRIES = 250_000


@dataclass(frozen=True)
class TimTopology:
    """Directed cross links (receiver, transmitter) of equal strength."""

    K: int
    links: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "links", frozenset(self.links))  # a frozenset is kept as is
        for link in self.links:
            # a bool or an integer-valued float is not a user index
            if not (type(link) is tuple and len(link) == 2 and type(link[0]) is type(link[1]) is int):
                raise ValueError(f"link {link!r} is not a pair of int user indices")
            k, i = link
            if k == i:
                raise ValueError(f"self link ({k},{i})")
            if not (0 <= k < self.K and 0 <= i < self.K):
                raise ValueError(f"link ({k},{i}) out of range for K={self.K}")


@dataclass(frozen=True)
class TimSolution:
    """Per-user signal-space fractions with a realizing vector assignment.

    ``directions[u]`` lists the n-dimensional beam directions of user u
    as tuples of ints, each with first nonzero coordinate 1; users sharing
    a direction are alignment-compatible and conflicting users' directions
    are linearly independent.
    """

    fractions: tuple[Fraction, ...]
    method: str  # 'full' | 'half_rate' | 'coloring'
    n: int
    directions: tuple[tuple[tuple[int, ...], ...], ...]

    @cached_property
    def scaled_fractions(self) -> tuple[int, tuple[int, ...]]:
        """(B, F): the fractions as the integers F[u] over their lcm B."""
        return over_lcm(self.fractions)


def build_graphs(topo: TimTopology):
    """Alignment and conflict edges as sorted unordered pairs."""
    heard: list[list[int]] = [[] for _ in range(topo.K)]
    for k, i in sorted(topo.links):
        heard[k].append(i)
    alignment = frozenset(pair for sources in heard for pair in combinations(sources, 2))
    conflict = frozenset((i, k) if i < k else (k, i) for k, i in topo.links)
    return alignment, conflict


def _adjacency(K: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(K)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected_components(nodes, adj) -> list[list[int]]:
    seen = set()
    components = []
    node_set = set(nodes)
    for start in sorted(nodes):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = []
        while queue:
            u = queue.pop()
            comp.append(u)
            for v in adj[u]:
                if v in node_set and v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(sorted(comp))
    return components


def _maximal_independent_sets(members: list[int], adj) -> list[frozenset[int]]:
    """Maximal independent sets of the subgraph induced on ``members``: the
    complement's maximal cliques, by Bron-Kerbosch with pivoting (Tomita,
    Tanaka and Takahashi, 2006) on bitmasks over member positions.  They
    come in ascending mask order, the LP column order its vertex depends on."""
    index = {v: i for i, v in enumerate(members)}
    everyone = (1 << len(members)) - 1
    free = [  # members independent of member i, i excluded
        everyone & ~(1 << i) & ~sum(1 << index[w] for w in adj[v] if w in index)
        for i, v in enumerate(members)
    ]
    found = []

    def expand(chosen: int, candidates: int, excluded: int):
        if not candidates | excluded:
            found.append(chosen)
            return
        pivot = max(_bits(candidates | excluded), key=lambda u: (candidates & free[u]).bit_count())
        for v in _bits(candidates & ~free[pivot]):
            expand(chosen | 1 << v, candidates & free[v], excluded & free[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    expand(0, everyone, 0)
    return [frozenset(v for i, v in enumerate(members) if mask >> i & 1) for mask in sorted(found)]


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def fractional_coloring(members: list[int], adj):
    """Exact fractional chromatic number of the conflict subgraph plus an
    integral slot schedule realizing it.

    Returns (chi_f, slots) where slots is a list of (independent set,
    multiplicity); total multiplicity is chi_f * D and every member is
    covered at least D times, D the common denominator.  More than
    COLORING_LP_LIMIT members raise BudgetOutOfRange before any work.
    """
    if len(members) > COLORING_LP_LIMIT:
        raise BudgetOutOfRange(f"{len(members)}-user conflict component exceeds {COLORING_LP_LIMIT}")
    sets = _maximal_independent_sets(members, adj)
    chi_f, weights = exactlp.minimize(sets, members)
    denom = lcm(*[w.denominator for w in weights], 1)
    slots = [
        (s, int(w * denom))
        for s, w in sorted(zip(sets, weights), key=lambda p: sorted(p[0]))
        if w > 0
    ]
    if sum(count for _, count in slots) != chi_f * denom:
        raise InvariantViolation("coloring slots do not add up to chi_f times their denominator")
    return chi_f, slots


def _basis_vector(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if idx == j else 0 for idx in range(n))


def tim_solve(topo: TimTopology, memo: dict | None = None) -> TimSolution:
    """Per-user signal-space fractions with a certifiable vector assignment.

    ``memo`` is the coloring memo: fractional_coloring results, keyed by a
    component's members and its conflict edges.  A caller solving many
    related topologies (one decomposition search) passes one dict to all.
    """
    memo = {} if memo is None else memo
    K, (alignment, conflict) = topo.K, build_graphs(topo)
    conf_adj = _adjacency(K, conflict)
    align_adj = _adjacency(K, alignment)
    active = [u for u in range(K) if conf_adj[u]]

    # Classify each conflict component: half-rate when no alignment group
    # contains a conflict between two of its own members.
    plans = []  # (local block size, {user: [local directions]}, fraction, needs_coloring)
    clean_group_parameter = 0
    for comp in _connected_components(active, conf_adj):
        groups = _connected_components(comp, align_adj)
        group_of = {u: gi for gi, g in enumerate(groups) for u in g}
        internal = any(
            group_of[u] == group_of[v]
            for u, v in conflict
            if u in group_of and v in group_of
        )
        if not internal:
            local = {}
            for g in groups:
                for u in g:
                    local[u] = [(1, clean_group_parameter)]
                clean_group_parameter += 1
            plans.append((2, local, Fraction(1, 2), False))
        else:
            inside = set(comp)
            key = (tuple(comp), tuple(sorted(e for e in conflict if e[0] in inside)))
            if key not in memo:
                memo[key] = fractional_coloring(comp, conf_adj)
            chi_f, slots = memo[key]
            block = sum(count for _, count in slots)
            local = {u: [] for u in comp}
            slot_index = 0
            for s, count in slots:
                for _ in range(count):
                    for u in s:
                        local[u].append(_basis_vector(block, slot_index))
                    slot_index += 1
            plans.append((block, local, 1 / chi_f, True))

    n = lcm(*[block for block, _, _, _ in plans])
    # Every direction has n coordinates: count them before building any.
    vectors = sum(n // block * len(vecs) for block, local, _, _ in plans for vecs in local.values())
    entries = n * (vectors + n * sum(not adj for adj in conf_adj))  # an inactive user keeps all n
    if entries > MAX_DIRECTION_ENTRIES:
        raise BudgetOutOfRange(
            f"a {n}-use block needs {entries} direction entries, beyond {MAX_DIRECTION_ENTRIES}"
        )
    fractions = [Fraction(1)] * K
    directions: list[tuple[tuple[int, ...], ...]] = [()] * K
    for u in range(K):
        if not conf_adj[u]:  # inactive: keeps its whole space
            directions[u] = tuple(_basis_vector(n, j) for j in range(n))
    for block, local, fraction, _ in plans:
        replicas = n // block
        for u, vecs in local.items():
            fractions[u] = fraction
            embedded = []
            for b in range(replicas):
                for vec in vecs:
                    out = [0] * n
                    out[b * block : (b + 1) * block] = vec
                    embedded.append(tuple(out))
            directions[u] = tuple(embedded)

    for u in range(K):  # the assignment must realize the claimed fraction
        f = fractions[u]
        if len(directions[u]) * f.denominator < f.numerator * n:
            raise InvariantViolation(f"user {u}: directions fall short of fraction {fractions[u]}")

    # no interference leaves no plans: n = 1, each user keeps its basis vector
    method = "coloring" if any(p[3] for p in plans) else "half_rate" if plans else "full"
    return TimSolution(tuple(fractions), method, n, tuple(directions))
