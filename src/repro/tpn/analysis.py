"""Place invariants of time Petri nets.

P-invariants via the incidence matrix, and their cross-check against an
explored state space.  They back the validation story the paper
attributes to the underlying formal model ("it ensures that system's
properties are satisfied"): the tests use them as an oracle that is
independent of the firing rule, checking the reference engine's
behaviour and the composer's nets (the processor place plus every
running-task place carries exactly one token) against linear algebra.

Invariant computation uses integer Gaussian elimination over rationals
(fractions) so results are exact.
"""

from __future__ import annotations

from fractions import Fraction

from repro.tpn.net import TimePetriNet
from repro.tpn.reachability import ReachabilityGraph


def incidence_matrix(net: TimePetriNet) -> list[list[int]]:
    """The incidence matrix ``C`` with ``C[p][t] = W(t,p) − W(p,t)``.

    Rows are places, columns transitions, both in insertion order.
    """
    places = net.place_names
    transitions = net.transition_names
    matrix = [[0] * len(transitions) for _ in places]
    p_index = {p: i for i, p in enumerate(places)}
    for j, t in enumerate(transitions):
        for p, w in net.preset(t).items():
            matrix[p_index[p]][j] -= w
        for p, w in net.postset(t).items():
            matrix[p_index[p]][j] += w
    return matrix


def _nullspace_basis(
    rows: list[list[int]],
) -> list[list[Fraction]]:
    """Rational basis of ``{x : rows · x = 0}`` via Gaussian elimination."""
    if not rows:
        return []
    num_cols = len(rows[0])
    matrix = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(num_cols):
        pivot_row = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        matrix[rank] = [v / pivot for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        pivots.append(col)
        rank += 1
        if rank == len(matrix):
            break
    free_cols = [c for c in range(num_cols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for free in free_cols:
        vec = [Fraction(0)] * num_cols
        vec[free] = Fraction(1)
        for r, pivot_col in enumerate(pivots):
            vec[pivot_col] = -matrix[r][free]
        basis.append(vec)
    return basis


def _integerise(vec: list[Fraction]) -> list[int]:
    """Scale a rational vector to the smallest integer multiple."""
    denominators = [v.denominator for v in vec]
    lcm = 1
    for d in denominators:
        g = _gcd(lcm, d)
        lcm = lcm // g * d
    ints = [int(v * lcm) for v in vec]
    g = 0
    for v in ints:
        g = _gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a if a else 1


def place_invariants(net: TimePetriNet) -> list[dict[str, int]]:
    """P-invariants: integer vectors ``y`` with ``yᵀ·C = 0``.

    Each invariant is returned as a sparse name->coefficient mapping.
    For every reachable marking ``m``, ``y·m = y·m0`` — the classic
    token-conservation laws (e.g. the processor place plus all "task is
    running" places of the paper's blocks carry exactly one token).
    """
    matrix = incidence_matrix(net)
    # P-invariants are nullspace vectors of Cᵀ (rows = transitions).
    transposed = [list(col) for col in zip(*matrix)] if matrix else []
    basis = _nullspace_basis(transposed) if transposed else []
    names = net.place_names
    result = []
    for vec in basis:
        ints = _integerise(vec)
        result.append(
            {names[i]: v for i, v in enumerate(ints) if v != 0}
        )
    return result


def invariant_value(
    invariant: dict[str, int], marking: dict[str, int]
) -> int:
    """Evaluate ``y·m`` for a sparse invariant and sparse marking."""
    return sum(
        coeff * marking.get(place, 0) for place, coeff in invariant.items()
    )


def check_invariants_on_graph(
    net: TimePetriNet, graph: ReachabilityGraph
) -> list[str]:
    """Cross-validate P-invariants against an explored state space.

    Returns a list of violation descriptions (empty when all invariant
    values are constant across explored states) — used by property tests
    to validate the firing rule against linear algebra.
    """
    invariants = place_invariants(net)
    names = net.place_names
    violations: list[str] = []
    if not graph.states:
        return violations
    for inv in invariants:
        coeffs = [inv.get(p, 0) for p in names]
        reference = sum(
            c * v for c, v in zip(coeffs, graph.states[0].marking)
        )
        for state in graph.states[1:]:
            value = sum(c * v for c, v in zip(coeffs, state.marking))
            if value != reference:
                violations.append(
                    f"invariant {inv} broke: {value} != {reference}"
                )
                break
    return violations
