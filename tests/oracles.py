"""Reference computations kept beside the tests, apart from the engine routes
they check.

The closed vertex series evaluates the kernel at the point and the insertion
at the shifted point, each on its own.  The oracle here multiplies first and
evaluates the unevaluated product once, as the series was defined before it
was split; it also accepts an insertion with denominators, such as a
two-sided product R_c f R_{-c}.
"""

from coulombkit import Descendent, Scalar, enumerate_degrees


def closed_coefficient(alg, p, insertion: Scalar, d, specialize: bool = False) -> Scalar:
    """The degree-d coefficient at p: the kernel times the insertion shifted
    by d, evaluated at p as one product."""
    return alg.evaluate(p, alg.matter_kernel(d) * alg.shift(insertion, d), specialize)


def kaehler_relation_check(alg, p, tau, circuit, order: int) -> bool:
    """Multiplying by one Kahler monomial equals conjugating the insertion:
    the series of R_c f R_{-c} at d is the series of f at d - c, and 0 where
    d - c is no degree of the series."""
    c = tuple(circuit)
    insertion = tau.as_scalar() if isinstance(tau, Descendent) else tau
    relation = alg.relation(c, insertion)
    degrees = enumerate_degrees(alg.eff(), alg.data.theta, order)
    rhs = {d: closed_coefficient(alg, p, insertion, d) for d in degrees}
    zero = Scalar.zero(alg.table.width)
    return all(closed_coefficient(alg, p, relation, d)
               == rhs.get(tuple(x - y for x, y in zip(d, c)), zero)
               for d in degrees)
