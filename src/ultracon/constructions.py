"""Products modulo an ultrafilter.

Given same-signature factors A_i and an ultrafilter over the index set,
two product elements are "almost everywhere equal" when the set of
coordinates where they agree is in the ultrafilter; that agreement
relation is a congruence of the direct product, and the ultraproduct is
the quotient by it.  A family of per-factor congruences sigma(i) induces
the coarser relation "the set of coordinates where the pair is
sigma(i)-related is in the ultrafilter".
"""

from functools import lru_cache, reduce
from operator import and_

import numpy as np

from .algebra import (
    DEFAULT_SIZE_GUARD,
    ProductAlgebra,
    QuotientAlgebra,
    _coordinate_vectors,
    _radix_sums,
    direct_product,
    quotient as make_quotient,
)
from .congruence import Congruence, Partition, _as_congruence, format_partition
from .errors import ValidationError
from .ultrafilter import UltrafilterD, mask_elements


class CongruenceFamily:
    """One congruence per factor of a would-be product."""

    __slots__ = ("factors", "choice")

    def __init__(self, factors, choice):
        factors = tuple(factors)
        choice = tuple(choice)
        if len(factors) != len(choice):
            raise ValidationError(f"{len(choice)} congruences for {len(factors)} factors")
        if not factors:
            raise ValidationError("a congruence family needs at least one factor")
        self.factors = factors
        self.choice = tuple(_as_congruence(f, c) for f, c in zip(factors, choice))

    @classmethod
    def identities(cls, factors) -> "CongruenceFamily":
        return cls(factors, [Partition.identity(f.size) for f in factors])

    @classmethod
    def fulls(cls, factors) -> "CongruenceFamily":
        return cls(factors, [Partition.full(f.size) for f in factors])

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.choice)

    def __getitem__(self, i: int) -> Congruence:
        return self.choice[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, CongruenceFamily) and self.factors == other.factors and self.choice == other.choice

    def __hash__(self) -> int:
        return hash((self.factors, self.choice))

    def __repr__(self) -> str:
        shown = ", ".join(format_partition(c) for c in self.choice)
        return f"CongruenceFamily({shown})"


def _check_index_match(count: int, ultra: UltrafilterD) -> None:
    if ultra.n != count:
        raise ValidationError(
            f"ultrafilter is over a {ultra.n}-element index set but there are {count} factors"
        )


def _core(ultra: UltrafilterD) -> list:
    """Indices of the filter's least member S, the intersection of its members."""
    return mask_elements(reduce(and_, ultra.members))


def _least_member_labels(product: ProductAlgebra, class_ids, ultra: UltrafilterD) -> np.ndarray:
    """Least-member class ids of the relations {(x, y) : {i : x_i ~ y_i} in ultra}.

    class_ids[i] is an (F, n_i) int64 array: row f gives the least member
    of each element's class under the f-th equivalence ~ on factor i.
    Returns an (F, |P|) int64 array, one row per f.  A filter on a finite
    index set contains the intersection S of all its members and every
    superset of S, so x and y are related exactly when x_i ~ y_i for every
    i in S: the class of x is fixed by the classes of its coordinates in
    S, and its least member has the least members of those classes at S
    and 0 elsewhere.  One broadcast pass per factor (algebra._radix_sums),
    with no |P| x |P| array and no decode of the product elements.
    """
    core = _core(ultra)
    return _radix_sums([class_ids[i] * stride if i in core
                        else np.zeros((1, f.size), dtype=np.int64)
                        for i, (f, stride) in enumerate(zip(product.factors, product.strides))])


def dstar(factors, ultra: UltrafilterD, max_size: int = DEFAULT_SIZE_GUARD) -> Congruence:
    """Almost-everywhere-equal congruence on the direct product.

    Relates x and y iff the set of coordinates where they agree is in the
    ultrafilter.  Same as the product congruence of the identity family.
    With S the filter's least member that is x|S == y|S, the kernel of the
    projection x -> x|S: a homomorphism, as the product acts coordinatewise,
    so D* is a congruence by construction.  One O(|P|) pass holds the labels
    against that kernel's least-member form, the sum over i in S of
    x_i * stride_i with coordinates decoded apart from the labeller; labels
    that match are recorded unvalidated (Congruence._trusted), others are
    validated in full.
    """
    product = direct_product(factors, max_size)
    _check_index_match(len(product.factors), ultra)
    identities = [np.arange(f.size)[None, :] for f in product.factors]
    labels = _least_member_labels(product, identities, ultra)[0]
    core = _core(ultra)
    sizes, strides = [product.factors[i].size for i in core], [product.strides[i] for i in core]
    least = sum(c * s for c, s in zip(_coordinate_vectors(sizes, strides, np.arange(product.size)), strides))
    if np.array_equal(labels, least):
        return Congruence._trusted(product, labels.tobytes())
    return Congruence(product, labels)


def product_congruence(family: CongruenceFamily, ultra: UltrafilterD) -> Congruence:
    """Relate x, y iff {i : x_i and y_i are family[i]-related} is a member.

    Always contains the almost-everywhere-equal congruence of the same
    ultrafilter.
    """
    product = direct_product(family.factors)
    _check_index_match(len(product.factors), ultra)
    class_ids = [c.labels[None] for c in family.choice]
    return Congruence(product, _least_member_labels(product, class_ids, ultra)[0])


class UltraproductAlgebra(QuotientAlgebra):
    """Direct product of the factors modulo almost-everywhere equality."""

    __slots__ = ("factors", "ultrafilter")

    def __init__(self, factors, ultra: UltrafilterD, max_size: int = DEFAULT_SIZE_GUARD):
        product = direct_product(factors, max_size)
        _check_index_match(len(product.factors), ultra)
        agreement = dstar(product.factors, ultra, max_size)
        super().__init__(product, agreement, max_size)
        self.factors = product.factors
        self.ultrafilter = ultra
        names = ", ".join(f.name or f"A{i}" for i, f in enumerate(self.factors))
        self.name = f"[{names}] mod {ultra!r}"

    @property
    def product(self) -> ProductAlgebra:
        return self.parent


@lru_cache(maxsize=1024)
def _ultraproduct_cached(factors, ultra, max_size):
    return UltraproductAlgebra(factors, ultra, max_size)


def ultraproduct(factors, ultra: UltrafilterD, max_size: int = DEFAULT_SIZE_GUARD) -> UltraproductAlgebra:
    """Ultraproduct of same-signature factors; repeated calls are cached.

    The cache matches factors by equality (equal tables), so a cached
    result's `factors`, `product` and `parent` may be equal algebras from
    another call, with another provenance: equal quotients of different
    algebras or by different congruences, say, whose `parent`,
    `congruence` and `projection` differ from the caller's.  Code that
    needs a factor's provenance keeps its own reference to it.
    """
    return _ultraproduct_cached(tuple(factors), ultra, max_size)


def _unrefined(theta_rows: np.ndarray, base) -> np.ndarray:
    """For each row of class ids, the first element whose base class leaves
    its theta_rows class, or -1 where base refines that row."""
    mism = theta_rows != theta_rows.take(base.labels, axis=1)
    if not mism.any():
        return np.full(len(theta_rows), -1)
    return np.where(mism.any(axis=1), mism.argmax(axis=1), -1)


def _not_refined(base, e: int) -> ValidationError:
    """The error for a theta that base does not refine, e as _unrefined found it."""
    return ValidationError(
        f"base does not refine theta: {e} and {int(base.labels[e])} share a base class "
        "but not a theta class"
    )


def _carried_down(theta_rows: np.ndarray, quotient_algebra: QuotientAlgebra) -> np.ndarray:
    """Each row of theta_rows carried down to the quotient by its congruence.

    theta_rows is an (R, |parent|) array of least-member class ids, each
    refined by the quotient's congruence.  Row r of the result labels
    quotient element q by the least quotient element whose representative
    shares q's theta class: a least member of a theta class is the least
    member of its own base class, so it is a representative, and its
    projection is the least quotient element of the class.
    """
    return quotient_algebra.projection_array[theta_rows.take(quotient_algebra.class_reps, axis=1)]


def induced_congruence(theta: Congruence, base: Congruence, quotient_algebra: QuotientAlgebra | None = None) -> Congruence:
    """Carry theta down to the quotient by base.

    Requires base to refine theta (every base class inside a theta class);
    relates two quotient elements iff their representatives are
    theta-related.  Raises ValidationError with a witness pair otherwise.
    """
    if theta.size != base.size:
        raise ValidationError(f"congruence sizes differ: {theta.size} vs {base.size}")
    if theta.algebra != base.algebra:
        raise ValidationError("theta and base are congruences of different algebras")
    row = theta.labels[None]
    e = int(_unrefined(row, base)[0])
    if e >= 0:
        raise _not_refined(base, e)
    if quotient_algebra is None:
        quotient_algebra = make_quotient(theta.algebra, base)
    elif quotient_algebra.parent != theta.algebra or quotient_algebra.congruence != base:
        raise ValidationError("supplied quotient was not built from this algebra and base")
    return Congruence(quotient_algebra, _carried_down(row, quotient_algebra)[0])
