"""Ultrafilters over a finite index set {0..n-1}.

Subsets of the index set are bitmasks: bit i set means index i is in the
subset.  A family of subsets is an ultrafilter when

  (1) the whole set is in the family and the empty set is not,
  (2) the family is closed under intersection,
  (3) the family is closed upward (supersets of members are members),
  (4) for every subset A, A or its complement is in the family.

Condition (4*) is the prime-filter form: whenever a union A | B is in the
family, A or B already is.  Under (1)-(3) the two are equivalent, and on a
finite index set every ultrafilter is principal: exactly the supersets of
some singleton {i0}.
"""

import json
from dataclasses import dataclass

from .algebra import _is_element
from .errors import ValidationError

ENUMERATION_LIMIT = 4  # scanning 2**(2**n) families is feasible up to here


def subset_mask(n: int, elements) -> int:
    """Bitmask of a subset given by its elements."""
    mask = 0
    for e in elements:
        if not _is_element(e, n):
            raise ValidationError(f"index {e!r} is outside the index set 0..{n - 1}")
        mask |= 1 << e
    return mask


def mask_elements(mask: int) -> tuple:
    """Ascending elements of a subset bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class AxiomViolation:
    """Which ultrafilter axiom broke first, with witness subsets (as masks)."""

    axiom: int
    witness: tuple
    message: str

    def __str__(self) -> str:
        return self.message


def _check_index_size(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"index set size must be a positive int, got {n!r}")


def _check_masks(n: int, members) -> tuple:
    full = (1 << n) - 1
    mset = set()
    for s in members:
        if not _is_element(s, full + 1):
            raise ValidationError(f"subset mask {s!r} is outside the power set of 0..{n - 1}")
        mset.add(s)
    return full, mset


def check_ultrafilter(n: int, members) -> AxiomViolation | None:
    """First violated axiom among (1)-(4), or None for an ultrafilter."""
    _check_index_size(n)
    full, mset = _check_masks(n, members)
    if full not in mset:
        return AxiomViolation(1, (full,), "axiom (1) fails: the whole index set is not in the family")
    if 0 in mset:
        return AxiomViolation(1, (0,), "axiom (1) fails: the empty set is in the family")
    for a in mset:
        for b in mset:
            if a & b not in mset:
                return AxiomViolation(
                    2, (a, b), f"axiom (2) fails: {set(mask_elements(a))} and {set(mask_elements(b))} "
                    "are members but their intersection is not"
                )
    for a in mset:
        for s in range(full + 1):
            if s & a == a and s not in mset:
                return AxiomViolation(
                    3, (a, s), f"axiom (3) fails: {set(mask_elements(s)) or '{}'} contains the member "
                    f"{set(mask_elements(a))} but is not itself a member"
                )
    for a in range(full + 1):
        if a not in mset and (full ^ a) not in mset:
            return AxiomViolation(
                4, (a,), f"axiom (4) fails: neither {set(mask_elements(a)) or '{}'} nor its complement is a member"
            )
    return None


def is_ultrafilter(n: int, members) -> bool:
    return check_ultrafilter(n, members) is None


def is_filter(n: int, members) -> bool:
    """Axioms (1)-(3) only: a proper filter, maybe not ultra."""
    violation = check_ultrafilter(n, members)
    return violation is None or violation.axiom == 4


def check_4star(n: int, members) -> bool:
    """Prime-filter condition: A|B a member implies A or B a member.

    Requires (1)-(3); raises ValidationError naming the broken axiom if
    the family is not a filter.
    """
    violation = check_ultrafilter(n, members)
    if violation is not None and violation.axiom != 4:
        raise ValidationError(f"condition (4*) needs a filter, but {violation.message}")
    full, mset = _check_masks(n, members)
    for a in range(full + 1):
        for b in range(full + 1):
            if (a | b) in mset and a not in mset and b not in mset:
                return False
    return True


class _EncodedOnce(tuple):
    """An immutable tuple that keeps, per indentation, the text that the
    report encoder (theorems.json_text) wrote for it."""

    def __init__(self, items):
        self.texts = {}


class UltrafilterD:
    """A verified ultrafilter over {0..n-1}.

    Members are bitmask ints, ordered by (popcount, numeric value) so that
    iteration order is canonical.  Construction re-checks the axioms and
    raises ValidationError with the first violation otherwise.  The member
    sets and the repr are built once, on first use; reports share the one
    tuple of member sets, so its text is encoded once per indentation.
    """

    __slots__ = ("n", "members", "_member_set", "_sets", "_repr")

    def __init__(self, n: int, members):
        violation = check_ultrafilter(n, members)
        if violation is not None:
            raise ValidationError(f"not an ultrafilter over 0..{n - 1}: {violation.message}")
        self.n = n
        self._member_set = frozenset(members)
        self.members = tuple(sorted(self._member_set, key=lambda s: (bin(s).count("1"), s)))
        self._sets = None
        self._repr = None

    @classmethod
    def from_sets(cls, n: int, sets) -> "UltrafilterD":
        return cls(n, [subset_mask(n, s) for s in sets])

    def member(self, subset: int) -> bool:
        """Membership of a subset bitmask; rejects masks outside the universe."""
        if not _is_element(subset, 1 << self.n):
            raise ValidationError(
                f"subset mask {subset!r} is outside the power set of 0..{self.n - 1} (universe mismatch)"
            )
        return subset in self._member_set

    def __contains__(self, subset) -> bool:
        return self.member(subset)

    def members_as_sets(self) -> tuple:
        if self._sets is None:
            self._sets = _EncodedOnce(mask_elements(s) for s in self.members)
        return self._sets

    def principal_index(self) -> int:
        """The i0 with members exactly the supersets of {i0}.

        Every ultrafilter on a finite set has one: the least member under
        the canonical order is the singleton {i0}.
        """
        return mask_elements(self.members[0])[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, UltrafilterD) and self.n == other.n and self._member_set == other._member_set

    def __hash__(self) -> int:
        return hash((self.n, self._member_set))

    def __repr__(self) -> str:
        if self._repr is None:
            shown = ",".join("{" + ",".join(map(str, s)) + "}" for s in self.members_as_sets())
            self._repr = f"UltrafilterD(n={self.n}, members=[{shown}])"
        return self._repr


def principal_ultrafilter(n: int, i0: int) -> UltrafilterD:
    """All subsets containing i0."""
    _check_index_size(n)
    if not _is_element(i0, n):
        raise ValidationError(f"principal index {i0!r} is outside the index set 0..{n - 1}")
    bit = 1 << i0
    return UltrafilterD(n, [s for s in range(1 << n) if s & bit])


def enumerate_ultrafilters(n: int) -> list:
    """Every ultrafilter over {0..n-1} by scanning all 2**(2**n) families.

    Bounded at n <= 4 (65536 candidate families); on a finite index set
    the result is exactly the n principal ultrafilters, and callers are
    expected to check that rather than assume it.
    """
    _check_index_size(n)
    if n > ENUMERATION_LIMIT:
        raise ValidationError(
            f"enumerating families over a {n}-element index set means 2**{1 << n} candidates; "
            f"bounded at n <= {ENUMERATION_LIMIT}"
        )
    full = (1 << n) - 1
    found = []
    for fam in range(1 << (full + 1)):
        # cheap axiom (1) bits first: full set in, empty set out
        if not (fam >> full) & 1 or fam & 1:
            continue
        members = [s for s in range(full + 1) if (fam >> s) & 1]
        if check_ultrafilter(n, members) is None:
            found.append(UltrafilterD(n, members))
    found.sort(key=lambda d: d.members)
    return found


def parse_ultrafilter(text: str, n: int) -> UltrafilterD:
    """CLI form: 'principal:<i0>' or a JSON list of subsets like [[0],[0,1]]."""
    text = text.strip()
    if text.startswith("principal:"):
        raw = text[len("principal:"):]
        try:
            i0 = int(raw)
        except ValueError:
            raise ValidationError(f"bad principal index {raw!r} in ultrafilter spec") from None
        return principal_ultrafilter(n, i0)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"ultrafilter spec must be 'principal:<i0>' or a JSON list of subsets, got {text!r} ({exc})"
        ) from exc
    if not isinstance(data, list) or not all(isinstance(s, list) for s in data):
        raise ValidationError(f"ultrafilter spec must be a list of subsets, got {text!r}")
    return UltrafilterD.from_sets(n, data)
