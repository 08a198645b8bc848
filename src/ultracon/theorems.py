"""Machine verification of three facts about congruences on ultraproducts.

Theorem 1 (embedding): sending a family of per-factor congruences to its
product congruence, viewed on the ultraproduct, is well defined on
almost-everywhere-equal families, injective there, and meet-preserving;
so the ultraproduct of the factor congruence semilattices embeds into the
congruence lattice of the ultraproduct.

Theorem 2 (quotient transfer): mapping each product element to the class
of its coordinatewise congruence classes is a surjective homomorphism
onto the ultraproduct of the factor quotients, its kernel is exactly the
product congruence, and therefore the ultraproduct modulo the transferred
congruence is isomorphic to the ultraproduct of the quotients.

Theorem 3 (ultrapower restriction): for an ultrapower of a single algebra
with one congruence per coordinate, the product congruence restricted to
the diagonal copy of the base is a finite union of finite meets of the
chosen congruences (one meet per ultrafilter member), and that union is
already transitive, hence equal to the corresponding join of meets.

Every verifier returns a VerificationReport of named checks with
witnesses; the report passes iff every check passed.
"""

import json
import math
import random
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .algebra import (
    Algebra,
    ElemMap,
    _coordinate_vectors,
    _product_tables,
    _radix_sums,
    _strides,
    direct_product,
    is_homomorphism,
    kernel,
    quotient,
)
from .congruence import (
    Congruence,
    Partition,
    _as_congruence,
    _congruence_violations,
    _join_stack,
    _label_rows,
    _least_members,
    _not_a_congruence,
    _row_keys,
    _union_stack,
    con_lattice_of,
    format_partition,
)
from .constructions import (
    CongruenceFamily,
    UltraproductAlgebra,
    _carried_down,
    _core,
    _least_member_labels,
    _not_refined,
    _unrefined,
    induced_congruence,
    product_congruence,
    ultraproduct,
)
from .errors import SizeGuardError, ValidationError
from .iso import find_isomorphism
from .ultrafilter import UltrafilterD, _EncodedOnce, mask_elements

EXHAUSTIVE_LIMIT = 4096  # sweep every family when the family count is at most this
SAMPLE_SIZE = 500

# Largest temporary, in int64 entries, that theorem 1's batched passes
# over families build; a single family always goes through whole.
_BATCH_ENTRIES = 1 << 20

# verify_thm1's checks, each failed by a family whose image cannot be built
_THM1_CHECKS = ("well-defined-on-classes", "injective-on-classes", "preserves-meets")

# verify_thm2's checks that need the product congruence theta
_THETA_CHECKS = ("kernel-is-product-congruence", "map-factors-through-transferred-congruence",
                 "induced-map-is-isomorphism", "independent-isomorphism-search")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    instance: dict
    checks: tuple
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "checks": [c.to_dict() for c in self.checks],
            "info": self.info,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def summary_lines(self) -> list:
        lines = [f"{self.theorem}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            lines.append(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}")
            if not c.passed and c.witness:
                lines.append(f"        witness: {json.dumps(c.witness, sort_keys=True)}")
        return lines


class _Unhandled(Exception):
    """A value json_text leaves to the json module."""


def json_text(data) -> str:
    """The text of json.dumps(data, indent=2, sort_keys=True), byte for byte.

    With an indent, json.dumps runs the json module's pure-Python encoder.
    This writes the same pieces into one list, for the types that reports
    hold: dicts with str keys, lists, tuples, str, int, bool and None; an
    _EncodedOnce is written once per indentation and then from its kept
    text.  Data holding anything else goes to json.dumps whole.
    """
    out = []
    try:
        _encode(data, "\n", out)
    except (_Unhandled, RecursionError, TypeError):
        return json.dumps(data, indent=2, sort_keys=True)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii  # what json.dumps uses with ensure_ascii


def _encode(value, newline: str, out: list) -> None:
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or kind is list or kind is tuple:
        opener, closer = "{}" if kind is dict else "[]"
        if not value:
            out.append(opener + closer)
            return
        inner = newline + "  "
        sep = opener + inner
        if kind is dict:
            for key in sorted(value):
                if type(key) is not str:
                    raise _Unhandled
                out.append(sep + _encode_str(key) + ": ")
                _encode(value[key], inner, out)
                sep = "," + inner
        else:
            for item in value:
                out.append(sep)
                _encode(item, inner, out)
                sep = "," + inner
        out.append(newline + closer)
    elif kind is _EncodedOnce:
        text = value.texts.get(newline)
        if text is None:
            part = []
            _encode(tuple(value), newline, part)
            text = value.texts[newline] = "".join(part)
        out.append(text)
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise _Unhandled


def _family_text(family: CongruenceFamily) -> list:
    return [format_partition(c) for c in family.choice]


def congruence_on_ultraproduct(family: CongruenceFamily, ultra: UltrafilterD) -> Congruence:
    """The family's product congruence carried down to the ultraproduct.

    The product congruence always contains almost-everywhere equality, so
    it induces a congruence on the quotient by it; this is the embedding
    of theorem 1, evaluated at one family.
    """
    ultra_alg = ultraproduct(family.factors, ultra)
    theta = product_congruence(family, ultra)
    return induced_congruence(theta, ultra_alg.congruence, quotient_algebra=ultra_alg)


def coordinatewise_quotient_map(family: CongruenceFamily, ultra: UltrafilterD) -> ElemMap:
    """Product element -> class of its tuple of per-factor congruence classes.

    Maps the direct product of the factors onto the ultraproduct of the
    factor quotients (theorem 2's homomorphism).
    """
    factors = family.factors
    prod = direct_product(factors)
    quots = [quotient(f, c) for f, c in zip(factors, family.choice)]
    quot_ultra = ultraproduct(quots, ultra)
    # the element of the quotients' product with coordinates proj_i(x_i)
    index = _radix_sums([q.projection_array[None, :] * stride
                         for q, stride in zip(quots, quot_ultra.product.strides)])[0]
    return ElemMap(prod.size, quot_ultra.size, quot_ultra.projection_array[index])


def natural_embedding(algebra: Algebra, ultra: UltrafilterD) -> ElemMap:
    """a -> class of the constant tuple (a, ..., a) in the ultrapower."""
    ultra_alg = ultraproduct((algebra,) * ultra.n, ultra)
    image = [ultra_alg.projection[ultra_alg.product.encode((a,) * ultra.n)] for a in algebra.elements]
    return ElemMap(algebra.size, ultra_alg.size, image)


def _validated_sigmas(algebra: Algebra, sigmas, ultra: UltrafilterD) -> tuple:
    """sigmas as congruences of algebra, exactly one per index of ultra."""
    sigmas = tuple(_as_congruence(algebra, s) for s in sigmas)
    if len(sigmas) != ultra.n:
        raise ValidationError(f"{len(sigmas)} congruences for a {ultra.n}-element index set")
    return sigmas


def _family_ids(lattice_sizes, exhaustive_limit: int, sample_size: int, rng: random.Random):
    """(family ids to check, family count): every id up to exhaustive_limit, else a seeded sample."""
    total = math.prod(lattice_sizes)
    if total <= exhaustive_limit:
        return list(range(total)), total
    return sorted(rng.sample(range(total), min(sample_size, total))), total


def _family_from_id(fid: int, factors, lattices) -> CongruenceFamily:
    """Decode a family id, mixed radix over the lattice sizes with coordinate 0 most significant."""
    strides = _strides([len(lat) for lat in lattices])
    return CongruenceFamily(factors, [lat[fid // s % len(lat)] for lat, s in zip(lattices, strides)])


def diagonal_restriction(algebra: Algebra, sigmas, ultra: UltrafilterD) -> Congruence:
    """Relate a, b in the base iff {i : (a,b) in sigmas[i]} is a member.

    This is the product congruence of the family pulled back along the
    diagonal a -> (a, ..., a); one congruence per ultrafilter index.
    """
    sigmas = _validated_sigmas(algebra, sigmas, ultra)
    rel = _diagonal_restriction_matrix(algebra, sigmas, ultra)
    return Congruence(algebra, Partition.from_matrix(rel))


def _member_lookup(ultra: UltrafilterD) -> np.ndarray:
    """Membership of every index subset, indexed by its bitmask."""
    lookup = np.zeros(1 << ultra.n, dtype=bool)
    lookup[list(ultra.members)] = True
    return lookup


def _diagonal_restriction_matrix(algebra: Algebra, sigmas, ultra: UltrafilterD) -> np.ndarray:
    masks = np.zeros((algebra.size, algebra.size), dtype=np.int64)
    for i, s in enumerate(sigmas):
        masks |= s.to_matrix().astype(np.int64) << i
    return _member_lookup(ultra)[masks]


def _definition_mismatch(family: CongruenceFamily, ultra: UltrafilterD, theta: Congruence):
    """First (x, r, defined, related) where theta breaks its definition, or None.

    r runs over theta's class representatives; defined says whether
    {i : x_i and r_i are family[i]-related} is a member, related whether
    theta relates x and r.  The defined relation is an equivalence, so
    agreeing on every such pair fixes all of theta.  O(|P| * classes).
    """
    prod = theta.algebra
    reps = np.flatnonzero(theta.labels == np.arange(prod.size))  # least members
    sizes = [f.size for f in prod.factors]
    # masks[k, x]: bit i set iff x_i and reps[k]_i are family[i]-related
    parts = []
    for i, (c, at) in enumerate(zip(family.choice, _coordinate_vectors(sizes, prod.strides, reps))):
        parts.append((c.labels[None, :] == c.labels[at][:, None]).astype(np.int64) << i)
    defined = _member_lookup(ultra)[_radix_sums(parts)]
    related = theta.labels[None, :] == reps[:, None]
    wrong = defined != related
    if not wrong.any():
        return None
    x, k = map(int, np.argwhere(wrong.T)[0])
    return x, int(reps[k]), bool(defined[k, x]), bool(related[k, x])


def _union_of_meets_matrix(algebra: Algebra, sigmas, ultra: UltrafilterD) -> np.ndarray:
    rel = np.zeros((algebra.size, algebra.size), dtype=bool)
    for member in ultra.members:
        meet = np.ones((algebra.size, algebra.size), dtype=bool)
        for k in mask_elements(member):
            meet &= sigmas[k].to_matrix()
        rel |= meet
    return rel


def union_of_meets(algebra: Algebra, sigmas, ultra: UltrafilterD) -> Partition:
    """Union over ultrafilter members K of the meet of {sigmas[k] : k in K}.

    Returned as a partition, which silently asserts the union is an
    equivalence; if it is not (it always is, that is theorem 3's content),
    ValidationError escapes from the matrix conversion.
    """
    sigmas = _validated_sigmas(algebra, sigmas, ultra)
    return Partition.from_matrix(_union_of_meets_matrix(algebra, sigmas, ultra))


def join_of_meets(algebra: Algebra, sigmas, ultra: UltrafilterD) -> Congruence:
    """Congruence join over ultrafilter members of the member-wise meets.

    One union-find call merges every element with its least member in
    every member's meet.
    """
    sigmas = _validated_sigmas(algebra, sigmas, ultra)
    meets = [reduce(Partition.meet, [sigmas[k] for k in mask_elements(member)]) for member in ultra.members]
    least = np.concatenate([meet.labels for meet in meets])
    elements = np.tile(np.arange(algebra.size, dtype=np.int64), len(meets))
    apart = least != elements
    joined = _union_stack(np.arange(algebra.size, dtype=np.int64)[None], elements[apart], least[apart])
    return Congruence(algebra, joined[0])


class _FamilyImages:
    """Theorem 1's map, family id -> product congruence carried down to the
    ultraproduct, computed a batch of families at a time.

    Family ids decode as in _family_from_id.  Every family's product
    congruence is labelled from its own full family, all of a batch in one
    stacked pass; only label rows with equal bytes (_row_keys) share the
    rest of the work, never families that merely agree on the filter.  Each
    distinct row is validated once as a congruence of the product, and its
    image once as a congruence of the ultraproduct, in the order of the
    row's first family, so a failure names the family that checking one at
    a time would have stopped on.  images holds the distinct images, index
    maps an image's key to its position there, and number maps each
    family id computed so far to its image's position.
    """

    def __init__(self, ultra_alg: UltraproductAlgebra, lattices):
        self.ultra_alg = ultra_alg
        self.sizes = [len(lat) for lat in lattices]
        self.strides = _strides(self.sizes)
        self.lattice_rows = [_label_rows(lat.congruences, lat.algebra.size) for lat in lattices]
        self.images = []
        self.index = {}
        self.number = {}
        self._by_row = {}

    def __call__(self, fid: int) -> Partition:
        if fid not in self.number:
            self.add([fid])
        return self.images[self.number[fid]]

    def class_reps(self, fids) -> np.ndarray:
        """The least family id almost everywhere equal to each of fids: its
        coordinates on the filter's least member, 0 elsewhere.  For grouping
        and pairing families only; no image is ever shared through it."""
        fids = np.asarray(fids, dtype=np.int64)
        return sum(fids // self.strides[i] % self.sizes[i] * self.strides[i]
                   for i in _core(self.ultra_alg.ultrafilter))

    def combine(self, tables, s, t) -> np.ndarray:
        """Ids of the families op(s_i, t_i) for the id pairs of s and t, where
        tables[i] is op's (k_i, k_i) index table on lattice i."""
        s, t = (_coordinate_vectors(self.sizes, self.strides, ids) for ids in (s, t))
        return sum(tab[a, b] * stride for tab, a, b, stride in zip(tables, s, t, self.strides))

    def add(self, fids) -> None:
        """Compute the images of the families in fids that have none yet."""
        todo = np.array(sorted({f for f in fids if f not in self.number}), dtype=np.int64)
        chunk = max(1, _BATCH_ENTRIES // self.ultra_alg.product.size)
        for start in range(0, len(todo), chunk):
            self._add_batch(todo[start:start + chunk])

    def _add_batch(self, fids: np.ndarray) -> None:
        product = self.ultra_alg.product
        choice = _coordinate_vectors(self.sizes, self.strides, fids)
        labels = _least_member_labels(product, [ids[c] for ids, c in zip(self.lattice_rows, choice)],
                                      self.ultra_alg.ultrafilter)
        keys = _row_keys(labels)
        # one row per distinct key: a dict keeps each key where it first came,
        # and its value, the key's last row, has the same bytes
        new = [r for key, r in dict(zip(keys, range(len(keys)))).items() if key not in self._by_row]
        if new:
            thetas = labels[new]
            theta_bad = _congruence_violations(product, thetas)
            unrefined = _unrefined(thetas, self.ultra_alg.congruence)
            carried = _carried_down(thetas, self.ultra_alg)
            image_bad = _congruence_violations(self.ultra_alg, carried)
            for k, r in enumerate(new):
                if theta_bad[k] is not None:
                    raise _not_a_congruence(product, theta_bad[k])
                if unrefined[k] >= 0:
                    raise _not_refined(self.ultra_alg.congruence, int(unrefined[k]))
                if image_bad[k] is not None:
                    raise _not_a_congruence(self.ultra_alg, image_bad[k])
                image = Partition(carried[k])
                num = self.index.setdefault(image.key, len(self.images))
                if num == len(self.images):
                    self.images.append(image)
                self._by_row[keys[r]] = num
        self.number.update(zip(fids.tolist(), map(self._by_row.__getitem__, keys)))


def verify_thm1(factors, ultra: UltrafilterD, *, seed: int = 0,
                exhaustive_limit: int = EXHAUSTIVE_LIMIT, sample_size: int = SAMPLE_SIZE) -> VerificationReport:
    """Check the embedding theorem on one instance.

    Families of per-factor congruences are mixed-radix ids over the factor
    congruence lattices; their almost-everywhere classes, meets and joins
    are read off the ids (_FamilyImages), with no algebra over the family
    space.  Exhaustive over all families when there are at most
    exhaustive_limit, otherwise a seeded sample.  An image that cannot be
    built fails all three checks with the reason as their witness, and the
    info that needs the images is None.
    """
    factors = tuple(factors)
    ultra_alg = ultraproduct(factors, ultra)
    lattices = [con_lattice_of(f) for f in factors]
    sizes = [len(lat) for lat in lattices]
    rng = random.Random(seed)
    fam_ids, total = _family_ids(sizes, exhaustive_limit, sample_size, rng)
    exhaustive = total <= exhaustive_limit
    image_of = _FamilyImages(ultra_alg, lattices)

    if not exhaustive:
        # make sure each sampled family can be compared with its class twin
        fam_ids = sorted(set(fam_ids) | set(image_of.class_reps(fam_ids).tolist()))
    # the families of each almost-everywhere class, by the class's least id
    by_class: dict = {}
    for fid, rep in zip(fam_ids, image_of.class_reps(fam_ids).tolist()):
        by_class.setdefault(rep, []).append(fid)
    try:
        checks, found = _thm1_checks(image_of, factors, lattices, fam_ids, by_class, exhaustive, rng, sample_size)
    except ValidationError as exc:
        reason = {"reason": str(exc)}
        checks = [Check(name, False, reason) for name in _THM1_CHECKS]
        found = dict.fromkeys(("image_size", "joins_preserved", "join_counterexamples"))

    instance = {
        "factors": [{"name": f.name, "size": f.size} for f in factors],
        "ultrafilter": ultra.members_as_sets(),
        "family_count": total,
        "mode": "exhaustive" if exhaustive else "sampled",
        "seed": seed,
    }
    info = {
        "ultraproduct_size": ultra_alg.size,
        "lattice_sizes": sizes,
        "families_checked": len(fam_ids),
        "classes_seen": len(by_class),
        **found,
    }
    return VerificationReport("thm1", instance, tuple(checks), info)


def _thm1_checks(image_of: _FamilyImages, factors, lattices, fam_ids, by_class, exhaustive, rng, sample_size):
    """verify_thm1's checks and the info they give; raises ValidationError
    when a family's image cannot be built (_FamilyImages._add_batch)."""
    image_of.add(fam_ids)
    number = image_of.number

    def family_text(fid: int) -> list:
        return _family_text(_family_from_id(fid, factors, lattices))

    checks = []

    # well-definedness: families in one almost-everywhere class share an image
    wd_witness = None
    for cls, members in by_class.items():
        rep = members[0]
        for fid in members[1:]:
            if number[fid] != number[rep]:
                wd_witness = {
                    "family_a": family_text(rep),
                    "family_b": family_text(fid),
                    "image_a": format_partition(image_of(rep)),
                    "image_b": format_partition(image_of(fid)),
                }
                break
        if wd_witness:
            break
    checks.append(Check("well-defined-on-classes", wd_witness is None, wd_witness))

    # injectivity: distinct classes get distinct images
    inj_witness = None
    seen_image: dict = {}
    for cls, members in sorted(by_class.items()):
        img = number[members[0]]
        if img in seen_image and seen_image[img] != cls:
            other = by_class[seen_image[img]][0]
            inj_witness = {
                "family_a": family_text(other),
                "family_b": family_text(members[0]),
                "shared_image": format_partition(image_of(members[0])),
            }
            break
        seen_image.setdefault(img, cls)
    checks.append(Check("injective-on-classes", inj_witness is None, inj_witness))

    # meet preservation: image of the coordinatewise meet is the meet of images
    meet_bad = None  # (s, t, id of the family meet of s and t) where they differ
    meets = [lat.meet_table() for lat in lattices]
    if exhaustive:
        parts = image_of.images
        total = len(fam_ids)  # exhaustive: fam_ids holds every family id
        key = np.array([number[fid] for fid in range(total)], dtype=np.int64)
        r = len(parts)
        meet_of_images = np.full((r, r), -1, dtype=np.int64)
        for i in range(r):
            for j in range(i, r):
                m = parts[i].meet(parts[j])
                meet_of_images[i, j] = meet_of_images[j, i] = image_of.index.get(m.key, -1)
        fam_meet = _product_tables([("meet", 2)], image_of.sizes, [{"meet": m} for m in meets])["meet"]
        fam_meet = fam_meet.reshape(total, total)
        # a block of rows s at a time, so that no other array is total**2 long
        block = max(1, _BATCH_ENTRIES // total)
        for start in range(0, total, block):
            rows = slice(start, start + block)
            bad = np.flatnonzero(key[fam_meet[rows]] != meet_of_images[key[rows]][:, key])
            if bad.size:
                break
        if bad.size:
            s, t = divmod(start * total + int(bad[0]), total)
            meet_bad = (s, t, int(fam_meet[s, t]))
    else:
        pairs = [(rng.choice(fam_ids), rng.choice(fam_ids)) for _ in range(sample_size)]
        mids = image_of.combine(meets, [s for s, _ in pairs], [t for _, t in pairs]).tolist()
        image_of.add(mids)
        for (s, t), mid in zip(pairs, mids):
            if image_of(mid) != image_of(s).meet(image_of(t)):
                meet_bad = (s, t, mid)
                break
    meet_witness = None
    if meet_bad is not None:
        s, t, mid = meet_bad
        meet_witness = {
            "family_a": family_text(s),
            "family_b": family_text(t),
            "image_of_meet": format_partition(image_of(mid)),
            "meet_of_images": format_partition(image_of(s).meet(image_of(t))),
        }
    checks.append(Check("preserves-meets", meet_witness is None, meet_witness))

    # joins are not asserted by the theorem; report them as information
    reps = np.array(sorted(members[0] for members in by_class.values())[:64], dtype=np.int64)
    first, second = np.triu_indices(len(reps))
    jids = image_of.combine([lat.join_table() for lat in lattices], reps[first], reps[second]).tolist()
    image_of.add(jids)
    # every pair's images joined in one stack, each image picked by its number
    image_rows = _label_rows(image_of.images, image_of.ultra_alg.size)
    left, right, joined = (np.array([number[f] for f in fids], dtype=np.int64)
                           for fids in (reps[first].tolist(), reps[second].tolist(), jids))
    join_bad = int((_join_stack(image_rows[left], image_rows[right]) != image_rows[joined]).any(axis=1).sum())

    found = {
        "image_size": len({number[f] for f in fam_ids}),
        "joins_preserved": join_bad == 0,
        "join_counterexamples": join_bad,
    }
    return checks, found


def _is_isomorphism(source: Algebra, target: Algebra, image: tuple) -> bool:
    """Is the map with this image a bijective homomorphism whose inverse is
    one too?  Kept on source by (target, image): the answer depends only on
    the two algebras' immutable tables and the image."""
    key = (target, image)
    found = source._iso_maps.get(key)
    if found is None:
        h = ElemMap(source.size, target.size, image)
        found = source._iso_maps[key] = (h.is_bijective() and is_homomorphism(h, source, target)
                                         and is_homomorphism(h.inverse(), target, source))
    return found


def verify_thm2(family: CongruenceFamily, ultra: UltrafilterD) -> VerificationReport:
    """Check the quotient-transfer theorem on one family.

    When the coordinatewise map passes its homomorphism check, its kernel
    is a congruence of the product by construction, so its class ids, found
    from the map's own image, are recorded there (Congruence._trusted).
    The product congruence theta equals that kernel on every passing
    family and is then not validated again; a theta that differs from it
    is validated in full.  A theta that is no congruence fails
    kernel-is-product-congruence and every check that needs theta, each
    with the reason as its witness; one that D* does not refine fails the
    three checks after kernel-is-product-congruence that way.
    """
    factors = family.factors
    prod = direct_product(factors)
    ultra_alg = ultraproduct(factors, ultra)
    quot_ultra = ultraproduct([quotient(f, c) for f, c in zip(factors, family.choice)], ultra)
    cmap = coordinatewise_quotient_map(family, ultra)
    instance = {
        "factors": [{"name": f.name, "size": f.size} for f in factors],
        "sigma": _family_text(family),
        "ultrafilter": ultra.members_as_sets(),
    }
    info = {
        "product_size": prod.size,
        "ultraproduct_size": ultra_alg.size,
        "quotient_ultraproduct_size": quot_ultra.size,
    }

    checks = []

    hom_ok = is_homomorphism(cmap, prod, quot_ultra)
    checks.append(Check("coordinatewise-map-is-homomorphism", hom_ok))
    if hom_ok:
        # a homomorphism's kernel is a congruence of its source; its class
        # ids come from the image that was checked, not through kernel()
        Congruence._trusted(prod, _least_members(cmap.array, cmap.target_size).tobytes())
    surj_ok = cmap.is_surjective()
    checks.append(Check("coordinatewise-map-is-surjective", surj_ok))

    def without_theta(names, exc):
        reason = {"reason": str(exc)}
        info["transferred_congruence"] = reason
        return VerificationReport("thm2", instance, tuple(checks + [Check(n, False, reason) for n in names]), info)

    ker = kernel(cmap)
    try:
        theta = product_congruence(family, ultra)
    except ValidationError as exc:
        # theta is neither the kernel recorded above nor a congruence
        return without_theta(_THETA_CHECKS, exc)
    ker_witness = None
    if ker != theta:
        # row a holds a mismatch iff a's kernel class, theta class and their meet differ in size
        k, t = ker.labels, theta.labels
        _, joint, both = np.unique(k * k.size + t, return_inverse=True, return_counts=True)
        ksize, tsize = np.bincount(k)[k], np.bincount(t)[t]
        a = int(np.argmin((both[joint] == ksize) & (ksize == tsize)))
        b = int(np.argmax((k == k[a]) != (t == t[a])))
        ker_witness = {
            "pair": [list(prod.decode(a)), list(prod.decode(b))],
            "kernel_relates": ker.relates(a, b),
            "product_congruence_relates": theta.relates(a, b),
        }
    else:
        # the kernel and theta can share a fault (both come from the same
        # labelling), so also hold theta against its definition
        mismatch = _definition_mismatch(family, ultra, theta)
        if mismatch is not None:
            x, r, defined, related = mismatch
            ker_witness = {
                "pair": [list(prod.decode(x)), list(prod.decode(r))],
                "definition_relates": defined,
                "product_congruence_relates": related,
            }
    checks.append(Check("kernel-is-product-congruence", ker_witness is None, ker_witness))

    # factor the map through ultraproduct / transferred congruence
    try:
        transferred = induced_congruence(theta, ultra_alg.congruence, quotient_algebra=ultra_alg)
    except ValidationError as exc:
        # D* does not refine theta, so theta does not reach the ultraproduct
        return without_theta(_THETA_CHECKS[1:], exc)
    inner = quotient(ultra_alg, transferred)
    image = cmap.array
    over = inner.projection_array[ultra_alg.projection_array]  # inner element below each p
    # induced sends t to the image of the least p over t, the least member
    # of the least member of t's class (quotients number classes by their
    # least members); a witness is the least p whose image differs from it
    induced = image[np.asarray(ultra_alg.class_reps)[list(inner.class_reps)]]
    bad = np.flatnonzero(image != induced[over])
    factor_witness = None
    if bad.size:
        p = int(bad[0])
        t = int(over[p])
        factor_witness = {"quotient_element": t, "values": [int(induced[t]), int(image[p])]}
    checks.append(Check("map-factors-through-transferred-congruence", factor_witness is None, factor_witness))

    iso_ok = factor_witness is None and _is_isomorphism(inner, quot_ultra, tuple(induced.tolist()))
    checks.append(Check("induced-map-is-isomorphism", iso_ok))

    search_witness = None
    try:
        found = find_isomorphism(inner, quot_ultra).found
    except SizeGuardError as exc:
        found, search_witness = False, {"reason": str(exc)}
    checks.append(Check("independent-isomorphism-search", found, search_witness))

    info["transferred_congruence"] = format_partition(transferred)
    return VerificationReport("thm2", instance, tuple(checks), info)


def verify_thm3(algebra: Algebra, sigmas, ultra: UltrafilterD) -> VerificationReport:
    """Check the ultrapower-restriction theorem on one family."""
    sigmas = _validated_sigmas(algebra, sigmas, ultra)
    checks = []

    restr_matrix = _diagonal_restriction_matrix(algebra, sigmas, ultra)
    union_matrix = _union_of_meets_matrix(algebra, sigmas, ultra)

    eq_witness = None
    if not np.array_equal(restr_matrix, union_matrix):
        a, b = map(int, np.argwhere(restr_matrix != union_matrix)[0])
        eq_witness = {
            "pair": [a, b],
            "in_restriction": bool(restr_matrix[a, b]),
            "in_union_of_meets": bool(union_matrix[a, b]),
        }
    checks.append(Check("union-of-meets-equals-restriction", eq_witness is None, eq_witness))

    # the union being transitive (an equivalence at all) is the hard half
    union_part = None
    trans_witness = None
    try:
        union_part = Partition.from_matrix(union_matrix)
    except ValidationError as exc:
        trans_witness = {"reason": str(exc)}
    checks.append(Check("union-of-meets-is-equivalence", trans_witness is None, trans_witness))

    cong_witness = None
    if union_part is not None:
        try:
            Congruence(algebra, union_part)
        except ValidationError as exc:
            cong_witness = {"reason": str(exc)}
    else:
        cong_witness = {"reason": "union is not even an equivalence"}
    checks.append(Check("union-of-meets-is-congruence", cong_witness is None, cong_witness))

    join_witness = None
    try:
        joined = join_of_meets(algebra, sigmas, ultra)
    except ValidationError as exc:
        join_witness = {"reason": str(exc)}
    else:
        if union_part is None or joined != union_part:
            join_witness = {
                "join_of_meets": format_partition(joined),
                "union_of_meets": format_partition(union_part) if union_part else None,
            }
    checks.append(Check("join-of-meets-equals-union", join_witness is None, join_witness))

    # pull the transferred congruence back along the natural embedding
    power = ultraproduct((algebra,) * ultra.n, ultra)
    embed = natural_embedding(algebra, ultra)
    embed_ok = embed.is_injective() and is_homomorphism(embed, algebra, power)
    checks.append(Check("natural-embedding-is-injective-homomorphism", embed_ok))

    family = CongruenceFamily((algebra,) * ultra.n, sigmas)
    pull_witness = None
    try:
        transferred = congruence_on_ultraproduct(family, ultra)
    except ValidationError as exc:
        pull_witness = {"reason": str(exc)}
    else:
        pulled = transferred.to_matrix()[np.ix_(embed.array, embed.array)]
        if not np.array_equal(pulled, restr_matrix):
            a, b = map(int, np.argwhere(pulled != restr_matrix)[0])
            pull_witness = {
                "pair": [a, b],
                "pullback_relates": bool(pulled[a, b]),
                "restriction_relates": bool(restr_matrix[a, b]),
            }
    checks.append(Check("pullback-along-embedding-equals-restriction", pull_witness is None, pull_witness))

    try:
        restriction = format_partition(Partition.from_matrix(restr_matrix))
    except ValidationError as exc:
        restriction = {"reason": str(exc)}
    instance = {
        "algebra": {"name": algebra.name, "size": algebra.size},
        "sigma": [format_partition(s) for s in sigmas],
        "ultrafilter": ultra.members_as_sets(),
    }
    info = {
        "ultrapower_size": power.size,
        "restriction": restriction,
        "members_used": len(ultra.members),
    }
    return VerificationReport("thm3", instance, tuple(checks), info)
