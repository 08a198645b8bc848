"""Corpus-wide verification sweeps.

An instance is an unordered selection (with repetition) of same-signature
corpus algebras whose carrier product stays below a bound, together with
one of the ultrafilters over the matching index set.  The sweeps run a
theorem verifier over every instance and collect the failures; family
choices inside an instance are exhaustive up to a limit and seeded-random
beyond it.
"""

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
import random

from .congruence import con_lattice_of
from .constructions import ultraproduct
from .iso import find_isomorphism
from .theorems import (
    EXHAUSTIVE_LIMIT,
    SAMPLE_SIZE,
    _family_from_id,
    _family_ids,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)
from .ultrafilter import enumerate_ultrafilters

DEFAULT_MAX_PRODUCT = 81
INDEX_SIZES = (2, 3)
THM3_MAX_ALGEBRA_SIZE = 4


@dataclass
class SweepResult:
    """Outcome of one sweep: counts plus the reports of anything that failed."""

    name: str
    instances: int = 0
    families: int = 0
    failures: list = field(default_factory=list)
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.instances > 0 and not self.failures

    def to_dict(self) -> dict:
        return {
            "sweep": self.name,
            "instances": self.instances,
            "families": self.families,
            "passed": self.passed,
            "failures": self.failures,
            "details": self.details,
        }


def signature_groups(algebras) -> list:
    """Split a corpus into same-signature groups, preserving order."""
    groups = []
    for alg in algebras:
        for sig, members in groups:
            if sig == alg.signature:
                members.append(alg)
                break
        else:
            groups.append((alg.signature, [alg]))
    return [(sig, tuple(members)) for sig, members in groups]


def iter_instances(algebras, max_product: int = DEFAULT_MAX_PRODUCT):
    """Yield (factors, ultrafilter) for every qualifying selection."""
    for _, members in signature_groups(algebras):
        for count in INDEX_SIZES:
            ultras = enumerate_ultrafilters(count)
            for combo in combinations_with_replacement(members, count):
                size = 1
                for f in combo:
                    size *= f.size
                if size > max_product:
                    continue
                for ultra in ultras:
                    yield combo, ultra


def _tally(out: SweepResult, detail: dict, reports) -> None:
    """Add one instance's per-family reports to out, keeping the first 32 failures."""
    families = bad = 0
    for report in reports:
        families += 1
        if not report.passed:
            bad += 1
            if len(out.failures) < 32:
                out.failures.append(report.to_dict())
    out.instances += 1
    out.families += families
    out.details.append({**detail, "families": families, "failures": bad})


def sweep_thm1(algebras, *, max_product: int = DEFAULT_MAX_PRODUCT, seed: int = 0) -> SweepResult:
    """verify_thm1 on every instance (it sweeps families internally)."""
    out = SweepResult("thm1")
    for factors, ultra in iter_instances(algebras, max_product):
        report = verify_thm1(factors, ultra, seed=seed)
        out.instances += 1
        out.families += report.info["families_checked"]
        out.details.append({
            "instance": report.instance,
            "passed": report.passed,
            "image_size": report.info["image_size"],
        })
        if not report.passed:
            out.failures.append(report.to_dict())
    return out


def sweep_thm2(algebras, *, max_product: int = DEFAULT_MAX_PRODUCT, seed: int = 0) -> SweepResult:
    """verify_thm2 on every family of every instance."""
    out = SweepResult("thm2")
    rng = random.Random(seed)
    for factors, ultra in iter_instances(algebras, max_product):
        lattices = [con_lattice_of(f) for f in factors]
        fam_ids, _ = _family_ids([len(lat) for lat in lattices], EXHAUSTIVE_LIMIT, SAMPLE_SIZE, rng)
        detail = {"factors": [f.name for f in factors], "ultrafilter": ultra.members_as_sets()}
        _tally(out, detail, (verify_thm2(_family_from_id(fid, factors, lattices), ultra) for fid in fam_ids))
    return out


def sweep_thm3(algebras, *, seed: int = 0) -> SweepResult:
    """verify_thm3 on every sigma-family of every small corpus algebra."""
    out = SweepResult("thm3")
    rng = random.Random(seed)
    for algebra in algebras:
        if algebra.size > THM3_MAX_ALGEBRA_SIZE:
            continue
        lattice = con_lattice_of(algebra)
        for count in INDEX_SIZES:
            fam_ids, _ = _family_ids([len(lattice)] * count, EXHAUSTIVE_LIMIT, SAMPLE_SIZE, rng)
            families = [_family_from_id(fid, (algebra,) * count, [lattice] * count) for fid in fam_ids]
            for ultra in enumerate_ultrafilters(count):
                detail = {"algebra": algebra.name, "ultrafilter": ultra.members_as_sets()}
                _tally(out, detail, (verify_thm3(algebra, fam.choice, ultra) for fam in families))
    return out


def sweep_principal_collapse(algebras, *, max_product: int = DEFAULT_MAX_PRODUCT) -> SweepResult:
    """Ultraproduct with a principal ultrafilter is isomorphic to the chosen factor.

    Verified with an explicit witness, checked in both directions by the
    isomorphism search itself.
    """
    out = SweepResult("principal-collapse")
    for factors, ultra in iter_instances(algebras, max_product):
        out.instances += 1
        i0 = ultra.principal_index()
        power = ultraproduct(factors, ultra)
        result = find_isomorphism(power, factors[i0])
        ok = result.found
        out.details.append({
            "factors": [f.name for f in factors],
            "principal_index": i0,
            "ultraproduct_size": power.size,
            "isomorphic": ok,
            "witness": list(result.witness.image) if result.witness else None,
        })
        if not ok:
            out.failures.append({
                "factors": [f.name for f in factors],
                "principal_index": i0,
                "reason": "no isomorphism found between the ultraproduct and the selected factor",
            })
    return out
