"""Finite algebras as flat operation tables.

An algebra here is a carrier {0, ..., size-1} together with one total
operation table per symbol of its signature.  Tables are stored as flat,
read-only int64 arrays in row-major order with the FIRST argument most
significant: the table index of (a1, ..., ak) on a carrier of size n is
sum(aj * n**(k-j)).  ``Algebra.table`` gives the same table as a tuple of
Python ints, for element-by-element lookups in Python loops.

Direct products use the same mixed-radix convention over the factor sizes,
coordinate 0 most significant: in a product with sizes (2, 3), element 5
decodes to (1, 2).  Quotient carriers are numbered by ascending least
member of the congruence classes.
"""

import json
import math
import zlib
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import SizeGuardError, ValidationError

# Products, quotients and derived carriers larger than this are rejected
# instead of exhausting memory.  Callers can pass a smaller guard.
DEFAULT_SIZE_GUARD = 10_000


class Signature:
    """An ordered list of (symbol name, arity) pairs with unique names."""

    __slots__ = ("symbols", "_arities")

    def __init__(self, symbols):
        syms = []
        for entry in symbols:
            try:
                name, arity = entry
            except (TypeError, ValueError):
                raise ValidationError(f"signature entry {entry!r} is not a (name, arity) pair") from None
            if not isinstance(name, str) or not name:
                raise ValidationError(f"symbol name must be a non-empty string, got {name!r}")
            if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
                raise ValidationError(f"arity of {name!r} must be a non-negative int, got {arity!r}")
            syms.append((name, arity))
        names = [n for n, _ in syms]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate symbol names in signature: {names}")
        self.symbols = tuple(syms)
        self._arities = dict(self.symbols)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise ValidationError(f"unknown symbol {name!r}; signature has {sorted(self._arities)}") from None

    @property
    def names(self) -> tuple:
        return tuple(n for n, _ in self.symbols)

    def __contains__(self, name) -> bool:
        return name in self._arities

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{k}" for n, k in self.symbols)
        return f"Signature({inner})"


def _is_element(value, size: int) -> bool:
    """Is value an int (bools excluded) in 0..size-1?"""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def _check_ints(values, bound, describe) -> None:
    """Raise ValidationError(describe(index, value)) for the first entry of
    the sequence `values` that is not an int (bools excluded) in 0..bound-1.

    Plain ints are checked in one pass over their types and one min/max;
    anything else, int subclasses included, falls back to a per-entry test.
    """
    if set(map(type, values)) <= {int} and (not values or (min(values) >= 0 and max(values) < bound)):
        return
    for idx, value in enumerate(values):
        if not _is_element(value, bound):
            raise ValidationError(describe(idx, value))


def _checked_table(sym, table, size, arity, copy=True) -> np.ndarray:
    """A private read-only int64 copy of one operation table, after checking
    its length, its entry type and that every entry lies in the carrier.
    With copy=False an int64 array is kept as it is, made read-only."""
    if isinstance(table, np.ndarray):
        if table.dtype.kind not in "iu":
            raise ValidationError(f"table for {sym!r} has dtype {table.dtype}; entries must be integers")
        if table.ndim != 1:
            raise ValidationError(f"table for {sym!r} has shape {table.shape}; tables are flat")
    elif not isinstance(table, (list, tuple)):
        table = tuple(table)
    want = size**arity
    if len(table) != want:
        raise ValidationError(f"table for {sym!r} has {len(table)} entries, expected {size}**{arity} = {want}")

    def outside(idx, value):
        return f"table entry {sym!r}[{idx}] = {value!r} is outside the carrier 0..{size - 1}"

    if isinstance(table, np.ndarray):
        arr = np.array(table, dtype=np.int64) if copy else np.asarray(table, dtype=np.int64)
        # viewed as uint64, a negative entry (or a uint64 one of 2**63 or more,
        # which the cast wraps) is at least 2**63: one max bounds both ends
        unsigned = arr.view(np.uint64)
        if unsigned.max() >= size:
            idx = int(np.argmax(unsigned >= size))
            raise ValidationError(outside(idx, table[idx].item()))
    else:
        _check_ints(table, size, outside)
        arr = np.array(table, dtype=np.int64)
    arr.setflags(write=False)
    return arr


class Algebra:
    """A finite algebra: carrier {0..size-1} plus one flat table per symbol.

    Immutable after construction.  The constructor checks that every table
    has length size**arity and every entry lies in the carrier, and keeps
    its own read-only int64 copy: ``tables`` maps each symbol to that
    array.  A table may be given as a list or tuple of ints or as an
    integer-dtype numpy array.  Products and quotients keep the arrays
    they build, with the same checks and no copy.
    """

    __slots__ = ("signature", "size", "tables", "name", "_hash", "_tuples", "_isos", "_congruences",
                 "_iso_maps")

    # True in subclasses whose constructor builds the int64 tables it
    # passes here and keeps no other reference to them
    _keeps_built_tables = False

    def __init__(self, signature, size, tables, name: str = ""):
        if not isinstance(signature, Signature):
            signature = Signature(signature)
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ValidationError(f"carrier size must be a positive int, got {size!r}")
        if set(tables) != set(signature.names):
            missing = set(signature.names) - set(tables)
            extra = set(tables) - set(signature.names)
            raise ValidationError(
                f"tables do not match signature (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        copy = not self._keeps_built_tables
        clean = {sym: _checked_table(sym, tables[sym], size, arity, copy) for sym, arity in signature.symbols}
        self.signature = signature
        self.size = size
        self.tables = MappingProxyType(clean)
        self.name = name
        self._hash = None
        self._tuples = {}
        # Results that depend only on these immutable tables, kept with them:
        self._isos = {}  # find_isomorphism results from this algebra, by (target, guard)
        self._congruences = set()  # class_id tuples validated as congruences (only passes)
        self._iso_maps = {}  # is the map with this image an isomorphism, by (target, image)

    @property
    def elements(self) -> range:
        return range(self.size)

    def table(self, symbol: str) -> tuple:
        """Flat table as a tuple of Python ints, built on first use."""
        tup = self._tuples.get(symbol)
        if tup is None:
            tup = tuple(self.table_array(symbol).tolist())
            self._tuples[symbol] = tup
        return tup

    def table_array(self, symbol: str) -> np.ndarray:
        """Flat table as the stored read-only int64 array."""
        if symbol not in self.tables:
            self.signature.arity(symbol)  # raises ValidationError naming the symbol
        return self.tables[symbol]

    def apply(self, symbol: str, args) -> int:
        args = tuple(args)
        arity = self.signature.arity(symbol)
        if len(args) != arity:
            raise ValidationError(f"{symbol!r} takes {arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            if not _is_element(a, self.size):
                raise ValidationError(f"argument {a!r} is outside the carrier 0..{self.size - 1}")
            idx = idx * self.size + a
        return self.table(symbol)[idx]

    def rename(self, name: str) -> "Algebra":
        """Same algebra under a different display name."""
        return Algebra(self.signature, self.size, self.tables, name)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not (isinstance(other, Algebra) and self.size == other.size and self.signature == other.signature):
            return False
        # memoryview equality skips np.array_equal's call overhead, which
        # dominates on the small tables that cache lookups compare
        for sym, table in self.tables.items():
            if memoryview(table) != memoryview(other.tables[sym]):
                return False
        return True

    def __hash__(self) -> int:
        if self._hash is None:
            # equal tables have equal int64 bytes; crc32 reads them without a copy
            items = tuple(zlib.crc32(self.tables[n]) for n in self.signature.names)
            self._hash = hash((self.signature, self.size, items))
        return self._hash

    def __repr__(self) -> str:
        ops = ", ".join(f"{n}/{k}" for n, k in self.signature.symbols)
        label = f" {self.name!r}" if self.name else ""
        return f"<Algebra{label} size={self.size} ops=[{ops}]>"


def make_algebra(signature, size, tables, name: str = "") -> Algebra:
    """Validating factory; accepts a Signature or an iterable of (name, arity)."""
    return Algebra(signature, size, tables, name)


class ElemMap:
    """A total map between two carriers, stored as its image tuple."""

    __slots__ = ("source_size", "target_size", "image")

    def __init__(self, source_size: int, target_size: int, image):
        image = tuple(image)
        if len(image) != source_size:
            raise ValidationError(f"image has {len(image)} entries, expected {source_size}")
        _check_ints(
            image,
            target_size,
            lambda x, y: f"image[{x}] = {y!r} is outside the target carrier 0..{target_size - 1}",
        )
        self.source_size = source_size
        self.target_size = target_size
        self.image = image

    @classmethod
    def identity(cls, size: int) -> "ElemMap":
        return cls(size, size, range(size))

    def __getitem__(self, x: int) -> int:
        return self.image[x]

    def __call__(self, x: int) -> int:
        return self.image[x]

    def then(self, other: "ElemMap") -> "ElemMap":
        """Composition: first self, then other."""
        if other.source_size != self.target_size:
            raise ValidationError(
                f"cannot compose: target size {self.target_size} != next source size {other.source_size}"
            )
        return ElemMap(self.source_size, other.target_size, tuple(other.image[y] for y in self.image))

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source_size

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target_size

    def is_bijective(self) -> bool:
        return self.source_size == self.target_size and self.is_injective()

    def inverse(self) -> "ElemMap":
        if not self.is_bijective():
            raise ValidationError("only bijective maps can be inverted")
        inv = [0] * self.target_size
        for x, y in enumerate(self.image):
            inv[y] = x
        return ElemMap(self.target_size, self.source_size, inv)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElemMap)
            and self.source_size == other.source_size
            and self.target_size == other.target_size
            and self.image == other.image
        )

    def __hash__(self) -> int:
        return hash((self.source_size, self.target_size, self.image))

    def __repr__(self) -> str:
        return f"ElemMap({self.source_size}->{self.target_size}, {self.image})"


def _coordinate_vectors(sizes, strides, elements):
    """Per-factor coordinates of product elements, as int64 vectors.

    elements is an array or list of elements.
    """
    base = np.asarray(elements, dtype=np.int64)
    return [(base // strides[i]) % sizes[i] for i in range(len(sizes))]


def _radix_sums(parts) -> np.ndarray:
    """Row r, product element x: the sum over factors i of parts[i][r, x_i].

    parts[i] is an (R, n_i) or (1, n_i) int64 array over factor i's
    carrier, and x is mixed radix over the n_i, coordinate 0 most
    significant.  Folded over the factors left to right as in
    _product_tables: element x * n + c has coordinates x and c, so one
    broadcast pass per factor builds the (R, prod n_i) result, with no
    decode of the elements.
    """
    acc = np.zeros((1, 1), dtype=np.int64)
    for part in parts:
        acc = acc[:, :, None] + part[:, None, :]
        acc = acc.reshape(acc.shape[0], acc.shape[1] * acc.shape[2])
    return acc


class ProductAlgebra(Algebra):
    """Direct product of same-signature algebras, carrier mixed-radix encoded.

    Coordinate 0 is most significant: strides[i] is the product of the
    sizes of all later factors, encode(coords) = sum(c_i * strides[i]).
    """

    __slots__ = ("factors", "strides")
    _keeps_built_tables = True

    def __init__(self, factors, max_size: int = DEFAULT_SIZE_GUARD):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("a direct product needs at least one factor")
        sig = factors[0].signature
        for i, f in enumerate(factors):
            if f.signature != sig:
                raise ValidationError(
                    f"factor {i} has signature {f.signature!r}, expected {sig!r}; "
                    "all factors of a product must share one signature"
                )
        sizes = [f.size for f in factors]
        size = math.prod(sizes)
        if size > max_size:
            raise SizeGuardError(f"product carrier would have {size} elements, guard is {max_size}")
        self.factors = factors
        self.strides = _strides(sizes)
        tables = _product_tables(sig.symbols, sizes, [f.tables for f in factors])
        name = " x ".join(f.name or f"A{i}" for i, f in enumerate(factors))
        super().__init__(sig, size, tables, name=name)

    def encode(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != len(self.factors):
            raise ValidationError(f"expected {len(self.factors)} coordinates, got {len(coords)}")
        out = 0
        for c, f, s in zip(coords, self.factors, self.strides):
            if not _is_element(c, f.size):
                raise ValidationError(f"coordinate {c!r} is outside the factor carrier 0..{f.size - 1}")
            out += c * s
        return out

    def decode(self, element: int) -> tuple:
        if not _is_element(element, self.size):
            raise ValidationError(f"element {element!r} is outside the carrier 0..{self.size - 1}")
        return tuple((element // s) % f.size for f, s in zip(self.factors, self.strides))


def _strides(sizes) -> tuple:
    """Mixed-radix strides over sizes, coordinate 0 most significant."""
    return tuple(math.prod(sizes[i + 1:]) for i in range(len(sizes)))


def _product_tables(symbols, sizes, tables):
    """Tables of a direct product: one flat array for each (symbol, arity) in symbols.

    tables[i] maps each symbol to its table on factor i, of sizes[i]
    elements.  Each table is a mixed-radix recurrence folded over the
    factors left to right: with m the size of the product so far and n the
    next factor's size, element x * n + c has coordinates x and c, so the
    table at (x1 * n + c1, ..., xk * n + ck) is acc[x] * n + local[c], one
    broadcast pass per factor and no gather index (arity 0 included).  acc
    is scaled in place, so a pass holds only the old and the new table.
    """
    out = {}
    for sym, arity in symbols:
        acc = np.zeros(1, dtype=np.int64)
        m = 1
        for n, local in zip(sizes, tables):
            acc *= n
            acc = (acc.reshape((m, 1) * arity) + local[sym].reshape((1, n) * arity)).reshape((m * n,) * arity)
            m *= n
        out[sym] = acc.ravel()
    return out


@lru_cache(maxsize=512)
def _direct_product_cached(factors, max_size):
    return ProductAlgebra(factors, max_size)


def direct_product(factors, max_size: int = DEFAULT_SIZE_GUARD) -> ProductAlgebra:
    """Direct product of same-signature algebras; repeated calls are cached."""
    return _direct_product_cached(tuple(factors), max_size)


def _take_each_axis(table, size, indices):
    """Flat table[i1, ..., ik] over all i1 in indices[0], ..., ik in indices[k-1].

    table is the flat table of a k-ary operation on a carrier of the given
    size, and indices holds one index array per argument.  One take per
    axis gathers along that axis, so no array of index tuples is built.
    """
    picked = table.reshape((size,) * len(indices))
    for axis, index in enumerate(indices):
        picked = picked.take(index, axis=axis)
    return picked.ravel()


class QuotientAlgebra(Algebra):
    """Quotient of an algebra by a congruence.

    Classes are numbered by ascending least member; class_reps[c] is that
    least member and projection maps each parent element to its class
    (projection_array holds the same image as a read-only int64 array).
    """

    __slots__ = ("parent", "congruence", "projection", "projection_array", "class_reps")
    _keeps_built_tables = True

    def __init__(self, parent: Algebra, congruence, max_size: int = DEFAULT_SIZE_GUARD):
        congruence = _congruence._as_congruence(parent, congruence)
        cid = np.asarray(congruence.class_id, dtype=np.int64)
        is_rep = cid == np.arange(parent.size)
        reps = np.flatnonzero(is_rep)
        if len(reps) > max_size:
            raise SizeGuardError(f"quotient carrier would have {len(reps)} elements, guard is {max_size}")
        # a class's number is the count of least members below its own
        proj = (np.cumsum(is_rep) - 1)[cid]
        proj.setflags(write=False)
        tables = {}
        for sym, arity in parent.signature.symbols:
            picked = _take_each_axis(parent.table_array(sym), parent.size, [reps] * arity)
            tables[sym] = proj[picked]
        name = f"{parent.name}/~" if parent.name else ""
        super().__init__(parent.signature, len(reps), tables, name=name)
        self.parent = parent
        self.congruence = congruence
        self.projection = ElemMap(parent.size, len(reps), proj.tolist())
        self.projection_array = proj
        self.class_reps = tuple(reps.tolist())


@lru_cache(maxsize=2048)
def _quotient_cached(parent, congruence, max_size):
    return QuotientAlgebra(parent, congruence, max_size)


def quotient(algebra: Algebra, congruence, max_size: int = DEFAULT_SIZE_GUARD) -> QuotientAlgebra:
    """Quotient algebra A/theta; theta must be (or validate as) a congruence of A."""
    return _quotient_cached(algebra, _congruence._as_congruence(algebra, congruence), max_size)


def kernel(h: ElemMap):
    """Partition of the source identifying elements with equal image."""
    return _congruence.Partition(h.image)


def is_homomorphism(h: ElemMap, source: Algebra, target: Algebra) -> bool:
    """Does h carry every source operation onto the target operation?

    Each source table goes through a block of first arguments at a time:
    h of the block's table rows against the target table at h of their
    arguments.  A block holds at most congruence._STACK_ENTRIES entries
    (or one table row, if that is larger), and the first block that
    differs ends the check.
    """
    if source.signature != target.signature:
        raise ValidationError("source and target must share a signature")
    if h.source_size != source.size or h.target_size != target.size:
        raise ValidationError(
            f"map is {h.source_size}->{h.target_size}, algebras are {source.size}->{target.size}"
        )
    img = np.asarray(h.image, dtype=np.int64)
    for sym, arity in source.signature.symbols:
        src_table = source.table_array(sym)
        tgt_table = target.table_array(sym)
        if arity == 0:
            if h.image[src_table[0]] != tgt_table[0]:
                return False
            continue
        width = len(src_table) // source.size  # entries per first argument
        step = max(1, _congruence._STACK_ENTRIES // width)
        for start in range(0, source.size, step):
            images = _take_each_axis(tgt_table, target.size, [img[start:start + step]] + [img] * (arity - 1))
            if (img.take(src_table[start * width:(start + step) * width]) != images).any():
                return False
    return True


def algebra_to_dict(algebra: Algebra, provenance: dict | None = None) -> dict:
    """JSON-ready description: name, size, signature, flat tables."""
    data = {
        "name": algebra.name,
        "size": algebra.size,
        "signature": [{"name": n, "arity": k} for n, k in algebra.signature.symbols],
        "tables": {n: algebra.table_array(n).tolist() for n in algebra.signature.names},
    }
    if provenance is not None:
        data["provenance"] = provenance
    return data


def algebra_from_dict(data) -> Algebra:
    if not isinstance(data, dict):
        raise ValidationError(f"algebra description must be an object, got {type(data).__name__}")
    for key in ("size", "signature", "tables"):
        if key not in data:
            raise ValidationError(f"algebra description is missing the {key!r} field")
    raw_sig = data["signature"]
    if not isinstance(raw_sig, list):
        raise ValidationError("'signature' must be a list of {name, arity} objects")
    symbols = []
    for entry in raw_sig:
        if not isinstance(entry, dict) or "name" not in entry or "arity" not in entry:
            raise ValidationError(f"bad signature entry {entry!r}; expected {{'name': ..., 'arity': ...}}")
        symbols.append((entry["name"], entry["arity"]))
    tables = data["tables"]
    if not isinstance(tables, dict):
        raise ValidationError("'tables' must be an object mapping symbol name to a flat list")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValidationError(f"'name' must be a string, got {name!r}")
    return Algebra(Signature(symbols), data["size"], tables, name=name)


def load_algebra(path) -> Algebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return algebra_from_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_algebra(algebra: Algebra, path, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(algebra, provenance), fh, indent=2, sort_keys=True)
        fh.write("\n")


# congruence builds on this module's Algebra, so it is bound here, once
# everything it imports from this module exists; the functions above look
# it up when they run
from . import congruence as _congruence  # noqa: E402
