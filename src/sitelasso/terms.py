"""Model terms: polynomial and interaction columns derived from raw covariates.

A term is either a single-covariate polynomial (order 1..4) or a product of
two distinct covariates' linear terms. Terms may additionally be scoped to a
site, in which case their column is structurally zero on rows of any other
site. Term ids are plain strings built so they parse back unambiguously:

    c0        linear term of covariate c0
    c0^3      third order polynomial term
    c0:c1     interaction (product of linear terms)
    B1@c0^2   the same vocabulary scoped to site B1

The characters ``^ : @ ,`` and whitespace are therefore forbidden in
covariate names and site ids.

Every term value is a chain of IEEE products: x^2 is x*x, x^3 is (x*x)*x
and x^4 is (x*x)*(x*x). Each product is rounded exactly once, so a term's
bits are the same on every CPU, for every block of values it is evaluated
in, and odd (even) orders are exactly odd (even) in the sign of x. A call
to ``pow`` would not be: numpy's vector and scalar routes disagree in the
last bit, and an array with a negative value takes the scalar route, tens
of times slower than the products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

FORBIDDEN_CHARS = set("^:@,")
MAX_ORDER = 4  # highest polynomial order; evaluate_term's product chain covers 1..4


def validate_identifier(name, what="identifier"):
    """Reject names that would make term ids ambiguous."""
    if not isinstance(name, str) or name == "":
        raise DataError(f"{what} must be a non-empty string, got {name!r}")
    if any(ch in FORBIDDEN_CHARS or ch.isspace() for ch in name):
        raise DataError(
            f"{what} {name!r} contains a forbidden character "
            "(one of '^', ':', '@', ',', or whitespace)"
        )


@dataclass(frozen=True)
class TermSpec:
    """One design column.

    kind is "poly" or "inter". For polynomials ``base`` is the covariate and
    ``order`` is 1..MAX_ORDER; for interactions ``base`` and ``other`` are
    the two covariates and order is 1. ``scope`` is None for a global column
    or a site id for a site-scoped column.
    """

    kind: str
    base: str
    order: int = 1
    other: str = None
    scope: str = None

    def __post_init__(self):
        if self.kind not in ("poly", "inter"):
            raise DataError(f"unknown term kind {self.kind!r}")
        if self.kind == "poly":
            if not 1 <= self.order <= MAX_ORDER:
                raise DataError(
                    f"polynomial order must be in 1..{MAX_ORDER}, got {self.order}"
                )
            if self.other is not None:
                raise DataError("polynomial terms take a single covariate")
        else:
            if self.order != 1:
                raise DataError("interaction terms are products of linear terms only")
            if self.other is None or self.other == self.base:
                raise DataError("interaction terms need two distinct covariates")

    @property
    def term_id(self):
        if self.kind == "poly":
            core = self.base if self.order == 1 else f"{self.base}^{self.order}"
        else:
            core = f"{self.base}:{self.other}"
        return core if self.scope is None else f"{self.scope}@{core}"

    def with_scope(self, scope):
        return TermSpec(self.kind, self.base, self.order, self.other, scope)

    def unscoped(self):
        return self if self.scope is None else self.with_scope(None)

    @property
    def covariates(self):
        """Base covariate names this term reads."""
        if self.kind == "poly":
            return (self.base,)
        return (self.base, self.other)

    def __str__(self):
        return self.term_id


def parse_term_id(text):
    """Inverse of :attr:`TermSpec.term_id`."""
    if not isinstance(text, str) or text == "":
        raise DataError(f"not a term id: {text!r}")
    scope = None
    core = text
    if "@" in text:
        scope, _, core = text.partition("@")
        if scope == "" or core == "":
            raise DataError(f"not a term id: {text!r}")
    if ":" in core:
        a, _, b = core.partition(":")
        if not a or not b or "^" in core or ":" in b:
            raise DataError(f"not a term id: {text!r}")
        return TermSpec("inter", a, 1, b, scope)
    if "^" in core:
        base, _, order_text = core.partition("^")
        try:
            order = int(order_text)
        except ValueError:
            raise DataError(f"not a term id: {text!r}") from None
        if not base:
            raise DataError(f"not a term id: {text!r}")
        return TermSpec("poly", base, order, None, scope)
    return TermSpec("poly", core, 1, None, scope)


def evaluate_term(term, covariate_values):
    """Raw (unscoped) value of one term.

    Parameters
    ----------
    term : TermSpec
    covariate_values : mapping of covariate name to 1-d array

    Returns
    -------
    1-d float array. Site scoping is a matrix-level concern and is not
    applied here; see ``features.assemble_site_blocks`` and ``LinearForm``.

    Powers are IEEE products, never ``pow``: x*x, then (x*x)*x for order 3
    and (x*x)*(x*x) for order 4, taken in place in one new array. Each
    product is rounded exactly, so the result does not depend on the CPU or
    on how the values are split into blocks.
    """
    for name in term.covariates:
        if name not in covariate_values:
            raise DataError(f"term {term.term_id} needs missing covariate {name!r}")
    if term.kind == "poly":
        base = np.asarray(covariate_values[term.base], dtype=np.float64)
        if term.order == 1:
            return base
        power = base * base
        if term.order == 3:
            power *= base
        elif term.order == 4:
            power *= power
        return power
    a = np.asarray(covariate_values[term.base], dtype=np.float64)
    b = np.asarray(covariate_values[term.other], dtype=np.float64)
    return a * b


@dataclass
class RawDesign:
    """A design matrix before standardization.

    values has one row per observation and one column per term; row_sites
    aligns with rows and is required to interpret site-scoped columns.
    """

    values: np.ndarray
    terms: list
    row_sites: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.row_sites = np.asarray(self.row_sites)
        if self.values.ndim != 2:
            raise DataError("design values must be 2-d")
        if self.values.shape[1] != len(self.terms):
            raise DataError("design width does not match the term list")
        if self.values.shape[0] != len(self.row_sites):
            raise DataError("row_sites length does not match the design")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]

    @property
    def column_ids(self):
        return [t.term_id for t in self.terms]

    def subset_rows(self, row_indices):
        idx = np.asarray(row_indices, dtype=np.intp)
        return RawDesign(self.values[idx], list(self.terms), self.row_sites[idx])

    def subset_terms(self, keep_indices):
        idx = np.asarray(keep_indices, dtype=np.intp)
        return RawDesign(
            self.values[:, idx], [self.terms[i] for i in idx], self.row_sites
        )
