"""What each stratum kind supports: one record per kind.

A record answers the five questions the paper asks of every kind of rank:
how to draw a member with its witness, how to label its component, how to
join two members by a path, how to certify one path sample, and how many
components to expect. ``kind_of`` picks the record; ``classify``,
``connect``, ``path_verify`` and ``expected_component_count`` look it up.

Records call samplers, invariants and connectors through this module's
global names at call time, so a wrapper installed here sees every call.
"""

from __future__ import annotations

from .certify import (Kind222, classify_222, hyperdet222, is_rank_one,
                      rank2_decompose)
from .classifiers import (SINGLE, _sym_matrix_signature, _sym_rank2_witness,
                          classify_brank3_222, det_sign_mrank,
                          mrank_saturation, square_mode, sym_sign_rank1,
                          sym_signature)
from .core import COMPLEX, REAL, SymRankDecomposition
from .errors import UnsupportedStratumError
from .paths import (_sym_rank1_witness, connect_brank3_222, connect_mrank,
                    connect_rank_r, connect_sym_mrank, connect_sym_rank_r)
from .sampling import (expected_generic_mrank, sample_fixed_mrank,
                       sample_rank_r, sample_sym_mrank, sample_sym_rank_r)


class Kind:
    """Answers shared by every kind, which supplies draw, invariant,
    real_components, connect and member. Over C every stratum is connected,
    and a connected stratum has the one label ``single``.

    ``draw(stratum, rng, tol)`` returns ``(value, witness)``. A witness is a
    decomposition that ``classify`` and ``connect`` take in place of the
    value; kinds without one return None.

    ``member(stratum, value, ranks, tol)``, the kind's one membership rule,
    gives ``(ok, note)`` for a value with flattening ranks ``ranks``;
    samplers keep only draws that pass it, and ``certify`` applies it to
    every path sample.
    """

    def classify(self, stratum, value, tol):
        if self.components(stratum) == 1:
            return SINGLE
        return self.invariant(stratum, value, tol)

    def components(self, stratum) -> int | None:
        if stratum.field == COMPLEX:
            return 1
        return self.real_components(stratum)

    def screen(self, stratum, value, tol) -> bool:
        """A test ``member`` also makes that needs no rank read; samplers
        run it first."""
        return True

    def certify(self, stratum, value, ranks: tuple, witness, tol) -> tuple:
        """(ok, label, note) for one path sample with flattening ranks
        ``ranks`` and the path's witness there. A sample outside the stratum
        gets no label; "unverifiable-exactly" says the ranks do not bound
        the rank."""
        ok, note = self.member(stratum, value, ranks, tol)
        if not ok:
            return False, None, note
        try:
            label = self.classify(stratum, value, tol)
        except UnsupportedStratumError:
            label = None
        return True, label, note


class Rank(Kind):
    """Tensor rank r: term-sum paths. Rank one is connected; rank two is
    certified by its decomposition but has no component invariant."""

    def draw(self, stratum, rng, tol):
        A, _terms = sample_rank_r(stratum.shape, stratum.rank, stratum.field,
                                  rng, tol)
        return A, None

    def invariant(self, stratum, A, tol):
        raise UnsupportedStratumError(
            f"no component classifier for real rank-{stratum.rank} strata")

    def real_components(self, stratum):
        return 1 if stratum.rank == 1 else None

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng, depth):
        return connect_rank_r(a, b, stratum.rank, tol, rng, depth)

    def member(self, stratum, A, ranks, tol):
        r = stratum.rank
        ok = ranks == expected_generic_mrank(stratum.shape, r)
        if r == 1:
            return ok and is_rank_one(A, tol)[0], ""
        if r == 2 and stratum.shape == (2, 2, 2) and stratum.field == REAL:
            return ok and classify_222(A, tol).kind is Kind222.RANK2, ""
        if r == 2:
            rank2_decompose(A, tol)
            return ok, "decomposition-certified"
        return ok, "unverifiable-exactly"


class BorderRank3(Rank):
    """Border rank three on real 2x2x2, and rank three there: conjugate-pair
    paths and the sign-triple label. The four components are proved for
    border rank; rank exactly three also holds tensors whose hyperdeterminant
    vanishes, so it gets no count."""

    def invariant(self, stratum, A, tol):
        return classify_brank3_222(A, tol)

    def real_components(self, stratum):
        return 4 if stratum.kind == "brank" else None

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng, depth):
        return connect_brank3_222(a, b, tol)

    def screen(self, stratum, A, tol):
        # classify_222's border-rank-three test, a closed form: it turns
        # away nine in ten sampler draws before their SVDs
        return hyperdet222(A) < -(tol.eps_rel * A.norm() ** 4)

    def member(self, stratum, A, ranks, tol):
        if not self.screen(stratum, A, tol):
            return False, "hyperdeterminant is not below -eps_rel ||A||^4"
        return ranks == (2, 2, 2), ""


class SymRank(Kind):
    """Symmetric rank r: term-sum paths between decompositions. Real even
    order has r + 1 components, told apart by the coefficient signature;
    odd order is connected. Flattening ranks bound the rank from below by n
    at most, so above n no sample is certified exactly and no count is
    claimed."""

    def draw(self, stratum, rng, tol):
        return sample_sym_rank_r(stratum.dim, stratum.order, stratum.rank,
                                 field=stratum.field, rng=rng, tol=tol)

    def witness(self, stratum, S, tol) -> SymRankDecomposition:
        if stratum.rank == 1:
            lam, v = _sym_rank1_witness(S, tol)
            return SymRankDecomposition(S.order, (lam,), (v,), S.field)
        if stratum.rank == 2:
            return _sym_rank2_witness(S, tol)
        raise UnsupportedStratumError(
            f"symmetric rank {stratum.rank} needs a decomposition witness")

    def invariant(self, stratum, value, tol):
        if isinstance(value, SymRankDecomposition):
            return sym_signature(value, tol)
        if stratum.rank == 1:
            return sym_sign_rank1(value, tol)
        return sym_signature(self.witness(stratum, value, tol), tol)

    def components(self, stratum):
        if stratum.rank > stratum.dim:
            return None
        return super().components(stratum)

    def real_components(self, stratum):
        return 1 if stratum.order % 2 == 1 else stratum.rank + 1

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng, depth):
        Da = witness_a if witness_a is not None else self.witness(stratum, a, tol)
        Db = witness_b if witness_b is not None else self.witness(stratum, b, tol)
        return connect_sym_rank_r(Da, Db, tol, rng, depth)

    def member(self, stratum, S, ranks, tol):
        r, n = stratum.rank, stratum.dim
        return (ranks == (min(r, n),) * stratum.order,
                "unverifiable-exactly" if r > n else "")

    def certify(self, stratum, S, ranks, witness, tol):
        # a term-sum path's witness gives the signature without decomposing S
        return super().certify(stratum, S if witness is None else witness,
                               ranks, None, tol)


class MRank(Kind):
    """Multilinear rank: a core path under frame geodesics. A saturated
    square stratum has two components, told apart by the determinant sign
    of its square flattening; the mixed saturated case is open."""

    def draw(self, stratum, rng, tol):
        A, _rep = sample_fixed_mrank(stratum.shape, stratum.rank,
                                     stratum.field, rng, tol)
        return A, None

    def invariant(self, stratum, A, tol):
        if mrank_saturation(stratum) == "mixed":
            raise UnsupportedStratumError(
                "mixed saturated multilinear rank is an open case; "
                "use the monodromy probe, not a classifier")
        return det_sign_mrank(A, square_mode(stratum), tol)

    def real_components(self, stratum):
        return {"none": 1, "saturated-square": 2}.get(mrank_saturation(stratum))

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng, depth):
        return connect_mrank(a, b, stratum.rank, tol, rng, depth)

    def member(self, stratum, A, ranks, tol):
        return ranks == stratum.rank, ""


class SymMRank(Kind):
    """Symmetric multilinear rank r: a symmetric core path under one shared
    frame geodesic. Quadratic forms have r + 1 signature components and
    even-order rank one two signs; every other stratum is connected."""

    def draw(self, stratum, rng, tol):
        S = sample_sym_mrank(stratum.dim, stratum.order, stratum.rank,
                             field=stratum.field, rng=rng, tol=tol)
        return S, None

    def invariant(self, stratum, S, tol):
        if stratum.order == 2:
            return _sym_matrix_signature(S, stratum.rank, tol)
        return sym_sign_rank1(S, tol)

    def real_components(self, stratum):
        if stratum.order == 2:
            return stratum.rank + 1
        if stratum.rank == 1 and stratum.order % 2 == 0:
            return 2
        return 1

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng, depth):
        return connect_sym_mrank(a, b, stratum.rank, tol, rng, depth)

    def member(self, stratum, S, ranks, tol):
        return ranks == (stratum.rank,) * stratum.order, ""


_RECORDS = {"rank": Rank(), "mrank": MRank(), "sym-rank": SymRank(),
            "sym-mrank": SymMRank()}
_BORDER_RANK3 = BorderRank3()


def kind_of(stratum) -> Kind:
    """The record for ``stratum``. Border rank is supported only for rank
    three on real 2x2x2, where rank three resolves to the same record."""
    if (stratum.kind in ("rank", "brank") and stratum.rank == 3
            and stratum.shape == (2, 2, 2) and stratum.field == REAL):
        return _BORDER_RANK3
    if stratum.kind == "brank":
        raise UnsupportedStratumError(
            "border rank is supported only for rank 3 on real shape (2, 2, 2)")
    return _RECORDS[stratum.kind]
