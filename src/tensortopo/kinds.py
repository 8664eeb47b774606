"""What each stratum kind supports: one record per kind.

A record answers the five questions the paper asks of every kind of rank:
how to draw a member with its witness, how to label its component, how to
join two members by a path, how to certify path samples, and how many
components to expect. ``kind_of`` picks the record; ``classify``,
``connect``, ``path_verify`` and ``expected_component_count`` look it up.

A record also owns what a member is. ``Kind.judge`` takes a stack of the
stratum's values, (K, *shape) dense or (K, L) packed symmetric rows, reads
their flattening ranks and margins as two (K, d) arrays (one batched SVD
per mode, or one in all for a symmetric stack, whose flattenings are all
the same matrix, and one vectorized threshold rule), masks out an
inadmissible read and applies the kind's ``member`` rule to the rest in one
call. Its verdicts (``Verdicts``) are arrays and masks: members, admissible
reads, ranks, margins, and one note per value. ``member`` takes the stack
and its (K, d) ranks and gives a mask and the notes. Every membership
decision goes through ``judge``: verify_paths hands a record the grids of
many paths as one stack, a sampler each redraw round's candidates, and the
multilinear-rank connectors a core path's grid of cores, judged as members
of the core's own stratum. Rules that need more than the flattening ranks
read the stack in one batched pass (the hyperdeterminant signs, the
rank-two certificate), each check an array predicate whose message is
formatted only for the rows it rejects.

A record labels its members in one stacked step too. ``Kind.labels`` takes
a stack of values that ``judge`` accepted and gives one result per value: a
ComponentLabel, None where the kind has no invariant, or the ToleranceError
or DegenerateError that refuses the value. By default a connected stratum's
members are all ``single`` and others have no invariant (None); five
records read the whole stack at once instead: the determinant sign of a
real multilinear rank with two components (one SVD per roomy mode and one
slogdet), the signature of a real quadratic form (one eigvalsh), the sign
of the diagonal sum of a real even-order symmetric multilinear rank one
(one gather), the border-rank-three sign triple (one 2x2 SVD, values
with one triple sharing one label; ``member`` accepts only values below the
band, so the hyperdeterminant is not read again) and the signature of a
real even-order symmetric rank, read off the (K, r) term coefficients of
the witnesses (a term-sum grid's witnesses are that array; drawn values'
decompositions are turned into it, and values without one are decomposed
in one call).
``Kind.certify``, the one merge, is judge plus labels on a stack of path
samples: the verdicts, with a refused label's sample turned not ok and the
refusal its note, and one label per sample. ``census`` labels its draws,
which the sampler judged members, with one ``labels`` call, and
``classify`` is judge plus labels on a one-value stack, so a value the
judge refuses gets no label. ``Kind.witnesses`` gives the decompositions
``connect`` takes in place of values drawn without one (None for kinds
whose connector needs none); a census computes them once per
representative, in one call. For border rank three a witness is a labelled
term: the label and the conjugate-pair term from the same closed-form
pencil pass that ``labels`` makes (classifiers.brank3_labelled_terms), so
its connector neither labels nor decomposes an end it is handed. A
connector handed no witness for either end decomposes (and for border rank
three labels) both ends in one stacked call, and raises A's refusal before
B's.

Records call samplers, label reads and connectors through this module's
global names at call time, so a wrapper installed here sees every call.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .certify import hyperdet_signs, rank2_certify
from .classifiers import (SINGLE, _sym_rank2_witnesses, brank3_labelled_terms,
                          brank3_labels, mrank_sign_mode, sign_label,
                          sym_matrix_signatures, sym_signatures,
                          sym_signs_rank1, sym_term_coefficients)
from .core import (COMPLEX, REAL, MultilinearRank, SymRankDecomposition,
                   flattening_det_signs, mode_multiply_stack, mrank_admissible,
                   mrank_stack, sym_mrank_stack)
from .errors import (DegenerateError, TensorTopoError, ToleranceError,
                     UnsupportedStratumError, caught, rejected, settled)
from .geometry import dominant_frames
from .paths import (_sym_rank1_witness, connect_brank3_222, connect_mrank,
                    connect_rank_r, connect_sym_mrank, connect_sym_rank_r)
from .sampling import (expected_generic_mrank, fixed_mrank_draws,
                       rank_r_draws, sym_mrank_draws, sym_rank_r_draws)


class Kind:
    """Answers shared by every kind, which supplies draws, real_components,
    connect and member. Over C a stratum is connected unless its kind claims
    no count, and a connected stratum has the one label ``single``.

    ``draws(stratum, rngs, tol)`` draws one member per generator, all in
    lockstep (see ``sampling``): per generator ``(value, witness)``, or the
    error that ended its stream. A witness is a decomposition that
    ``labels`` and ``connect`` take beside the value; kinds without one give
    None.

    ``member(stratum, stack, ranks, tol)``, the kind's one membership rule,
    gives ``(ok, notes)`` for a stack: a (K,) mask and one note per value,
    ``ranks`` being the stack's (K, d) flattening ranks; ``judge`` is its
    one caller.
    """

    def components(self, stratum) -> int | None:
        if stratum.field == COMPLEX:
            return 1
        return self.real_components(stratum)

    # whether ``screen`` rejects values; a sampler draws such a record's
    # candidates several per stream and round
    screens = False

    def screen(self, stratum, stack, tol) -> np.ndarray:
        """A (K,) mask: per value, a test ``member`` also makes that needs no
        rank read; samplers run it first."""
        return np.ones(len(stack), dtype=bool)

    def witnesses(self, stratum, stack, tol) -> list:
        """Per value of a stack drawn without witnesses, the decomposition
        ``connect`` takes in place of the value, or None: for a kind whose
        connector needs none, and for a value whose decomposition is
        refused (``connect`` raises that refusal itself)."""
        return [None] * len(stack)

    def judge(self, stratum, stack, tol) -> Verdicts:
        """The verdicts on a stack of the stratum's values: its flattening
        ranks and margins, read in one batched pass, and ``member``'s
        verdict on the values whose read is admissible, in one call."""
        ranks, margins = (mrank_stack(stack, tol) if stratum.dim is None
                          else sym_mrank_stack(stack, stratum.dim, stratum.order, tol))
        read = mrank_admissible(ranks)
        kept = np.flatnonzero(read)
        try:
            oks, rules = self.member(stratum, stack if read.all() else stack[kept],
                                     ranks[kept], tol)
        except (ToleranceError, DegenerateError, UnsupportedStratumError) as exc:
            oks, rules = np.zeros(len(kept), dtype=bool), [str(exc)] * len(kept)
        ok = np.zeros(len(stack), dtype=bool)
        ok[kept] = oks
        notes = rejected(~read, lambda k: "mrank failed: " + str(caught(
            MultilinearRank(tuple(ranks[k].tolist())).checked)))
        for k, note in zip(kept.tolist(), rules):
            notes[k] = note
        return Verdicts(ok, read, ranks, margins, notes)

    def labels(self, stratum, stack, witnesses: list, tol) -> list:
        """One label per value of a stack of members that ``judge``
        accepted, ``witnesses[k]`` being the witness of ``stack[k]``: a
        ComponentLabel, None where the kind has no invariant, or the error
        that refuses the value (ToleranceError or DegenerateError, or
        UnsupportedStratumError for a symmetric value of rank above two
        given without its decomposition). By default ``single`` for a
        connected stratum, else None."""
        return [SINGLE if self.components(stratum) == 1 else None] * len(stack)

    def certify(self, stratum, stack, witnesses: list, tol) -> tuple:
        """judge plus labels on a path grid, the path's witness at sample k
        being ``witnesses[k]``: the judge's verdicts and one label per
        sample. A sample outside the stratum gets no label; one whose label
        is refused is not ok, and the refusal is its note.
        "unverifiable-exactly" notes say the ranks do not bound the rank."""
        verdicts = self.judge(stratum, stack, tol)
        kept = np.flatnonzero(verdicts.ok)
        labels: list = [None] * len(stack)
        if kept.size < len(stack):
            stack = stack[kept]
            witnesses = (witnesses[kept] if isinstance(witnesses, np.ndarray)
                         else [witnesses[k] for k in kept.tolist()])
        got = self.labels(stratum, stack, witnesses, tol)
        for k, label in zip(kept.tolist(), got):
            if isinstance(label, Exception):
                verdicts.ok[k], verdicts.notes[k] = False, str(label)
            else:
                labels[k] = label
        return verdicts, labels


class Verdicts(NamedTuple):
    """Kind.judge's verdicts on a stack of K values: ``ok``, a (K,) mask of
    members; ``read``, a (K,) mask of the values whose flattening-rank read
    is admissible (an inadmissible one only an inconsistent numerical read
    can give); ``ranks`` and ``margins``, that read as two (K, d) arrays;
    and one note per value."""

    ok: np.ndarray
    read: np.ndarray
    ranks: np.ndarray
    margins: np.ndarray
    notes: list


class Rank(Kind):
    """Tensor rank r: term-sum paths. Rank one is connected; rank two is
    certified by its decomposition but has no component invariant."""

    def draws(self, stratum, rngs, tol):
        return rank_r_draws(stratum.shape, stratum.rank, stratum.field, rngs,
                            tol, witnesses=False)

    def components(self, stratum):
        # over C one component is proved up to the generic rank, which is at
        # least the dimension count prod n_i / (sum n_i - d + 1), rounded up
        n = stratum.shape
        if (stratum.field == COMPLEX and stratum.rank
                > math.ceil(math.prod(n) / (sum(n) - len(n) + 1))):
            return None
        return super().components(stratum)

    def real_components(self, stratum):
        return 1 if stratum.rank == 1 else None

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng):
        return connect_rank_r(a, b, stratum.rank, tol, rng)

    def member(self, stratum, stack, ranks, tol):
        r = stratum.rank
        oks = (ranks == expected_generic_mrank(stratum.shape, r)).all(axis=1)
        if r == 1:
            # ranks (1, ..., 1): nonzero with every flattening of rank one
            return oks, [""] * len(oks)
        if r == 2 and stratum.shape == (2, 2, 2) and stratum.field == REAL:
            # classify_222's rank-two verdict once no flattening has rank one
            return oks & (hyperdet_signs(stack, tol) > 0), [""] * len(oks)
        if r == 2:
            errors = rank2_certify(stack, ranks, tol)
            return (oks & np.array([err is None for err in errors], dtype=bool),
                    ["decomposition-certified" if err is None else str(err)
                     for err in errors])
        return oks, ["unverifiable-exactly"] * len(oks)


class BorderRank3(Rank):
    """Border rank three on real 2x2x2, and rank three there: conjugate-pair
    paths and the sign-triple label. The four components are proved for
    border rank; rank exactly three also holds tensors whose hyperdeterminant
    vanishes, so it gets no count."""

    screens = True

    def real_components(self, stratum):
        return 4 if stratum.kind == "brank" else None

    def witnesses(self, stratum, stack, tol):
        # the labelled conjugate-pair terms connect_brank3_222 moves
        return [None if isinstance(w, TensorTopoError) else w
                for w in brank3_labelled_terms(stack, tol)]

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng):
        return connect_brank3_222(a, b, tol, witness_a, witness_b)

    def screen(self, stratum, stack, tol):
        # classify_222's border-rank-three test, a closed form: it turns
        # away nine in ten sampler draws before their SVDs
        return hyperdet_signs(stack, tol) < 0

    def member(self, stratum, stack, ranks, tol):
        below = self.screen(stratum, stack, tol)
        return below & (ranks == 2).all(axis=1), [
            "" if ok else "hyperdeterminant is not below -eps_rel ||A||^4"
            for ok in below.tolist()]

    def labels(self, stratum, stack, witnesses, tol):
        # classify_brank3_222's labels with one stacked conjugate-pair pass;
        # member accepts only values below the band
        return brank3_labels(stack, tol, np.full(len(stack), -1))


class SymRank(Kind):
    """Symmetric rank r: term-sum paths between decompositions. Real even
    order has r + 1 components, told apart by the coefficient signature;
    odd order is connected. Flattening ranks bound the rank from below by n
    at most, so above n no sample is certified exactly and no count is
    claimed."""

    def draws(self, stratum, rngs, tol):
        return sym_rank_r_draws(stratum.dim, stratum.order, stratum.rank, None,
                                stratum.field, rngs, tol)

    def components(self, stratum):
        if stratum.rank > stratum.dim:
            return None
        return super().components(stratum)

    def real_components(self, stratum):
        return 1 if stratum.order % 2 == 1 else stratum.rank + 1

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng):
        # the ends handed no witness, in one call; A's refusal comes first
        bare = [S.packed for S, w in ((a, witness_a), (b, witness_b)) if w is None]
        found = iter(self._decompositions(stratum, np.stack(bare), tol) if bare else ())
        Da, Db = (settled(next(found)) if w is None else w
                  for w in (witness_a, witness_b))
        return connect_sym_rank_r(Da, Db, tol, rng)

    def _decompositions(self, stratum, stack, tol) -> list:
        """Per row of a stack of values, its decomposition or the error that
        refuses it: rank two in one stacked decomposition, rank one from its
        rank-one factors; a higher rank has no decomposition here."""
        r = stratum.rank
        if r == 2:
            return _sym_rank2_witnesses(stack, stratum.dim, stratum.order,
                                        stratum.field, tol)
        if r != 1:
            return [UnsupportedStratumError(
                f"symmetric rank {r} needs a decomposition witness")] * len(stack)
        out: list = []
        for row in stack:
            try:
                lam, v = _sym_rank1_witness(stratum.value(row), tol)
                out.append(SymRankDecomposition(stratum.order, (lam,), (v,),
                                                stratum.field))
            except TensorTopoError as exc:
                out.append(exc)
        return out

    def member(self, stratum, stack, ranks, tol):
        r, n = stratum.rank, stratum.dim
        return ((ranks == min(r, n)).all(axis=1),
                ["unverifiable-exactly" if r > n else ""] * len(ranks))

    def labels(self, stratum, stack, witnesses, tol):
        if (self.components(stratum) == 1 or stratum.field != REAL
                or stratum.order % 2 or not len(stack)):
            # connected, or rank above n at odd order or over C: no invariant
            return super().labels(stratum, stack, witnesses, tol)
        # the signature of the term coefficients, one array for the stack: a
        # term-sum path's witnesses are that array, drawn values come with
        # their decompositions, and the values without one are decomposed in
        # one call, a refused decomposition being the value's label
        if isinstance(witnesses, np.ndarray):
            return sym_signatures(witnesses)
        bare = [k for k, w in enumerate(witnesses) if w is None]
        found = iter(self._decompositions(stratum, stack[bare], tol) if bare else ())
        labels = [next(found) if w is None else w for w in witnesses]
        kept = [k for k, D in enumerate(labels) if not isinstance(D, Exception)]
        if kept:
            for k, label in zip(kept, sym_signatures(sym_term_coefficients(
                    [labels[k] for k in kept]))):
                labels[k] = label
        return labels


class MRank(Kind):
    """Multilinear rank: a core path under frame geodesics. A real stratum
    has two components where classifiers.mrank_sign_mode gives a mode,
    told apart by the determinant sign of that mode's flattening once the
    roomy modes are compressed onto their column spaces, and one
    otherwise."""

    def draws(self, stratum, rngs, tol):
        return fixed_mrank_draws(stratum.shape, stratum.rank, stratum.field,
                                 rngs, tol, witnesses=False)

    def real_components(self, stratum):
        return 1 if mrank_sign_mode(stratum) is None else 2

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng):
        return connect_mrank(a, b, stratum.rank, tol, rng)

    def member(self, stratum, stack, ranks, tol):
        return (ranks == stratum.rank).all(axis=1), [""] * len(ranks)

    def labels(self, stratum, stack, witnesses, tol):
        mode = mrank_sign_mode(stratum)
        if mode is None:
            return super().labels(stratum, stack, witnesses, tol)
        # each roomy mode compressed onto an orthonormal frame of its column
        # space (one batched SVD per mode; a member's rank there is r_j), a
        # refused frame being the value's label, then one batched slogdet.
        # With no roomy mode this is det_sign_mrank's label: a member's rank
        # read has the square flattening at full rank, which is the
        # singularity check det_sign_mrank makes
        errors, frames = [None] * len(stack), []
        for j, (n, r) in enumerate(zip(stratum.shape, stratum.rank)):
            if n == r:
                frames.append(None)
                continue
            F, found = dominant_frames(stack, j + 1, r, [r] * len(stack), tol)
            errors = [e or new for e, new in zip(errors, found)]
            frames.append(np.swapaxes(F, 1, 2))
        return [error or sign_label(sign) for error, (sign,) in zip(
            errors, flattening_det_signs(mode_multiply_stack(stack, frames), [mode]))]


class SymMRank(Kind):
    """Symmetric multilinear rank r: a symmetric core path under one shared
    frame geodesic. Quadratic forms have r + 1 signature components and
    even-order rank one two signs; every other stratum is connected."""

    def draws(self, stratum, rngs, tol):
        return sym_mrank_draws(stratum.dim, stratum.order, stratum.rank,
                               stratum.field, rngs, tol)

    def labels(self, stratum, stack, witnesses, tol):
        if self.components(stratum) == 1:
            return super().labels(stratum, stack, witnesses, tol)
        if stratum.order == 2:
            return sym_matrix_signatures(stack, stratum.dim, stratum.rank, tol)
        # real even-order rank one: the sign of the diagonal sum
        return sym_signs_rank1(stack, stratum.dim, stratum.order, tol)

    def real_components(self, stratum):
        if stratum.order == 2:
            return stratum.rank + 1
        if stratum.rank == 1 and stratum.order % 2 == 0:
            return 2
        return 1

    def connect(self, stratum, a, b, witness_a, witness_b, tol, rng):
        return connect_sym_mrank(a, b, stratum.rank, tol, rng)

    def member(self, stratum, stack, ranks, tol):
        return (ranks == stratum.rank).all(axis=1), [""] * len(ranks)


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


def clear_members(stratum, stack, margin: float, tol) -> np.ndarray:
    """A (K,) mask: per value of a stack, whether the stratum's record
    judges it a member with every flattening margin at least ``margin``."""
    verdicts = kind_of(stratum).judge(stratum, stack, tol)
    return verdicts.ok & (verdicts.margins.min(axis=1) >= margin)
