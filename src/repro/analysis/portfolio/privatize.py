"""Privatization legality proof objects.

A :class:`PrivatizationProof` is the *evidence* that a set of dependence
pairs may be dropped from the schedule: each relaxed pair connects two
associative accumulations of the same group over the same array, and is
induced by that array alone.  Privatizing the accumulator (one private
copy per task, combined with the group's operator at the join) then
yields the same final value for any execution order of the relaxed
instances, because the updates commute.

The proof is *checkable*, not trusted: every claim it makes — the
statements are syntactic reductions, the removed pairs are actual
dependences, none of them also orders non-accumulator memory — is
re-derived from the SCoP by
:func:`repro.schedule.legality.verify_privatization`, which shares only
the AST-level spec matcher with the detector and recomputes all
relations from first principles.  Downstream consumers must call the
verifier before acting on a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...presburger import PointRelation
from ...scop import DepKind
from .partition import DependencePartition, PairKey
from .reduction import ReductionSpec


@dataclass(frozen=True)
class ReductionClaim:
    """One statement the proof asserts to be an associative accumulation."""

    statement: str
    array: str
    group: str  # ReductionGroup value ("sum", "product", "min", "max")
    operator: str

    @staticmethod
    def of(spec: ReductionSpec) -> "ReductionClaim":
        return ReductionClaim(
            spec.statement, spec.array, spec.group.value, spec.operator
        )

    def describe(self) -> str:
        return (
            f"{self.statement}: {self.group} reduction over "
            f"{self.array!r} ({self.operator})"
        )


@dataclass(frozen=True)
class RemovedDependence:
    """One dependence relation the proof relaxes, with its instance pairs."""

    source: str
    target: str
    kind: DepKind
    pairs: PointRelation

    @property
    def key(self) -> PairKey:
        return (self.source, self.target, self.kind)

    def describe(self) -> str:
        return (
            f"{self.kind.value} {self.source} -> {self.target} "
            f"({len(self.pairs)} instance pairs)"
        )

    def to_dict(self, arrays: bool = False) -> dict:
        """Replayable JSON form including every relaxed instance pair.

        ``in_part`` of a dependence relation is the *target* instance,
        ``out_part`` the *source* — serialized under explicit keys so a
        replayed proof cannot silently flip orientation.  ``arrays``
        gives the artifact store's form instead: the relation itself
        (``PointRelation.to_dict``, its pairs one int64 array).
        """
        head = {
            "source": self.source,
            "target": self.target,
            "kind": self.kind.value,
            "pairs": len(self.pairs),
            "dims": [self.pairs.n_in, self.pairs.n_out],
        }
        if arrays:
            return {**head, "relation": self.pairs.to_dict()}
        return {
            **head,
            "instance_pairs": [
                {"target": t, "source": s}
                for t, s in zip(
                    self.pairs.in_part.tolist(), self.pairs.out_part.tolist()
                )
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "RemovedDependence":
        import numpy as np

        if "relation" in d:
            return RemovedDependence(
                d["source"], d["target"], DepKind(d["kind"]),
                PointRelation.from_dict(d["relation"]),
            )
        n_in, n_out = (int(v) for v in d["dims"])
        rows = d.get("instance_pairs", [])
        targets = np.array(
            [p["target"] for p in rows], dtype=np.int64
        ).reshape(len(rows), n_in)
        sources = np.array(
            [p["source"] for p in rows], dtype=np.int64
        ).reshape(len(rows), n_out)
        return RemovedDependence(
            d["source"],
            d["target"],
            DepKind(d["kind"]),
            PointRelation.from_arrays(targets, sources),
        )


@dataclass(frozen=True)
class PrivatizationProof:
    """Machine-checkable evidence that relaxing ``removed`` is legal."""

    claims: tuple[ReductionClaim, ...]
    removed: tuple[RemovedDependence, ...]

    @property
    def arrays(self) -> tuple[str, ...]:
        return tuple(sorted({c.array for c in self.claims}))

    @property
    def removed_pairs(self) -> int:
        return sum(len(r.pairs) for r in self.removed)

    def relaxed_map(self) -> dict[PairKey, PointRelation]:
        """The removed relations keyed for ``check_legality(relaxed=...)``."""
        return {r.key: r.pairs for r in self.removed}

    def describe(self) -> str:
        arrays = ", ".join(repr(a) for a in self.arrays)
        return (
            f"privatize {arrays}: removes {self.removed_pairs} dependence "
            f"pair(s) across {len(self.removed)} relation(s), "
            f"{len(self.claims)} accumulation statement(s)"
        )

    def to_dict(self, arrays: bool = False) -> dict:
        """Replayable JSON form: ``from_dict(to_dict())`` round-trips.

        The ``removed`` entries carry the full proof → relaxed-dependence
        mapping (every instance pair), so a serialized portfolio report
        (``repro analyze --portfolio``, ``tools/portfolio_report.py``) is
        a complete input to ``repro run --privatize`` replay — after
        mandatory re-verification by
        :func:`repro.schedule.legality.verify_privatization`.
        ``arrays`` stores each relation as one array instead
        (:meth:`RemovedDependence.to_dict`), as the artifact store does.
        """
        return {
            "arrays": list(self.arrays),
            "claims": [
                {
                    "statement": c.statement,
                    "array": c.array,
                    "group": c.group,
                    "operator": c.operator,
                }
                for c in self.claims
            ],
            "removed": [r.to_dict(arrays) for r in self.removed],
        }

    @staticmethod
    def from_dict(d: dict) -> "PrivatizationProof":
        """Rebuild a proof from its JSON form (still untrusted: verify!)."""
        return PrivatizationProof(
            claims=tuple(
                ReductionClaim(
                    c["statement"], c["array"], c["group"], c["operator"]
                )
                for c in d["claims"]
            ),
            removed=tuple(
                RemovedDependence.from_dict(r) for r in d["removed"]
            ),
        )


def build_pair_proof(
    specs: dict[str, ReductionSpec],
    cross_parts: list[DependencePartition],
) -> PrivatizationProof | None:
    """Proof relaxing every dependence of one nest pair, if sound.

    ``cross_parts`` are the partitions of all cross-nest statement pairs.
    Returns ``None`` unless every one of them is *fully* reduction-
    carried — a single residual pair means the nests stay ordered and
    privatization buys nothing for this pair.
    """
    removed: list[RemovedDependence] = []
    involved: set[str] = set()
    for part in cross_parts:
        if part.full.is_empty():
            continue
        if not part.residual.is_empty():
            return None
        removed.append(
            RemovedDependence(
                part.source, part.target, part.kind, part.reduction_carried
            )
        )
        involved.update((part.source, part.target))
    if not removed:
        return None  # no dependence at all: the pair is already do-all
    claims = tuple(
        ReductionClaim.of(specs[name]) for name in sorted(involved)
    )
    return PrivatizationProof(claims, tuple(removed))
