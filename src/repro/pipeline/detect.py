"""Algorithm 1: the cross-loop pipeline detection driver.

Walks every ordered statement pair of the SCoP, computes pipeline maps
where a dependence exists, derives per-statement source/target blocking
maps, refines them into the combined blocking ``E_S`` (Equation 3), and
attaches the in-dependency relations ``Q_S`` (Equation 4); the
out-dependency ``Q_S^O`` is the identity on ``Range(E_S)``, derived from
the blocking where it is read (:func:`~repro.pipeline.out_dependency`).
The result, :class:`PipelineInfo`, is the "SCoP with pipeline
information" the paper's transformation phase consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scop import (
    DepKind,
    Scop,
    ScopStatement,
    dependence_relation,
    validate_scop,
)
from ..presburger import PointSet
from .blocking import Blocking, blocking_from_end_sets
from .dependencies import BlockDependency, block_dependency
from .pipeline_map import PipelineMap, compute_pipeline_map, prefix_lexmax


@dataclass(frozen=True)
class PipelineInfo:
    """Everything Algorithm 1 adds to a SCoP."""

    scop: Scop
    #: (source name, target name) -> pipeline map
    pipeline_maps: dict[tuple[str, str], PipelineMap]
    #: statement name -> combined blocking map E_S
    blockings: dict[str, Blocking]
    #: statement name -> in-dependency relations Q_S (one per pipeline map
    #: targeting the statement)
    in_deps: dict[str, tuple[BlockDependency, ...]]

    # ------------------------------------------------------------------
    def blocking(self, name: str) -> Blocking:
        return self.blockings[name]

    def num_tasks(self) -> int:
        return sum(b.num_blocks for b in self.blockings.values())

    def pipelined_statements(self) -> list[str]:
        """Statements participating in at least one pipeline map."""
        names: set[str] = set()
        for s, t in self.pipeline_maps:
            names.add(s)
            names.add(t)
        return [s.name for s in self.scop.statements if s.name in names]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Explicit-relation form of the maps and of ``Q_S``.

        Neither the SCoP nor the blockings are in it: a stored artifact
        is only replayed against a SCoP freshly extracted from the same
        kernel source (the store key covers the source hash), and its
        task AST lists each block's iterations and end, so
        :meth:`from_dict` takes the live SCoP and the blockings rebuilt
        from the AST (:meth:`repro.schedule.astgen.TaskArrays.blocking`).
        """
        return {
            "pipeline_maps": [
                pm.to_dict() for _, pm in sorted(self.pipeline_maps.items())
            ],
            "in_deps": {
                name: [d.to_dict() for d in deps]
                for name, deps in sorted(self.in_deps.items())
            },
        }

    @staticmethod
    def from_dict(
        scop: Scop, d: dict, blockings: dict[str, Blocking]
    ) -> "PipelineInfo":
        """Rebuild a serialized info against a freshly extracted SCoP
        and its blockings."""
        pipeline_maps = {}
        for rec in d["pipeline_maps"]:
            pm = PipelineMap.from_dict(rec)
            pipeline_maps[(pm.source, pm.target)] = pm
        in_deps = {
            name: tuple(BlockDependency.from_dict(r) for r in deps)
            for name, deps in d["in_deps"].items()
        }
        return PipelineInfo(scop, pipeline_maps, blockings, in_deps)

    def summary(self) -> str:
        lines = [f"PipelineInfo: {len(self.pipeline_maps)} pipeline maps, "
                 f"{self.num_tasks()} tasks"]
        for (s, t), pm in sorted(self.pipeline_maps.items()):
            lines.append(f"  {pm}")
        for name, blocking in self.blockings.items():
            deps = ", ".join(d.source for d in self.in_deps.get(name, ()))
            dep_str = f" <- [{deps}]" if deps else ""
            lines.append(
                f"  {name}: {blocking.num_blocks} blocks{dep_str}"
            )
        return "\n".join(lines)


def detect_pipeline(
    scop: Scop,
    kinds: tuple[DepKind, ...] = (DepKind.FLOW,),
    validate: bool = True,
    coarsen: int = 1,
) -> PipelineInfo:
    """Run Algorithm 1 on an extracted SCoP.

    Parameters
    ----------
    scop:
        The instantiated SCoP.
    kinds:
        Dependence classes to pipeline.  The paper uses flow only; adding
        :data:`DepKind.ANTI` / :data:`DepKind.OUTPUT` enables the
        future-work extension (safe, coarser blocks).
    validate:
        Check the paper's structural assumptions first (single write per
        statement, injective writes) and raise on violations.
    coarsen:
        Merge every ``coarsen`` consecutive blocks of each statement into
        one task before computing dependencies — the task-granularity knob
        (1 = the paper's finest safe blocks).

    Raises
    ------
    UncoveredDependenceError
        When a cross-nest dependence of a class *not* in ``kinds`` exists:
        the transformed program could then reorder it.  Add the class to
        ``kinds`` (the future-work extension) or rewrite the kernel.
    """
    from ..obs.spans import span

    with span("pipeline.detect", statements=len(scop.statements)):
        if validate:
            with span("pipeline.validate"):
                validate_scop(scop).raise_if_invalid()
                _check_dependence_coverage(scop, kinds)

        pipeline_maps: dict[tuple[str, str], PipelineMap] = {}
        # Block end sets per statement: the domains of the maps it is
        # the source of, the ranges of those it is the target of.
        end_sets: dict[str, list[PointSet]] = {
            s.name: [] for s in scop.statements
        }

        # Lines 1-7 of Algorithm 1: pipeline maps and their end sets.
        with span("pipeline.maps") as sp:
            for source in scop.statements:
                for target in scop.statements:
                    if source.nest_index >= target.nest_index:
                        continue
                    pmap = _best_pipeline_map(scop, source, target, kinds)
                    if pmap is None:
                        continue
                    pipeline_maps[(source.name, target.name)] = pmap
                    end_sets[source.name].append(pmap.relation.domain())
                    end_sets[target.name].append(pmap.relation.range())
            sp.set(pipeline_maps=len(pipeline_maps))

        # Lines 8-10: E_S = lexmin over blocking maps.
        with span("pipeline.blocking"):
            blockings: dict[str, Blocking] = {}
            for stmt in scop.statements:
                combined = blocking_from_end_sets(
                    stmt.name, stmt.points, end_sets[stmt.name]
                )
                if coarsen > 1:
                    combined = combined.coarsened(coarsen)
                blockings[stmt.name] = combined

        in_deps = derive_dependencies(scop, pipeline_maps, blockings)
        return PipelineInfo(scop, pipeline_maps, blockings, in_deps)


def derive_dependencies(
    scop: Scop,
    pipeline_maps: dict[tuple[str, str], PipelineMap],
    blockings: dict[str, Blocking],
) -> dict[str, tuple[BlockDependency, ...]]:
    """Lines 11-12 of Algorithm 1: ``Q_S`` for given blockings
    (``Q_S^O`` is :func:`~repro.pipeline.out_dependency` of a blocking,
    derived where it is read).

    Factored out of :func:`detect_pipeline` so a caller that *re-blocks*
    a detected pipeline (:func:`repro.schedule.privatize_info` chunking
    privatized statements) can recompute the dependency relations
    without re-running pipeline-map detection.
    """
    from ..obs.spans import span

    with span("pipeline.dependencies"):
        in_deps: dict[str, tuple[BlockDependency, ...]] = {
            s.name: () for s in scop.statements
        }
        for (src_name, tgt_name), pmap in pipeline_maps.items():
            target = scop.statement(tgt_name)
            dep = block_dependency(
                pmap,
                blockings[src_name],
                blockings[tgt_name],
                target.points,
            )
            in_deps[tgt_name] = in_deps[tgt_name] + (dep,)
        return in_deps


class UncoveredDependenceError(ValueError):
    """A cross-nest dependence class is not covered by the pipeline maps."""


def flow_then_all_kinds(attempt):
    """``attempt(kinds)`` the way the tools do it: the paper's flow-only
    detection first and, when that is refused with an
    :class:`UncoveredDependenceError`, over every :class:`DepKind` (the
    future-work extension: safe, coarser blocks).

    Returns ``(result, note)``; ``note`` is the refusal's message when
    the fallback ran, else ``None``.  ``repro analyze`` / ``run`` /
    ``profile`` and the analysis engine detect through this; a library
    call (``detect_pipeline``, ``transform``) takes ``kinds`` as given
    and raises.
    """
    try:
        return attempt((DepKind.FLOW,)), None
    except UncoveredDependenceError as exc:
        return attempt(tuple(DepKind)), str(exc)


def _check_dependence_coverage(
    scop: Scop, kinds: tuple[DepKind, ...]
) -> None:
    """Reject programs with cross-nest dependences the maps won't order.

    The paper's transformation serializes blocks of one statement and
    orders cross-statement blocks only along the computed pipeline maps; a
    cross-nest anti or output dependence outside ``kinds`` would be free to
    execute backwards.
    """
    missing = tuple(k for k in DepKind if k not in kinds)
    if not missing:
        return
    for source in scop.statements:
        for target in scop.statements:
            if source.nest_index >= target.nest_index:
                continue
            for kind in missing:
                rel = dependence_relation(scop, source, target, kind)
                if not rel.is_empty():
                    raise UncoveredDependenceError(
                        f"cross-nest {kind.value} dependence "
                        f"{source.name} -> {target.name} is not covered; "
                        f"pass kinds including DepKind.{kind.name} to "
                        "detect_pipeline"
                    )


def _best_pipeline_map(
    scop: Scop,
    source: ScopStatement,
    target: ScopStatement,
    kinds: tuple[DepKind, ...],
) -> PipelineMap | None:
    """Pipeline map combining the requested dependence classes.

    Each class yields its own requirement relation; they are merged by
    taking, per target iteration, the lexicographically largest requirement
    (the safe intersection of the individual pipeline conditions), then
    re-deriving the anchor map.  A single contributing class needs no
    merge: its map is returned as computed.
    """
    pmaps = [
        compute_pipeline_map(scop, source, target, kind) for kind in kinds
    ]
    pmaps = [pmap for pmap in pmaps if pmap is not None]
    if len(pmaps) <= 1:
        return pmaps[0] if pmaps else None
    requirement = pmaps[0].requirement
    for pmap in pmaps[1:]:
        requirement = requirement.union(pmap.requirement)
    merged = prefix_lexmax(requirement.lexmax_per_domain())
    anchors = merged.inverse().lexmax_per_domain()
    return PipelineMap(source.name, target.name, anchors, merged)
