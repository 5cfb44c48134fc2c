"""Task-graph checking beyond schedule-level legality.

:func:`repro.schedule.legality.check_legality` asks "is every dependence
transitively ordered in the task graph?".  This module asks three harder
questions about the *generated artefacts* (Sections 5.4–5.5):

* :func:`check_packing` — is the depend-slot encoding collision-free?
  The runtime addresses ``dependArr`` as ``write_num * depend + idx``
  (Figure 8); two blocks packing to the same slot silently merge their
  dependence chains.
* :func:`check_token_coverage` — is every polyhedral dependence covered
  by an explicit in/out *token chain* (self-chain* ∘ in-token ∘
  self-chain*)?  This is deliberately **not** graph reachability: it
  certifies the depend clauses themselves, the thing the generated code
  actually declares to the runtime.
* :func:`check_races` — can some interleaving the declared edges admit
  reorder a dependence?  Exactly when the graph leaves the pair
  unordered, which is what ``check_legality`` computes: one RPA043 per
  such instance pair, no schedule is simulated.

:func:`check_task_graph` bundles all three into one
:class:`~repro.analysis.diagnostics.DiagnosticReport`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..pipeline import PipelineInfo
from ..schedule.legality import check_legality
from ..scop import DepKind, Scop, iter_dependences
from . import diagnostics as D
from .diagnostics import Collector, DiagnosticReport

INT64_SLOTS = 2**63


# ----------------------------------------------------------------------
# depend-slot packing (Figure 8)
# ----------------------------------------------------------------------
def check_packing(
    ast,
    packers: Mapping[str, object] | None = None,
    columns: Mapping[str, int] | None = None,
    file: str | None = None,
    max_reports: int = 5,
) -> DiagnosticReport:
    """Verify the ``write_num * depend + idx`` addressing is collision-free.

    ``packers``/``columns`` default to what the emitter would use
    (:func:`repro.codegen.emit.statement_packers` /
    :func:`~repro.codegen.emit.statement_columns`); tests inject broken
    ones to prove the checker catches seeded collisions.
    """
    from ..codegen.emit import statement_columns, statement_packers

    out = Collector(file)
    if columns is None:
        columns = statement_columns(ast)
    if packers is None:
        packers = statement_packers(ast)
    write_num = len(columns)

    seen_cols: dict[int, str] = {}
    for name, col in sorted(columns.items()):
        if not 0 <= col < write_num:
            out.add(
                D.PACKING_COLLISION,
                f"statement {name}: column index {col} outside "
                f"[0, write_num={write_num}) — its slots alias another "
                "statement's",
            )
        elif col in seen_cols:
            out.add(
                D.PACKING_COLLISION,
                f"statements {seen_cols[col]} and {name} share dependArr "
                f"column {col}; their tokens alias",
            )
        else:
            seen_cols[col] = name

    slot_owner: dict[int, tuple[str, int]] = {}
    reported = 0
    for nest in ast.nests:
        if not nest.blocks:
            continue  # empty domain: no task, no slot, no packer
        name = nest.statement
        packer = packers.get(name)
        col = columns.get(name)
        if packer is None or col is None:
            out.add(
                D.PACKING_COLLISION,
                f"statement {name} has no packer/column assignment",
            )
            continue
        capacity = getattr(packer, "capacity", 0)
        if capacity >= INT64_SLOTS // max(write_num, 1):
            out.add(
                D.PACKER_OVERFLOW,
                f"statement {name}: packer capacity {capacity} times "
                f"write_num {write_num} exceeds the int64 slot space",
                hints=("coarsen the blocking to shrink the block-end "
                       "ranges (detect_pipeline(..., coarsen=k))",),
            )
        codes: dict[int, int] = {}
        for block in nest.blocks:
            try:
                code = packer.pack(block.end)
            except ValueError as exc:
                out.add(
                    D.PACKING_COLLISION,
                    f"block end {list(block.end)} of {name}#"
                    f"{block.block_id} is not packable: {exc}",
                )
                continue
            if code in codes and reported < max_reports:
                reported += 1
                out.add(
                    D.PACKING_COLLISION,
                    f"blocks {name}#{codes[code]} and {name}#"
                    f"{block.block_id} pack to the same code {code}; "
                    "their depend tokens collide",
                    hints=("the packer's ranges must cover every "
                           "block-end dimension (VectorPacker.for_points)",),
                )
            codes.setdefault(code, block.block_id)
            slot = write_num * code + (col if 0 <= col < write_num else 0)
            owner = slot_owner.get(slot)
            if owner is not None and owner[0] != name:
                out.add(
                    D.PACKING_COLLISION,
                    f"slot {slot} is claimed by both {owner[0]}#{owner[1]} "
                    f"and {name}#{block.block_id}",
                )
            slot_owner.setdefault(slot, (name, block.block_id))

        # in-tokens must round-trip through the producer's packer
        for block in nest.blocks:
            for src, end in block.in_tokens:
                src_packer = packers.get(src)
                if src_packer is None:
                    continue
                try:
                    src_packer.pack(end)
                except ValueError as exc:
                    out.add(
                        D.PACKING_COLLISION,
                        f"in-token {src}@{list(end)} of {name}#"
                        f"{block.block_id} is not packable by the "
                        f"producer's packer: {exc}",
                    )
    return out.report()


# ----------------------------------------------------------------------
# token-chain dependence coverage (Section 5.5)
# ----------------------------------------------------------------------
def check_token_coverage(
    scop: Scop,
    info: PipelineInfo,
    ast,
    file: str | None = None,
    kinds: Sequence[DepKind] = tuple(DepKind),
    max_reports: int = 5,
    relaxed=None,
) -> DiagnosticReport:
    """Every dependence must be covered by a self-chain*/in-token chain.

    A cross-statement dependence from block ``bs`` of S to block ``bt`` of
    T is covered iff some T block ``b'' <= bt`` carries an in-token from an
    S block ``b' >= bs`` — the token chain self-chain* ∘ in-token ∘
    self-chain*.  Computed with running maxima over the in-tokens, never
    touching the task graph's edges, so it certifies the declared depend
    clauses rather than incidental reachability.

    A nest that is not ``chained`` has no self-chain to run a maximum
    along: as a target only ``bt``'s own tokens count, as a source only
    a token naming ``bs`` itself (its self dependences included).
    """
    out = Collector(file)

    nests = {nest.statement: nest for nest in ast.nests}
    block_of = {
        name: {b.end: k for k, b in enumerate(nest.blocks)}
        for name, nest in nests.items()
    }
    # (target block, source block) per in-token, by (target, source)
    tokens: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for tgt, nest in nests.items():
        for k, block in enumerate(nest.blocks):
            for src, end in block.in_tokens:
                ref = block_of.get(src, {}).get(end)
                if ref is not None:
                    tokens.setdefault((tgt, src), []).append((k, ref))

    def uncovered(src: str, tgt: str, sb, tb) -> np.ndarray:
        """Per dependence (source block, target block): no token chain."""
        s_chained, t_chained = nests[src].chained, nests[tgt].chained
        if src == tgt and s_chained:
            # the self-chain orders blocks; within a block the
            # execution is lexicographic, matching the dependence
            return sb > tb
        n_src, n_tgt = len(nests[src].blocks), len(nests[tgt].blocks)
        ks, refs = np.asarray(
            tokens.get((tgt, src), ()), dtype=np.int64
        ).reshape(-1, 2).T
        if s_chained:
            # highest source block the tokens of target block k refer to
            best = np.full(n_tgt, -1, dtype=np.int64)
            np.maximum.at(best, ks, refs)
            if t_chained:
                best = np.maximum.accumulate(best)
            return best[tb] < sb
        if t_chained:
            # first target block holding a token on exactly that block
            first = np.full(n_src, n_tgt, dtype=np.int64)
            np.minimum.at(first, refs, ks)
            return first[sb] > tb
        missing = ~np.isin(tb * n_src + sb, ks * n_src + refs)
        return missing & (sb != tb) if src == tgt else missing

    reported = 0
    for source, target, kind, rel in iter_dependences(scop, kinds, relaxed):
        sb, tb = info.blockings[source.name], info.blockings[target.name]
        src_blocks = sb.block_of_rows(rel.out_part)
        tgt_blocks = tb.block_of_rows(rel.in_part)
        bad = uncovered(source.name, target.name, src_blocks, tgt_blocks)
        for idx in np.nonzero(bad)[0]:
            if reported >= max_reports:
                break
            reported += 1
            out.add(
                D.UNCOVERED_DEPENDENCE,
                f"{kind.value} dependence "
                f"{source.name}{list(rel.out_part[idx])} -> "
                f"{target.name}{list(rel.in_part[idx])} is not "
                "covered by any in/out token chain "
                f"(source block {int(src_blocks[idx])}, target "
                f"block {int(tgt_blocks[idx])})",
                hints=(
                    "the depend clauses under-approximate Q_S; "
                    "re-run detect_pipeline with the dependence's "
                    "kind included",
                ),
            )
    return out.report()


# ----------------------------------------------------------------------
# race check (Section 5.5)
# ----------------------------------------------------------------------
def check_races(
    scop: Scop,
    info: PipelineInfo,
    graph,
    file: str | None = None,
    max_reports: int = 5,
    relaxed=None,
) -> DiagnosticReport:
    """Report every dependence pair the task graph leaves unordered.

    Two tasks race on a dependence exactly when the graph does not order
    the source's task before the target's: some schedule the edges admit
    then runs the target first.  That is the set
    :func:`~repro.schedule.check_legality` computes — for every kind,
    minus the ``relaxed`` pairs — so each of its violations is one race.
    """
    out = Collector(file)
    legality = check_legality(
        scop, info, graph, max_violations=max_reports, relaxed=relaxed
    )
    for v in legality.violations:
        out.add(
            D.TASK_RACE,
            f"{v.kind.value} dependence {v.source}"
            f"{list(v.source_instance)} -> {v.target}"
            f"{list(v.target_instance)} is not ordered by the task graph: "
            "its target's task may run before its source's task finishes",
            hints=(
                "the declared depend edges admit this interleaving; "
                "the token chains miss the dependence",
            ),
        )
    return out.report()


# ----------------------------------------------------------------------
def check_task_graph(
    scop: Scop,
    info: PipelineInfo,
    ast=None,
    graph=None,
    file: str | None = None,
    max_reports: int = 5,
    relaxed=None,
) -> DiagnosticReport:
    """Run packing, token-coverage and race checks; merge the reports.

    ``relaxed`` is a verified privatization proof's removed set (the
    ``relaxed=`` of :func:`~repro.schedule.check_legality`): pairs the
    schedule may reorder are no dependence to cover or to race on."""
    from ..schedule import generate_task_ast
    from ..tasking import TaskGraph

    if ast is None:
        ast = generate_task_ast(info)
    if graph is None:
        graph = TaskGraph.from_task_ast(ast)
    report = check_packing(ast, file=file, max_reports=max_reports)
    report = report.merged(
        check_token_coverage(scop, info, ast, file=file,
                             max_reports=max_reports, relaxed=relaxed)
    )
    report = report.merged(
        check_races(scop, info, graph, file=file, max_reports=max_reports,
                    relaxed=relaxed)
    )
    return report
