"""The cache-aware compile tier.

``cached_analysis`` is the single entry point: given an interpreter, the
kernel source text and the options, it either

* **warm** — loads the stored :class:`~repro.store.CompileArtifact`,
  rebuilds the :class:`~repro.driver.Analysis` against a freshly
  extracted SCoP, and — mandatorily — re-derives the privatization
  plan (``plan_from_proofs``: one ``verify_privatization`` per group)
  and requires every stored proof to be contained in it; the fused
  program (closure specs and chain-fusion verdicts) is adopted as
  stored — what it plans is checked where every execution is, by the
  oracle compare; or
* **cold** — runs :func:`repro.driver.analyze` and persists its outputs
  as one checksummed artifact.

A warm replay that fails for *any* reason (schema drift, a tampered
proof, a task AST that does not cover the SCoP) is demoted to a miss and
recompiled — the store accelerates, it never decides.  The pipeline
info, which the replay does not read, is loaded on first read; a stored
info section that does not load is derived again then.
"""

from __future__ import annotations

import dataclasses
import time
from functools import partial
from typing import Mapping

import numpy as np

from ..driver import Analysis, TransformOptions, analyze, pipeline_info
from ..presburger.explicit import lexsorted_rows
from ..scop import DepKind
from ..store import ArtifactStore, CompileArtifact, artifact_key, kernel_sha
from ..store.disk import bump_session
from ..store.keys import options_fingerprint


# ----------------------------------------------------------------------
# options <-> plain data (the serve protocol speaks JSON)
# ----------------------------------------------------------------------
def options_to_dict(options: TransformOptions) -> dict:
    """JSON-safe rendering of every ``TransformOptions`` field."""
    out: dict = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if f.name == "kinds":
            value = [k.name for k in value]
        out[f.name] = value
    return out


def options_from_dict(d: Mapping) -> TransformOptions:
    """Inverse of :func:`options_to_dict`; unknown keys are an error
    (a client speaking a newer option vocabulary must not be silently
    truncated into a wrong cache key)."""
    known = {f.name for f in dataclasses.fields(TransformOptions)}
    unknown = sorted(set(d) - known)
    if unknown:
        raise ValueError(f"unknown TransformOptions fields: {unknown}")
    kwargs = dict(d)
    if "kinds" in kwargs:
        kwargs["kinds"] = tuple(DepKind[k] for k in kwargs["kinds"])
    return TransformOptions(**kwargs)


# ----------------------------------------------------------------------
# cold path: Analysis -> artifact
# ----------------------------------------------------------------------
def build_artifact(
    interp,
    source: str,
    params: Mapping[str, int],
    options: TransformOptions,
    analysis: Analysis,
    timings: Mapping[str, float] | None = None,
) -> CompileArtifact:
    """Serialize one compile's outputs into a store artifact.  Its bytes
    depend on the compile's outputs only: ``timings`` is accepted and
    not stored (a wall time would make two compiles' files differ)."""
    from ..schedule.serialize import dumps_task_ast

    fused = None
    if options.fuse != "off":
        # Force the (lazy) kernel program now: serving means a warm process
        # must never pay a Presburger legality analysis — neither the
        # per-statement one nor, for the standard spine (the privatized
        # one merges no chains), the per-pair chain-fusion verdicts that
        # planning the chain groups here leaves in the plan's table.
        program = interp.fused_program
        if not analysis.privatized:
            from ..interp.fused import plan_chain_groups

            plan_chain_groups(interp.scop, analysis.task_ast, program)
        fused = program.to_dict()

    proofs: list[dict] = []
    plan = analysis.plan
    if plan is not None and getattr(plan, "groups", ()):
        proofs = [g.proof.to_dict(arrays=True) for g in plan.groups]

    key = artifact_key(source, params, options)
    return CompileArtifact(
        key=key,
        kernel_sha=kernel_sha(source),
        params=dict(params),
        options_fingerprint=options_fingerprint(options),
        info=analysis.info.to_dict(),
        task_ast_blob=dumps_task_ast(analysis.task_ast),
        fused=fused,
        proofs=proofs,
        privatized=analysis.privatized,
        legality_ok=(
            None if analysis.legality is None else analysis.legality.ok
        ),
    )


# ----------------------------------------------------------------------
# warm path: artifact -> Analysis
# ----------------------------------------------------------------------
def load_analysis(
    interp,
    options: TransformOptions,
    artifact: CompileArtifact,
) -> Analysis:
    """Rebuild an :class:`Analysis` from a stored artifact.

    The SCoP is re-extracted by the caller's interpreter (never stored);
    the artifact supplies the *derived* objects, each stored once: the
    task AST's arrays, the pipeline maps and ``Q_S``.  What the replay
    reads is checked here: each statement's task-AST nest must list its
    points exactly once (one array comparison per statement), and
    privatization proofs go back through ``plan_from_proofs`` — the plan
    is re-derived and verified once per group, and a stored proof it
    does not contain (tampered, or stale) raises here and the caller
    recompiles, and so does a privatized artifact whose plan comes back
    without groups.  The plan's join rows are relaxed into the loaded
    AST (:func:`~repro.schedule.relax.relax`, as a cold compile does):
    none is read from disk.  What the replay does not read
    is built on first read: the blockings, ``info`` and the schedule
    (:func:`_stored_info`), and the task graph.
    """
    from ..interp.fused import FusedProgram
    from ..schedule.serialize import loads_task_ast

    scop = interp.scop
    task_ast = loads_task_ast(artifact.task_ast_blob)
    arrays = task_ast.arrays
    if arrays.statements != tuple(s.name for s in scop.statements):
        raise ValueError("the task AST's nests are not the SCoP's statements")
    for k, stmt in enumerate(scop.statements):
        # the points are sorted and distinct: equal once sorted (a nest
        # usually lists them in order already) is each of them once
        iters = arrays.nest_iterations(k).reshape(-1, arrays.depths[k])
        points = stmt.points.points
        if iters.shape != points.shape or not (
            np.array_equal(iters, points)
            or np.array_equal(lexsorted_rows(iters), points)
        ):
            raise ValueError(
                f"the task AST does not list the iterations of {stmt.name} "
                "once each"
            )

    if artifact.fused is not None and options.fuse != "off":
        interp.adopt_fused(FusedProgram.from_dict(artifact.fused))

    plan = None
    if options.privatize:
        from ..analysis.portfolio.privatize import PrivatizationProof
        from ..schedule import relax
        from ..schedule.privatize import plan_from_proofs

        # mandatory re-derivation and check; no stored proofs is the
        # empty plan a cold compile records when it falls through
        plan = plan_from_proofs(
            scop, [PrivatizationProof.from_dict(p) for p in artifact.proofs]
        )
        if artifact.privatized and not plan.groups:
            raise ValueError("the re-verified plan lacks the stored groups")
        # the join rows come from the checked plan only
        task_ast = relax(scop, None, task_ast, plan=plan)

    return Analysis(
        task_ast=task_ast,
        load_info=partial(
            _stored_info, scop, options, artifact.info, arrays, plan
        ),
        plan=plan,
        joins=plan.arrays if plan is not None else (),
        privatized=plan is not None and bool(plan.groups),
        cache_status="warm",
    )


def _stored_info(scop, options, stored: dict, arrays, plan):
    """The stored pipeline info against the live SCoP, each blocking
    ``E_S`` rebuilt from its task-AST nest.  An info section that does
    not load is derived again, as a cold compile would (a counted
    replay failure): the replay already ran from the checked task AST,
    and the store accelerates, it never decides."""
    from ..pipeline.detect import PipelineInfo

    blockings = {
        name: arrays.blocking(k) for k, name in enumerate(arrays.statements)
    }
    try:
        return PipelineInfo.from_dict(scop, stored, blockings)
    except Exception:  # whatever a malformed section raises
        bump_session("replay_failures")
        return pipeline_info(scop, options, plan)


# ----------------------------------------------------------------------
# the tier
# ----------------------------------------------------------------------
def cached_analysis(
    interp,
    source: str,
    params: Mapping[str, int],
    options: TransformOptions,
    store: ArtifactStore,
) -> tuple[Analysis, str]:
    """One compile through the store: ``(analysis, "warm" | "cold")``.
    The SCoP's dependence table is cleared on the way out: a resident
    server entry keeps ``interp``, and must not keep the relations."""
    from ..obs.spans import span

    key = artifact_key(source, params, options)
    with span("service.compile", key=key[:12]) as sp:
        artifact = store.get(key)
        if artifact is not None:
            try:
                analysis = load_analysis(interp, options, artifact)
            except Exception as exc:
                # Schema drift, tampered proofs, stale info — anything a
                # replay can hit demotes to a recompile, never a crash.
                bump_session("replay_failures")
                sp.set(replay_failed=type(exc).__name__)
            else:
                sp.set(status="warm")
                interp.scop.dependence_table().clear()
                return analysis, "warm"

        t0 = time.perf_counter()
        analysis = analyze(interp, options)
        elapsed = time.perf_counter() - t0
        store.put(
            key,
            build_artifact(interp, source, params, options, analysis),
        )
        analysis.cache_status = "cold"
        sp.set(status="cold", analyze_s=round(elapsed, 6))
        interp.scop.dependence_table().clear()
        return analysis, "cold"
