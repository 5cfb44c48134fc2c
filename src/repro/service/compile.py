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
proof, an info dict that no longer matches the SCoP) is demoted to a
miss and recompiled — the store accelerates, it never decides.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Mapping

from ..driver import Analysis, TransformOptions, analyze, build_task_graph
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
    if kwargs.get("privatize_parts") is not None:
        kwargs["privatize_parts"] = int(kwargs["privatize_parts"])
    return TransformOptions(**kwargs)


# ----------------------------------------------------------------------
# cold path: Analysis -> artifact
# ----------------------------------------------------------------------
def _as_dict(record) -> dict | None:
    return None if record is None else record.as_dict()


def build_artifact(
    interp,
    source: str,
    params: Mapping[str, int],
    options: TransformOptions,
    analysis: Analysis,
    timings: Mapping[str, float] | None = None,
) -> CompileArtifact:
    """Serialize one compile's outputs into a store artifact."""
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
        proofs = [g.proof.to_dict() for g in plan.groups]

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
        reduction=_as_dict(analysis.reduction),
        tuning=_as_dict(analysis.tuning),
        timings=dict(timings or {}),
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
    the artifact supplies the *derived* objects.  Privatization proofs
    go back through ``plan_from_proofs``: the plan is re-derived and
    verified once per group, and a stored proof it does not contain
    (tampered, or stale) raises here and the caller recompiles.  The
    reduction and tuning records are rebuilt as stored: they describe
    the compile that produced ``info``, and re-deriving them would
    repeat it.
    """
    from ..interp.fused import FusedProgram
    from ..pipeline.detect import PipelineInfo
    from ..schedule import build_schedule
    from ..schedule.serialize import loads_task_ast

    scop = interp.scop
    info = PipelineInfo.from_dict(scop, artifact.info)
    task_ast = loads_task_ast(artifact.task_ast_blob)
    schedule = build_schedule(info)

    if artifact.fused is not None and options.fuse != "off":
        interp.adopt_fused(FusedProgram.from_dict(artifact.fused))

    plan = None
    if options.privatize:
        from ..analysis.portfolio.privatize import PrivatizationProof
        from ..schedule.privatize import plan_from_proofs

        # mandatory re-derivation and check; no stored proofs is the
        # empty plan a cold compile records when it falls through
        plan = plan_from_proofs(
            scop, [PrivatizationProof.from_dict(p) for p in artifact.proofs]
        )

    reduction = tuning = None
    if artifact.reduction is not None:
        from ..pipeline import ReductionStats

        reduction = ReductionStats.from_dict(artifact.reduction)
    if artifact.tuning is not None:
        from ..tuning import TunedPlan

        tuning = TunedPlan.from_dict(artifact.tuning, info)

    graph, joins = build_task_graph(task_ast, plan)
    return Analysis(
        info=info,
        schedule=schedule,
        task_ast=task_ast,
        graph=graph,
        reduction=reduction,
        tuning=tuning,
        plan=plan,
        joins=joins,
        privatized=plan is not None and bool(plan.groups),
        cache_status="warm",
    )


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
            build_artifact(
                interp, source, params, options, analysis,
                timings={"analyze_s": elapsed},
            ),
        )
        analysis.cache_status = "cold"
        sp.set(status="cold", analyze_s=round(elapsed, 6))
        interp.scop.dependence_table().clear()
        return analysis, "cold"
