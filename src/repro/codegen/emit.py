"""Code generation: emit a runnable task program (Sections 5.4–5.5).

The paper extracts each pipeline-loop body into a function and generates
calls to the ``CreateTask`` wrapper, with dependency vectors packed into
integers.  We do the same in Python: :func:`emit_task_program` produces the
*source text* of a module whose ``build_tasks(system, run_block)`` function
issues one :meth:`~repro.tasking.api.OmpTaskSystem.create_task` call per
pipeline block, in original program order (the ``omp single`` task-creation
loop).  The emitted module is self-contained data + calls: executing it
against the tasking layer and an interpreter reproduces the kernel.

``write_num`` is the number of dependency columns.  The paper sizes it to
the number of *source* loop nests; we size it to all statements so sink
statements get collision-free out slots (strictly safer, same addressing
scheme).
"""

from __future__ import annotations

import types
from typing import Callable

import numpy as np

from ..pipeline import PipelineInfo
from ..schedule import TaskAst, TaskBlock, generate_task_ast
from ..tasking import OmpTaskSystem
from .packing import VectorPacker

CostFn = Callable[[TaskBlock], float]


def statement_columns(ast: TaskAst) -> dict[str, int]:
    """Dense ``dependArr`` column index per statement (the paper's outIdx)."""
    return {nest.statement: k for k, nest in enumerate(ast.nests)}


def statement_packers(ast: TaskAst) -> dict[str, VectorPacker]:
    """One vector packer per statement, covering all its block ends.  A
    nest without blocks (empty domain) has no ends to pack and no entry:
    it creates no task and no other block can hold a token of it."""
    return {
        nest.statement: VectorPacker.for_points(
            np.asarray([list(b.end) for b in nest.blocks])
        )
        for nest in ast.nests
        if nest.blocks
    }


def emit_task_program(
    info: PipelineInfo,
    ast: TaskAst | None = None,
    cost_of_block: CostFn | None = None,
) -> str:
    """Emit Python source for the pipelined task program."""
    from ..obs.spans import span

    ast = ast if ast is not None else generate_task_ast(info)
    with span("codegen.emit"):
        return _emit(info, ast, cost_of_block)


def _emit(
    info: PipelineInfo,
    ast: TaskAst,
    cost_of_block: CostFn | None,
) -> str:
    columns = statement_columns(ast)
    packers = statement_packers(ast)
    cost = cost_of_block or (lambda b: float(b.size))

    lines: list[str] = [
        '"""Auto-generated pipelined task program.',
        "",
        "Generated by repro.codegen.emit from the pipeline information of a",
        "SCoP (Algorithm 1).  build_tasks(system, run_block) creates one task",
        "per pipeline block with packed depend clauses, mirroring the",
        "CreateTask calls of the paper's Figure 7/8.",
        '"""',
        "",
        f"WRITE_NUM = {len(columns)}",
        f"STATEMENT_COLUMNS = {columns!r}",
        "",
    ]

    # Task body functions: one per statement (the extracted loop bodies).
    for nest in ast.nests:
        name = nest.statement
        lines += [
            f"def task_{name}(payload):",
            f'    """Extracted pipeline-loop body of statement {name}."""',
            "    payload['run_block'](" + repr(name) + ", payload['iters'])",
            "",
        ]

    lines.append("def build_tasks(system, run_block):")
    lines.append('    """Create all tasks in program order (omp single part)."""')
    lines.append("    created = []")
    for nest in ast.nests:
        name = nest.statement
        col = columns[name]
        lines.append(f"    # statement {name}: {nest.num_blocks} blocks")
        for block in nest.blocks:
            out_code = packers[name].pack(block.end)
            in_dep: list[int] = []
            in_idx: list[int] = []
            for src, end in block.in_tokens:
                in_dep.append(packers[src].pack(end))
                in_idx.append(columns[src])
            iters = [tuple(int(v) for v in row) for row in block.iterations]
            lines.append(
                "    created.append(system.create_task("
                f"task_{name}, "
                f"{{'iters': {iters!r}, 'run_block': run_block}}, "
                f"out_depend={out_code}, out_idx={col}, "
                f"in_depend={in_dep!r}, in_idx={in_idx!r}, "
                f"cost={cost(block)!r}, statement={name!r}"
                + ("" if nest.chained else ", chain=False")
                + "))"
            )
    lines.append("    return created")
    lines.append("")
    return "\n".join(lines)


def load_task_program(source: str) -> types.ModuleType:
    """Exec emitted source into a fresh module object."""
    module = types.ModuleType("repro_generated_task_program")
    exec(compile(source, "<generated task program>", "exec"), module.__dict__)
    return module


def run_generated(
    info: PipelineInfo,
    interpreter,
    store,
    workers: int = 4,
    cost_of_block: CostFn | None = None,
):
    """Emit, load and execute the generated task program.

    Returns ``(module, system, run_result)``; ``store`` is mutated by the
    execution exactly like the kernel would mutate its arrays.
    """
    ast = generate_task_ast(info)
    source = emit_task_program(info, ast, cost_of_block)
    module = load_task_program(source)
    system = OmpTaskSystem(write_num=module.WRITE_NUM)

    def run_block(statement: str, iters: list[tuple[int, ...]]) -> None:
        interpreter.run_block(store, statement, iters)

    module.build_tasks(system, run_block)
    result = system.run(workers=workers)
    return module, system, result
