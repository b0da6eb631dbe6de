"""Control-flow graphs and natural-loop detection over verified bytecode.

The verifier (``vm/verifier.py``) already proved every instruction
reachable, every branch target in range, and recorded the operand-stack
depth entering each instruction (``FunctionDef.stack_in``).  This module
builds on those facts: it never re-validates targets, and it may assume
the instruction stream has a single well-defined CFG.

The constructions are textbook:

* **basic blocks** — leaders are instruction 0, every branch target, and
  every instruction following a branch or terminator;
* **dominators** — iterative dataflow over the block graph (the graphs
  here are tiny: UDF bodies, not whole programs);
* **natural loops** — one per back edge ``b -> h`` where ``h`` dominates
  ``b``; loops sharing a header are merged, matching what the JagScript
  compiler emits for ``while``/``for``;
* **loop depth** — per instruction, the number of distinct loops whose
  body contains it.  The static cost estimator multiplies opcode weights
  by an assumed trip count per nesting level.

A loop none of whose blocks has a successor outside the loop can never
be left; ``Loop.unbounded`` flags it (the classic ``while True: pass``
CPU-bomb shape — finding those *before* execution is the point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..vm.opcodes import BRANCH_OPS, Instr, Op, TERMINATOR_OPS


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions ``[start, end)``."""

    index: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)


@dataclass(frozen=True)
class Loop:
    """One natural loop: all back edges sharing ``header`` merged."""

    header: int                 # block index of the loop header
    body: FrozenSet[int]        # block indices, header included
    unbounded: bool             # no edge leaves the body: cannot terminate

    def __contains__(self, block_index: int) -> bool:
        return block_index in self.body


@dataclass
class CFG:
    """Blocks + loop structure of one function's bytecode."""

    blocks: List[BasicBlock]
    block_of: List[int]         # pc -> block index
    loops: List[Loop]
    loop_depth: List[int]       # pc -> nesting depth (0 = not in a loop)
    #: per block, the set of blocks dominating it (the bounds certifier
    #: uses these for must-execute reasoning; entry dominates all).
    dominators: List[FrozenSet[int]] = field(default_factory=list)

    @property
    def max_loop_depth(self) -> int:
        return max(self.loop_depth, default=0)

    def depth_at(self, pc: int) -> int:
        return self.loop_depth[pc]


def build_cfg(code: Sequence[Instr]) -> CFG:
    """Construct the CFG of verified code (blocks, dominators, loops)."""
    if not code:
        raise ValueError("cannot build a CFG over empty code")
    blocks = _basic_blocks(code)
    block_of = [0] * len(code)
    for block in blocks:
        for pc in block.pcs:
            block_of[pc] = block.index
    dominators = _dominators(blocks)
    loops = _natural_loops(blocks, dominators)
    loop_depth = [0] * len(code)
    for loop in loops:
        for block_index in loop.body:
            for pc in blocks[block_index].pcs:
                loop_depth[pc] += 1
    return CFG(blocks=blocks, block_of=block_of, loops=loops,
               loop_depth=loop_depth, dominators=dominators)


def function_cfg(func) -> CFG:
    """``func``'s CFG, built on first use and kept on the function.

    Every load-time pass reads the CFG through here, so each verified
    function's graph is constructed exactly once.
    """
    if func.cfg is None:
        func.cfg = build_cfg(func.code)
    return func.cfg


def _basic_blocks(code: Sequence[Instr]) -> List[BasicBlock]:
    leaders = {0}
    for pc, ins in enumerate(code):
        if ins.op in BRANCH_OPS:
            leaders.add(ins.arg)
            if pc + 1 < len(code):
                leaders.add(pc + 1)
        elif ins.op in TERMINATOR_OPS and pc + 1 < len(code):
            leaders.add(pc + 1)
    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else len(code)
        blocks.append(BasicBlock(index=index, start=start, end=end))
    start_to_block = {block.start: block.index for block in blocks}
    for block in blocks:
        last = code[block.end - 1]
        targets: List[int] = []
        if last.op in BRANCH_OPS:
            targets.append(start_to_block[last.arg])
        if last.op not in TERMINATOR_OPS and block.end < len(code):
            targets.append(start_to_block[block.end])
        block.successors = targets
        for target in targets:
            blocks[target].predecessors.append(block.index)
    return blocks


def _dominators(blocks: List[BasicBlock]) -> List[FrozenSet[int]]:
    """Iterative dominator sets; entry block dominates everything."""
    everything = frozenset(range(len(blocks)))
    dom: List[FrozenSet[int]] = [everything] * len(blocks)
    dom[0] = frozenset({0})
    changed = True
    while changed:
        changed = False
        for block in blocks[1:]:
            preds = block.predecessors
            if preds:
                incoming = dom[preds[0]]
                for pred in preds[1:]:
                    incoming = incoming & dom[pred]
            else:  # unreachable blocks are rejected by the verifier
                incoming = frozenset()
            new = incoming | {block.index}
            if new != dom[block.index]:
                dom[block.index] = new
                changed = True
    return dom


def _natural_loops(
    blocks: List[BasicBlock], dominators: List[FrozenSet[int]]
) -> List[Loop]:
    bodies: Dict[int, set] = {}
    for block in blocks:
        for succ in block.successors:
            if succ in dominators[block.index]:  # back edge block -> succ
                bodies.setdefault(succ, {succ}).update(
                    _loop_body(blocks, succ, block.index)
                )
    loops = []
    for header, body in sorted(bodies.items()):
        exits = any(
            succ not in body
            for block_index in body
            for succ in blocks[block_index].successors
        )
        loops.append(
            Loop(header=header, body=frozenset(body), unbounded=not exits)
        )
    return loops


def _loop_body(blocks: List[BasicBlock], header: int, tail: int) -> set:
    """Blocks reaching ``tail`` without passing through ``header``."""
    body = {header, tail}
    stack = [tail]
    while stack:
        block_index = stack.pop()
        if block_index == header:
            continue
        for pred in blocks[block_index].predecessors:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body
