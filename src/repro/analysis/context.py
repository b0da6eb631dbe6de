"""One analysis context and one pass pipeline per verified class.

Every load-time pass reads the same per-function facts, so they are
built once, here, in the style of a declaration visit followed by the
binders that consume it:

* the **CFG** of each function (:func:`~repro.analysis.cfg.function_cfg`
  builds it once and keeps it on the ``FunctionDef``);
* the **intra-class call graph** and its Tarjan SCCs in reverse
  topological order (callees before callers), which the effect, bounds
  and flow passes all close over;
* the **interval states** of the bounds certifier, solved once per
  function (:func:`~repro.analysis.bounds.interval_states`) and walked
  again by the flow pass's trap-safety check.

:func:`analyze` is the only place the pass order is decided:
effects → bounds → flows → decompile.  The class loader calls it right
after verification, and every ``python -m repro.analysis`` subcommand
calls it with the resolver that verified the class, so the CLI prints
exactly what CREATE FUNCTION attaches.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..vm.classfile import ClassFile, FunctionDef, K_FUNC
from ..vm.opcodes import Op
from ..vm.verifier import Resolver
from .cfg import function_cfg

#: Resolves a foreign (class, function) reference to its loaded
#: definition (carrying ``summary``/``certificate``), or None when the
#: target cannot be resolved (treated as unknown / unbounded).
ForeignLookup = Callable[[str, str], Optional[FunctionDef]]


class ClassContext:
    """The facts every pass over one verified class shares."""

    def __init__(self, cls: ClassFile, resolver: Resolver,
                 foreign: Optional[ForeignLookup] = None):
        if not cls.verified:
            raise ValueError(
                f"class {cls.name!r} must be verified before analysis"
            )
        self.cls = cls
        self.resolver = resolver
        self.foreign = foreign
        #: per function, its intra-class CALL targets in code order
        self.callees: Dict[str, List[str]] = {}
        for name, func in cls.functions.items():
            function_cfg(func)
            callees: List[str] = []
            for ins in func.code:
                if ins.op is Op.CALL:
                    class_name, func_name = cls.constant(ins.arg, K_FUNC)
                    if (class_name == cls.name and func_name in cls.functions
                            and func_name not in callees):
                        callees.append(func_name)
            self.callees[name] = callees
        self.sccs: List[List[str]] = _sccs(self.callees)
        #: bounds certificates, filled in SCC order by the bounds pass
        #: and read back at intra-class call sites
        self.certificates: Dict[str, object] = {}
        #: per function, the bounds certifier holding its solved
        #: interval states (see ``bounds.interval_states``)
        self.intervals: Dict[str, object] = {}

    def recursive(self, component: Sequence[str]) -> bool:
        """True for a mutually or self-recursive SCC."""
        return len(component) > 1 or component[0] in self.callees[component[0]]


def analyze(cls: ClassFile, resolver: Resolver,
            foreign: Optional[ForeignLookup] = None) -> ClassContext:
    """Run every load-time pass over a verified class, in order.

    Attaches ``summary``, ``certificate``, ``flows`` and ``inline`` to
    each function and the ``analysis``/``certificates``/``flows``
    rollups to the class.  The order is fixed by what each pass reads:
    bounds substitutes callee certificates the effect pass made
    resolvable, flows reuses the bounds interval states and counts the
    certified loops, and the decompiler gates on the effect summaries.
    """
    from .bounds import certify
    from .decompile import decompile_class
    from .effects import summarize
    from .flows import certify_flows

    context = ClassContext(cls, resolver, foreign)
    summarize(context)
    certify(context)
    certify_flows(context)
    decompile_class(cls)
    return context


def _sccs(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCCs, emitted in reverse topological order (callees
    before callers)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    result: List[List[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan: (node, iterator position) frames.
        work = [(node, 0)]
        while work:
            current, pos = work.pop()
            if pos == 0:
                index[current] = lowlink[current] = counter[0]
                counter[0] += 1
                stack.append(current)
                on_stack[current] = True
            recurse = False
            edges = graph[current]
            for position in range(pos, len(edges)):
                succ = edges[position]
                if succ not in index:
                    work.append((current, position + 1))
                    work.append((succ, 0))
                    recurse = True
                    break
                if on_stack.get(succ):
                    lowlink[current] = min(lowlink[current], index[succ])
            if recurse:
                continue
            if lowlink[current] == index[current]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == current:
                        break
                result.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])

    for node in graph:
        if node not in index:
            strongconnect(node)
    return result
