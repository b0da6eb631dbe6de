"""The one load-time pass pipeline: each step runs once per UDF, the
CLI prints exactly what CREATE FUNCTION attaches, and sharing the
bounds interval states with trap safety leaves every certificate as
the second-fixpoint computation issued it."""

import ast
import json
from pathlib import Path

import pytest

from repro import Database
from repro.analysis import bounds, cfg as cfg_module, context, dataflow, flows
from repro.analysis.bounds import certify_class
from repro.analysis.cfg import build_cfg
from repro.analysis.lint import (
    _certificate_dict,
    _inline_dict,
    _summary_dict,
    bounds_main,
    load_targets,
    report_main,
)
from repro.core import sandbox
from repro.core.callbacks import CallbackBroker, standard_callback_signatures
from repro.core.designs import Design
from repro.core.udf import (
    ServerEnvironment,
    UDFDefinition,
    UDFRegistry,
    UDFSignature,
)
from repro.errors import ReproError
from repro.vm import classloader
from repro.vm.compiler import compile_source
from repro.vm.machine import JaguarVM
from repro.vm.opcodes import Instr, Op
from repro.vm.security import Permissions
from repro.vm.verifier import self_resolver, verify_class

from tests.analysis.test_dataflow import CORPUS

CALLBACKS = dict(standard_callback_signatures())
REPO = Path(__file__).resolve().parents[2]

#: A callback result used as a loop bound: only the callback's
#: signature says the result is an array of unknown length.
CALLBACK_ARRAY = (
    "def f(h: int) -> int:\n"
    "    b: bytes = cb_lob_read(h, 0, 10)\n"
    "    s: int = 0\n"
    "    for i in range(len(b)):\n"
    "        s = s + b[i]\n"
    "    return s\n"
)

MULTI = (
    "def helper(x: int) -> int:\n"
    "    return x // 3\n"
    "\n"
    "def total(n: int) -> int:\n"
    "    s: int = 0\n"
    "    for i in range(n):\n"
    "        s = s + helper(i)\n"
    "    return s\n"
    "\n"
    "def f(x: int) -> int:\n"
    "    if x > 10:\n"
    "        return total(x)\n"
    "    return helper(x)\n"
)


def compiled(source, name="P"):
    cls = compile_source(source, name, callbacks=CALLBACKS)
    verify_class(cls, self_resolver(cls, callbacks=CALLBACKS))
    return cls


# ---------------------------------------------------------------------------
# Each step runs once
# ---------------------------------------------------------------------------

def _count(monkeypatch, module, attr, predicate=lambda *a, **k: True):
    calls = []
    original = getattr(module, attr)

    def counting(*args, **kwargs):
        if predicate(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counting)
    return calls


class TestLoadRunsEachStepOnce:
    def test_one_cfg_and_one_interval_fixpoint_per_function(
        self, monkeypatch
    ):
        cfgs = _count(monkeypatch, cfg_module, "build_cfg")
        # Only the interval lattice widens; the flow passes' label
        # lattices are finite and solve without widening.
        intervals = _count(
            monkeypatch, dataflow, "solve",
            lambda cfg, problem, **kw: problem.widen is not None,
        )
        vm = JaguarVM(CALLBACKS)
        loaded = vm.load_udf(
            "multi", [compile_source(MULTI, "M", callbacks=CALLBACKS)]
        )
        functions = loaded.main_class.functions
        assert len(cfgs) == len(functions) == 3
        assert len(intervals) == len(functions)
        solved = {id(args[0]) for args in intervals}
        assert solved == {id(func.cfg) for func in functions.values()}
        for func in functions.values():
            assert func.summary and func.certificate and func.flows
            assert func.inline is not None


SOURCE = "def f(x: int) -> int:\n    return x * 2 + 1\n"

DESIGN_WORDS = {
    Design.SANDBOX_JIT: "SANDBOX",
    Design.SANDBOX_INTERP: "SANDBOX_INTERP",
    Design.SANDBOX_ISOLATED: "SANDBOX_ISOLATED",
}


def _create_and_query(db, design, queries=3):
    db.execute("CREATE TABLE t (x INT)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    db.execute(
        f"CREATE FUNCTION f(int) RETURNS int LANGUAGE JAGUAR "
        f"DESIGN {DESIGN_WORDS[design]} AS '{SOURCE}'"
    )
    for __ in range(queries):
        rows = db.query("SELECT f(x) FROM t ORDER BY x")
        assert [tuple(row) for row in rows] == [(3,), (5,), (7,)]


class TestCreateFunctionRunsEachStepOnce:
    @pytest.mark.parametrize(
        "design", [Design.SANDBOX_JIT, Design.SANDBOX_INTERP],
        ids=lambda d: d.value,
    )
    def test_in_process_designs(self, monkeypatch, design):
        compiles = _count(monkeypatch, sandbox, "compile_source")
        verifies = _count(monkeypatch, classloader, "verify_class")
        analyses = _count(monkeypatch, context, "analyze")
        with Database() as db:
            _create_and_query(db, design)
        assert (len(compiles), len(verifies), len(analyses)) == (1, 1, 1)

    def test_isolated_design_compiles_once_in_the_server(self, monkeypatch):
        compiles = _count(monkeypatch, sandbox, "compile_source")
        with Database() as db:
            _create_and_query(db, Design.SANDBOX_ISOLATED)
        assert len(compiles) == 1

    def test_isolated_workers_still_verify_what_they_receive(self):
        with Database() as db:
            _create_and_query(db, Design.SANDBOX_ISOLATED, queries=1)
            # Corrupt the class the server ships: a worker that trusted
            # the server-side verification would run it.
            registered = db.registry.environment.vm.get_udf("f")
            registered.main_class.functions["f"].code = (Instr(Op.RET, None),)
            with pytest.raises(ReproError, match="(?i)verif|stack"):
                db.query("SELECT f(x) FROM t")


@pytest.fixture
def registry():
    broker = CallbackBroker()
    env = ServerEnvironment(vm=JaguarVM(broker.signatures()), broker=broker)
    reg = UDFRegistry(env)
    yield reg
    reg.close()


def _definition(name, payload, entry="f", signature=("int",), **kwargs):
    return UDFDefinition(
        name=name,
        signature=UDFSignature(signature, "int"),
        design=Design.SANDBOX_JIT,
        payload=payload,
        entry=entry,
        **kwargs,
    )


FAILING = {
    "compile-error": _definition("bad", b"def f(:::\n"),
    "missing-entry": _definition("noentry", SOURCE.encode(), entry="g"),
    "signature-mismatch": _definition(
        "mismatch", SOURCE.encode(), signature=("float",)
    ),
    "ungranted-callback": _definition(
        "sneak", b"def f(x: int) -> int:\n    return cb_lob_length(x)\n"
    ),
    "tainted-sink": _definition(
        "leak", b"def f(x: int) -> int:\n    return cb_log(x)\n",
        callbacks=("cb_log",),
    ),
    "not-classfile-or-utf8": _definition("junk", b"\xff\xfe\x00"),
}


class TestFailedCreateFunctionLeavesNothingLoaded:
    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failure_leaves_vm_unchanged(self, registry, case):
        vm = registry.environment.vm
        registry.register(_definition("keep", SOURCE.encode()))
        before = vm.loaded_udfs
        with pytest.raises(ReproError):
            registry.register(FAILING[case])
        assert vm.loaded_udfs == before
        assert not registry.has(FAILING[case].name)

    def test_duplicate_name_keeps_the_first_registration(self, registry):
        vm = registry.environment.vm
        registry.register(_definition("keep", SOURCE.encode()))
        before = vm.loaded_udfs
        with pytest.raises(ReproError):
            registry.register(_definition("keep", b"def f(:::\n"))
        assert vm.loaded_udfs == before


# ---------------------------------------------------------------------------
# Certificates unchanged by sharing the interval states
# ---------------------------------------------------------------------------

def reference_trap_pcs(cls, func, resolver, known):
    """Trap sites from a private second interval fixpoint, the way the
    flow pass computed them before it shared the bounds states."""
    certifier = bounds._FunctionCertifier(cls, func, resolver, {}, None)
    certifier._fixpoint()
    traps = []
    for index, state in enumerate(certifier.in_states):
        if state is None:
            continue
        locals_, stack = list(state[0]), list(state[1])
        for pc in certifier.cfg.blocks[index].pcs:
            ins = func.code[pc]
            if flows._may_trap(cls, ins, stack, known):
                traps.append(pc)
            certifier._step(pc, ins, locals_, stack)
    return tuple(sorted(set(traps)))


def _flows_fixture_sources():
    """Every compilable JagScript literal in the flow-certification
    suite (its deliberately broken payloads are left out)."""
    path = REPO / "tests" / "analysis" / "test_flows.py"
    sources = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("def ")):
            try:
                compile_source(node.value, "R", callbacks=CALLBACKS)
            except ReproError:
                continue
            sources.add(node.value)
    return sorted(sources)


def _fixture_classes():
    cases = [(f"bounds:{label}", CORPUS[label]) for label in sorted(CORPUS)]
    cases += [
        (f"flows:{index}", source)
        for index, source in enumerate(_flows_fixture_sources())
    ]
    return cases


class TestTrapPcsMatchSecondFixpoint:
    def test_fixture_corpus_is_not_empty(self):
        assert len(_flows_fixture_sources()) >= 10

    @pytest.mark.parametrize(
        "label,source", _fixture_classes(), ids=lambda v: str(v)[:24]
    )
    def test_trap_pcs_and_features_identical(self, label, source):
        cls = compile_source(source, "R", callbacks=CALLBACKS)
        resolver = self_resolver(cls, callbacks=CALLBACKS)
        verify_class(cls, resolver)
        context.analyze(cls, resolver)
        known = cls.flows.functions
        for name, func in cls.functions.items():
            cert = func.flows
            if func.summary.recursive:
                continue   # conservative certificate: no fixpoint at all
            want = reference_trap_pcs(
                cls, cls.functions[name], resolver, known
            )
            assert cert.trap_pcs == want, f"{label}.{name}"
            reference = flows._features(
                cls, func,
                flows.FlowCertificate(
                    function=cert.function,
                    return_sources=cert.return_sources,
                    callback_flows=cert.callback_flows,
                    readonly_params=cert.readonly_params,
                    escaping_allocs=cert.escaping_allocs,
                    local_allocs=cert.local_allocs,
                    trap_pcs=want,
                ),
                build_cfg(func.code),
            )
            assert cert.features == reference, f"{label}.{name}"


# ---------------------------------------------------------------------------
# The CLI and CREATE FUNCTION agree
# ---------------------------------------------------------------------------

_SQL_TYPES = {
    "int": "int", "float": "float", "bool": "bool", "str": "str",
    "arr": "bytes", "farr": "farr",
}


def test_report_equals_what_create_function_attaches(capsys):
    examples = REPO / "examples"
    assert report_main(["--json", str(examples)]) == 0
    report = json.loads(capsys.readouterr().out)
    payloads = {}
    for path in sorted(examples.glob("*.py")):
        for label, cls in load_targets(path):
            payloads[label] = cls.to_bytes()

    broker = CallbackBroker()
    env = ServerEnvironment(vm=JaguarVM(broker.signatures()), broker=broker)
    registry = UDFRegistry(env)
    compared = refused = 0
    try:
        for doc in report["classes"]:
            for name, section in doc["functions"].items():
                effects = section["effects"]
                definition = UDFDefinition(
                    name=f"u{compared + refused}",
                    signature=_signature_of(payloads[doc["target"]], name),
                    design=Design.SANDBOX_JIT,
                    payload=payloads[doc["target"]],
                    entry=name,
                    callbacks=tuple(effects["callbacks"]),
                )
                try:
                    registry.register(definition)
                except ReproError:
                    refused += 1
                    continue
                assert _summary_dict(definition.analysis) == effects
                assert _certificate_dict(definition.certificate) == (
                    section["bounds"]
                )
                assert _inline_dict(definition.inline) == section["inline"]
                assert definition.flows.as_dict() == section["flows"]
                compared += 1
    finally:
        registry.close()
    assert compared >= 10
    assert refused <= 2


def _signature_of(payload, entry):
    from repro.vm.classfile import ClassFile

    func = ClassFile.from_bytes(payload).functions[entry]
    return UDFSignature(
        tuple(_SQL_TYPES[t.value] for t in func.param_types),
        "void" if func.ret_type.value == "void"
        else _SQL_TYPES[func.ret_type.value],
    )


# ---------------------------------------------------------------------------
# The lint CLI certifies with the verifying resolver
# ---------------------------------------------------------------------------

class TestCallbackResultIsTop:
    def test_bounds_cli_matches_the_loader(self, tmp_path, capsys):
        target = tmp_path / "cbarr.jag"
        target.write_text(CALLBACK_ARRAY)
        assert bounds_main(["--json", str(target)]) == 0
        (doc,) = json.loads(capsys.readouterr().out)["classes"]
        cert = doc["functions"]["f"]
        assert cert["fuel_bound"] == "⊤"
        assert [loop["trip_bound"] for loop in cert["loops"]] == ["⊤"]

        vm = JaguarVM(CALLBACKS)
        loaded = vm.load_udf(
            "cbarr",
            [compile_source(CALLBACK_ARRAY, "Cbarr", callbacks=CALLBACKS)],
            permissions=Permissions.with_callbacks("cb_lob_read"),
        )
        loader_cert = loaded.main_class.functions["f"].certificate
        assert _certificate_dict(loader_cert) == cert

    def test_unresolved_call_result_is_top(self):
        # Certified without the callback table, the call cannot be
        # resolved; its result must not inherit an argument's range.
        cls = compiled(CALLBACK_ARRAY)
        cert = certify_class(cls, self_resolver(cls)).functions["f"]
        assert cert.fuel_bound is None
        assert [loop.trip_bound for loop in cert.loops] == [None]
