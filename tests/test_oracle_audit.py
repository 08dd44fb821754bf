"""No oracle inside a node: every module that a storage stack or a soft
stack is built from imports nothing from ``repro.sim`` but the
``Protocol``/``Host`` base. A protocol that reached for a ``Node``, the
``Cluster``, the ``Simulation`` or the ``Network`` could read simulator
ground truth (who is up, when a peer crashed) that no deployment has,
and its stack would then run differently, or not at all, on a UDP host.

The audited set is the import closure of the stack factories' modules
over ``repro`` (``repro.sim`` itself excepted), read from the source, so
a module counts as soon as the stacks can reach it."""

import ast
import importlib.util

import pytest

#: Where the stacks are assembled: the storage factory and the soft
#: node's protocols (the facade's ``_soft_stack`` only instantiates them).
STACK_MODULES = ("repro.core.storage", "repro.softstate.coordinator", "repro.softstate.onehop")
#: What a protocol may take from the simulator package: the base class,
#: the host interface, and the metrics registry that ``Host.metrics``
#: hands out (it records; it tells a node nothing about other nodes).
BASE = {"Protocol", "Host", "Metrics"}


def _tree(module):
    with open(importlib.util.find_spec(module).origin) as source:
        return ast.parse(source.read())


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _imports(tree):
    """(module, names) of every ``repro`` import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("repro"):
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    yield alias.name, []


def _closure():
    seen, todo = set(), list(STACK_MODULES)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for target, names in _imports(_tree(module)):
            if target == "repro.sim" or target.startswith("repro.sim."):
                continue
            todo.append(target)
            todo += [f"{target}.{name}" for name in names if _is_module(f"{target}.{name}")]
    return sorted(seen)


def test_the_closure_holds_the_stacks_protocols():
    modules = _closure()
    for expected in ("repro.redundancy.manager", "repro.redundancy.adaptive",
                     "repro.membership.cyclon", "repro.epidemic.eager",
                     "repro.estimation.lifetimes", "repro.softstate.onehop"):
        assert expected in modules


@pytest.mark.parametrize("module", _closure())
def test_a_stack_module_imports_only_the_protocol_base_from_the_simulator(module):
    taken = set()
    for target, names in _imports(_tree(module)):
        if target == "repro.sim" or target.startswith("repro.sim."):
            taken |= set(names) or {target}
    assert taken <= BASE, f"{module} imports {sorted(taken - BASE)} from repro.sim"
