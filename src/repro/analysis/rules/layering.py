"""Layering rules: declarative import contracts + the PolicyContext seam.

PR 3 split the simulator into an engine that owns the machine and policies
that own decisions, talking only through
:class:`repro.sim.policy.PolicyContext`.  ``tests/test_layering.py``
enforced one edge of that with a hand-rolled AST walk; these rules are the
general form:

* ``LAY001`` — :data:`IMPORT_CONTRACTS`, a table of (governed packages,
  forbidden imports, rationale).  Adding an architectural edge is one new
  table row, not a new test;
* ``LAY002`` — policy code must never *assign* attributes on its
  ``PolicyContext`` (the view is an observation surface, not a mailbox);
* ``LAY003`` — policy code must never reach into underscore-private
  context internals (``ctx._engine`` would reopen the hole PR 3 closed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from repro.analysis.core import (
    ERROR,
    Finding,
    ModuleInfo,
    Rule,
    attribute_base,
    register,
)


@dataclass(frozen=True)
class ImportContract:
    """One architectural edge: modules under ``packages`` must not import
    anything under ``forbidden``."""

    name: str
    packages: Tuple[str, ...]
    forbidden: Tuple[str, ...]
    rationale: str


IMPORT_CONTRACTS: Tuple[ImportContract, ...] = (
    ImportContract(
        name="policy-engine-independence",
        packages=("repro.qos", "repro.baselines", "repro.sharing",
                  "repro.controllers", "repro.trace", "repro.sim.policy"),
        forbidden=("repro.sim.engine",),
        rationale=("policies, quota controllers and trace tooling observe "
                   "and actuate only through "
                   "repro.sim.policy.PolicyContext; the engine imports "
                   "them, never the reverse"),
    ),
    ImportContract(
        name="engine-harness-independence",
        packages=("repro.sim",),
        forbidden=("repro.harness", "repro.osched", "repro.trace",
                   "repro.serve"),
        rationale=("the simulator core must stay runnable without the "
                   "experiment harness, cluster scheduler, exporters or "
                   "the serving layer (serve drives the engine through "
                   "launch_at/on_kernel_retired, never the reverse)"),
    ),
    ImportContract(
        name="serve-layering",
        packages=("repro.serve",),
        forbidden=("repro.analysis", "repro.harness.experiments"),
        rationale=("the serving layer sits inside the code-salt closure "
                   "(serve results are cached): it may build on the "
                   "simulator, qos machinery, osched predictor and the "
                   "salted harness modules (runner/parallel/cache/expdb; "
                   "SALT001 keeps whatever it imports salted), but "
                   "pulling in the linter or the figure drivers would "
                   "invert the tooling layering"),
    ),
    ImportContract(
        name="expdb-engine-independence",
        packages=("repro.harness.expdb",),
        forbidden=("repro.sim", "repro.kernels", "repro.qos",
                   "repro.baselines", "repro.sharing", "repro.controllers",
                   "repro.power", "repro.config", "repro.isa",
                   "repro.harness.runner", "repro.harness.cache",
                   "repro.harness.parallel", "repro.harness.experiments"),
        rationale=("the experiment store deals only in plain JSON payloads "
                   "and cache-key pointers; keeping it free of simulator, "
                   "config and runner imports means a store can be opened, "
                   "inspected and garbage-collected without loading the "
                   "simulation stack (and can never influence results)"),
    ),
    ImportContract(
        name="runtime-analysis-independence",
        packages=("repro.config", "repro.isa", "repro.kernels", "repro.sim",
                  "repro.qos", "repro.baselines", "repro.sharing",
                  "repro.controllers", "repro.power", "repro.harness",
                  "repro.trace", "repro.osched", "repro.serve"),
        forbidden=("repro.analysis",),
        rationale=("the linter is development tooling; runtime modules must "
                   "never depend on it (only the CLI dispatches into it)"),
    ),
)


def _governed_by(module_name: str, prefix: str) -> bool:
    return module_name == prefix or module_name.startswith(prefix + ".")


def contracts_for(module_name: str) -> List[ImportContract]:
    return [contract for contract in IMPORT_CONTRACTS
            if any(_governed_by(module_name, package)
                   for package in contract.packages)]


@register
class ImportContractRule(Rule):
    id = "LAY001"
    severity = ERROR
    summary = ("forbidden cross-layer import (see IMPORT_CONTRACTS): e.g. "
               "policy packages importing repro.sim.engine")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        contracts = contracts_for(module.name)
        if not contracts:
            return
        for imported, lineno in module.imported_modules():
            for contract in contracts:
                for forbidden in contract.forbidden:
                    if _governed_by(imported, forbidden):
                        yield self.finding(
                            module, lineno,
                            f"imports {imported}, forbidden by the "
                            f"'{contract.name}' contract: "
                            f"{contract.rationale}")


#: Packages whose code runs on the policy side of the PolicyContext seam.
POLICY_SIDE_PACKAGES: Tuple[str, ...] = (
    "repro.qos", "repro.baselines", "repro.sharing", "repro.controllers",
    "repro.trace")


def _is_policy_side(module_name: str) -> bool:
    return any(_governed_by(module_name, package)
               for package in POLICY_SIDE_PACKAGES)


def _context_param_names(function: ast.AST) -> Set[str]:
    """Parameters of ``function`` that are (by name or annotation) a
    :class:`PolicyContext`."""
    names: Set[str] = set()
    args = function.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        if arg.arg == "ctx":
            names.add(arg.arg)
        elif arg.annotation is not None:
            try:
                annotation = ast.unparse(arg.annotation)
            except Exception:  # pragma: no cover - malformed annotation
                continue
            if "PolicyContext" in annotation:
                names.add(arg.arg)
    return names


class _ContextSeamRule(Rule):
    """Shared traversal: visit every function in policy-side modules that
    takes a PolicyContext and run :meth:`check_function` over its body."""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not _is_policy_side(module.name):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ctx_names = _context_param_names(node)
            if ctx_names:
                yield from self.check_function(module, node, ctx_names)

    def check_function(self, module: ModuleInfo, function: ast.AST,
                       ctx_names: Set[str]) -> Iterator[Finding]:
        raise NotImplementedError


@register
class ContextAttributeAssignmentRule(_ContextSeamRule):
    id = "LAY002"
    severity = ERROR
    summary = ("attribute assignment into a PolicyContext: policies actuate "
               "through its methods (set_quota, set_tb_target, ...), never "
               "by poking state into the view")

    def check_function(self, module: ModuleInfo, function: ast.AST,
                       ctx_names: Set[str]) -> Iterator[Finding]:
        for node in ast.walk(function):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and attribute_base(target) in ctx_names):
                    yield self.finding(
                        module, target.lineno,
                        f"assigns {ast.unparse(target)}: policies must "
                        "actuate through PolicyContext methods (set_quota, "
                        "set_tb_target, request_preemption, ...), never by "
                        "writing attributes into the context")


@register
class ContextPrivateAccessRule(_ContextSeamRule):
    id = "LAY003"
    severity = ERROR
    summary = ("underscore-private access on a PolicyContext (e.g. "
               "ctx._engine): use the public observation surface")

    def check_function(self, module: ModuleInfo, function: ast.AST,
                       ctx_names: Set[str]) -> Iterator[Finding]:
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ctx_names):
                yield self.finding(
                    module, node.lineno,
                    f"touches private PolicyContext internals "
                    f"({node.value.id}.{node.attr}); only the public "
                    "observation/actuation surface is part of the "
                    "engine-policy contract")
