"""Route independence: the closed forms and the operator oracles share no helper.

A closed form and its oracle check each other only if a fault in one cannot
move the other. This test follows the names each function of cavity_bell
uses, through the AST, from both sets of entry points, and fails if the two
sets reach a common package definition outside ALLOWED.
"""

import ast
from pathlib import Path

import cavity_bell

PACKAGE = Path(cavity_bell.__file__).parent

CLOSED_FORMS = (
    "bell.bell_function",
    "bell.bell_function_vs_p",
    "bell.bell_correlation",
    "bell.analytic_s_b",
    "fields.field_covariance",
)
ORACLES = (
    "bell.bell_function_operator_vs_eta",
    "bell.dichotomic_pair_expectation",
    "fields.field_covariance_operator",
    "fields.field_expectation_operator",
    "fields.field_correlation_operator",
)

#: Definitions both routes may reach, each with the reason it cannot make
#: the two routes agree on a wrong number.
ALLOWED = {
    "binomial.check_fields": "refuses bad inputs and computes nothing",
    "binomial.check_floats": "turns an input vector into floats, refused as check_fields refuses",
    "binomial._RULES": "check_fields' name table: the rule each named input must pass",
    "binomial._fault": "check_fields' scalar rule: names the rule a value breaks",
    "binomial._COUNTS": "_RULES' rows of the counts, which need not be finite",
    "binomial._count": "builds a count's test in _COUNTS",
    "constants.MAX_GRID_POINTS": "the grid limit in the step's row of _RULES",
    "binomial.Checked": "the checked value types' base: checks and stores their fields",
    "binomial.wrap_angle": "the one angle rule, applied to the inputs of both routes",
    "fock.Frozen": "the value types' base: binds and freezes fields",
    "binomial.GbsParams": "value type: checks and stores (p, phi)",
    "binomial.BinomialParams": "value type: checks and stores (n, p, phi)",
    "bell.BellConfig": "value type: checks and stores the Bell inputs",
    "fields.EntangledGbsParams": "value type: checks and stores the state inputs",
    "fields.FieldStats": "value type: stores the four moments and checks they agree",
    "bell.angle_preset": "picks the settings at which both routes are evaluated",
    "bell._preset": "the table lookup behind angle_preset",
    "bell.chsh": "combines four correlations, whichever route computed them",
}


def package_graph():
    """Each module-level definition of the package ('module.name') and the definitions it uses."""
    nodes, scopes = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        scope = scopes[module] = {}
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    source = f"{stmt.module}.{alias.name}" if stmt.module else alias.name
                    scope[alias.asname or alias.name] = source
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                nodes[f"{module}.{name}"] = stmt
                scope[name] = f"{module}.{name}"

    def resolve(qualified):
        # follow re-exports ("bell.DEFAULT_N_MAX" is fock's, which is constants')
        while qualified not in nodes:
            module, _, name = qualified.rpartition(".")
            if name not in scopes.get(module, {}):
                return None
            qualified = scopes[module][name]
        return qualified

    edges = {}
    for qualified, stmt in nodes.items():
        scope = scopes[qualified.rpartition(".")[0]]
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in scope:
                used.add(scope[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and scope.get(node.value.id) in scopes):  # module.attribute
                used.add(f"{scope[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update(f"{node.module}.{alias.name}" for alias in node.names)
        edges[qualified] = {target for target in map(resolve, used) if target}
    return edges


def reach(edges, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(edges[name])
    return seen


def test_closed_forms_and_oracles_share_only_allowed_helpers():
    edges = package_graph()
    assert set(CLOSED_FORMS) | set(ORACLES) | set(ALLOWED) <= set(edges)
    closed, oracle = reach(edges, CLOSED_FORMS), reach(edges, ORACLES)
    # the walk sees each route's own kernels, so an empty overlap is not vacuous
    assert {"bell._correlations", "fields.cross_weight"} <= closed
    assert {"fock.pair_expectation", "fields.superpose", "binomial.gbs_state"} <= oracle
    shared = (closed & oracle) - set(ALLOWED)
    assert not shared, f"closed forms and oracles both reach {sorted(shared)}"
