"""The package's export list."""

import ast
import dataclasses
import inspect
from pathlib import Path

import tritgame
from tritgame import bounds, classical, cli, combinat, protocol, qudit

# Names of the per-row protocol API and the helpers only it used, the bound
# dispatch layer, the unused grouped-sum parameter tuple, the process-wide
# verification flag with its reset hook, the helpers only tests call (now in
# tests/helpers.py), the qudit layer's amplitude cap and the helpers
# that took its dimension parameter, the root-branch search with its
# per-check tolerances, the class count the scan now reports itself, the
# exhaustive oracle's long-run gate, two bound helpers nothing called, the
# closed-form grouped sum with its guard digits (now in tests/helpers.py), the
# decimal pi and cosines that the cubic x^3 - 3x + 1 replaced, the
# oracle's (bit pattern, trit vector) code grid, and the float root-gate
# check's result type, the qubit check's float matrix and Bell pairs, which
# exact identities replaced, with the pass rule the dense sweep now states
# itself, the composition enumeration, its big-integer multinomials, the
# per-composition values and the merge that one generating function replaced,
# the counting primes' bound, their prime search and the lift of their
# counts to every prime, which counting modulo every prime replaced, and
# every prime, character table, power table and Garner digit of the modular
# evaluator, which exact integers in Z[Z9] replaced, the numpy scan's
# permutations and shift index map, which the written-out orbit
# representatives replaced, the analytic engine's certificate, its lock, the
# CLI's timed fetch of it and the sweep constant only the parser read, which
# the engine's own check on every call replaced, and the table of Pascal rows
# by residue, which powers of 1 + x replaced.
REMOVED = (
    "RegisterInput", "ProtocolRun", "global_function", "decode", "enumerate_admissible",
    "batch_runs", "sample_admissible", "run_dense", "run_analytic", "apply_local",
    "measure_all", "trit_add", "canonical_strategy_reps", "BoundParams", "bound_value",
    "GroupedSumSpec", "_verified", "_reset_verification", "TranscriptClassStats",
    "transcript_class_stats", "division_type", "DivisionType", "random_profile",
    "classify_sum_class", "digit_string", "MAX_AMPLITUDES", "_sum_class_state", "_root_gate",
    "_fourier_basis", "RootBranch", "find_valid_root_branch", "verify_root_branch",
    "_UNITARY_TOL", "_NORM_TOL", "_CERT_TOL", "transcript_class_count", "exhaustive_in_bound",
    "plus_op", "grouped_sum_primed", "ramus", "_RAMUS_GUARD_DIGITS", "_pi", "_cos_pi_fraction",
    "_half_codes", "RootCheck", "_SQRT_NOT", "_BELL_EVEN", "_BELL_ODD", "class_step_ok",
    "_used_compositions", "_compositions", "_multinomial", "_composition_values",
    "_merged_compositions", "_count_bound", "_weighted_sum", "_block_sums", "_primes_past",
    "_BLOCK", "_PRIME_LIMIT", "_is_prime", "crt_primes", "_PrimeTables", "_root_of_unity9",
    "_prime_tables", "_group_powers", "_factorials", "_mixed_radix", "_from_digits", "_largest",
    "_class_blocks", "_PERMS3", "_shift_indices", "SteppingCertificate",
    "AnalyticEngineLockedError", "_timed_verify", "_CERT_KS", "_RESIDUE_ROWS",
)


def test_every_exported_name_resolves():
    assert len(set(tritgame.__all__)) == len(tritgame.__all__)
    for name in tritgame.__all__:
        assert hasattr(tritgame, name), name


def test_star_import():
    namespace: dict = {}
    exec("from tritgame import *", namespace)
    assert set(tritgame.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in tritgame.__all__
        for module in (tritgame, bounds, classical, cli, combinat, protocol, qudit):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_methods_are_gone():
    # A table has one layout, its six trits in REGISTER_VALUES order; its
    # relabelings and register shifts only the tests use (tests/helpers.py).
    for name in ("sent_for", "cells", "canonical", "lookup_array", "relabel", "shift"):
        assert not hasattr(tritgame.Strategy, name), name
    assert not hasattr(tritgame.QuditState, "basis_label")


def test_qutrit_types_have_no_dimension():
    for cls in (tritgame.QuditState, tritgame.LocalGate):
        assert "d" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_verification_chain_has_no_knobs():
    # One root gate, checked at one tolerance: nothing picks a branch, a
    # tolerance or a gate.
    for function in (qudit.root_gate, protocol.verify_class_stepping, qudit.verify_root_gate,
                     qudit.verify_dim2_swap, protocol.sweep_class_states,
                     protocol.dense_pre_measurement_state):
        params = set(inspect.signature(function).parameters)
        assert not params & {"branch", "tol", "gate", "_perturb"}, function.__name__


def test_analytic_engine_checks_itself():
    # The engine takes the trials and the random stream, nothing that could
    # stand in for its check, and the check is in its own code.
    assert list(inspect.signature(protocol.run_analytic_batch).parameters) == ["bits", "rng"]
    source = Path(protocol.__file__)
    assert "verify_class_stepping" in _references(source, ("run_analytic_batch",))


def test_exhaustive_oracle_has_no_knobs():
    # One reach, EXHAUSTIVE_MAX_K: nothing admits a larger k.
    for function in (classical.evaluate_exhaustive, classical.exhaustive_transcript_counts):
        assert list(inspect.signature(function).parameters) == ["profile"], function.__name__


def _top_level_definitions(path: Path) -> dict[str, ast.AST]:
    """Each module-level function, class and assigned name of ``path``, by name."""
    definitions = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            definitions.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return definitions


def _references(path: Path, roots: tuple[str, ...]) -> set[str]:
    """Names that ``roots`` use, followed through the private names they reach."""
    definitions = _top_level_definitions(path)
    used, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in used:
            continue
        used.add(name)
        if name in definitions and (name in roots or name.startswith("_")):
            for node in ast.walk(definitions[name]):
                if isinstance(node, ast.Name):
                    todo.append(node.id)
                elif isinstance(node, ast.Attribute):
                    todo.append(node.attr)
    return used


def test_exhaustive_oracle_is_independent():
    # The oracle computes its residues itself, and its per-vector reference
    # builds its own codes.
    source = Path(classical.__file__)
    private = {name for name in _top_level_definitions(source) if name.startswith("_")}
    collapsed = _references(source, ("evaluate_collapsed", "best_homogeneous")) & private
    assert {"_step_polys", "_ring_product", "_collapsed_value"} <= collapsed
    oracle = _references(source, ("_half_histogram", "exhaustive_transcript_counts"))
    assert not oracle & collapsed
    reference = _references(Path(__file__).with_name("helpers.py"),
                            ("per_vector_transcript_counts",))
    assert not reference & {"_half_histogram", "exhaustive_transcript_counts",
                            "evaluate_exhaustive"}


def test_full_scan_reference_is_unmerged():
    # The reference the merged scan is checked against enumerates every
    # composition with its own multinomials, powers and ring products: it
    # reaches no private name of classical.py, and the public names it
    # uses, followed through the private names they reach, reach no
    # function of the evaluator.
    source = Path(classical.__file__)
    definitions = _top_level_definitions(source)
    private = {name for name in definitions if name.startswith("_")}
    evaluator = {name for name in _references(source, ("_collapsed_value",)) & private
                 if isinstance(definitions[name], ast.FunctionDef)}
    assert {"_group_classes", "_group_shape", "_ring_product", "_ring_power",
            "_step_polys"} <= evaluator
    for root in ("full_scan_value", "transcript_class_stats"):
        helper = _references(Path(__file__).with_name("helpers.py"), (root,))
        assert not helper & private, root
        package = helper & set(definitions)
        assert package, root
        assert not evaluator & _references(source, tuple(package)), root


def test_character_bound_is_integer_only():
    # The bound's sums, followed through the private names they reach, hold
    # no float or complex literal, divide only with //, and call no
    # function that returns a float.
    source = Path(classical.__file__)
    definitions = _top_level_definitions(source)
    decided = _references(source, ("_character_sums", "_character_bound"))
    assert {"_cosine_ceilings", "_step_polys", "_BOUND_DIGITS"} <= decided
    floats = {"float", "complex", "float64", "sqrt", "cos", "sin", "exp", "log", "pi",
              "divide", "true_divide"}
    for name in decided & set(definitions):
        for node in ast.walk(definitions[name]):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (name, node.value)
            assert not isinstance(node, ast.Div), name
            assert not (isinstance(node, ast.Name) and node.id in floats), (name, node.id)
            assert not (isinstance(node, ast.Attribute) and node.attr in floats), (name, node.attr)


def test_exact_classical_core_is_numpy_free():
    # The collapsed evaluator, the homogeneous search and the character
    # bound, followed through the private names they reach, never name
    # numpy: in classical.py only the exhaustive oracle computes on arrays.
    source = Path(classical.__file__)
    definitions = _top_level_definitions(source)
    core = _references(source, ("evaluate_collapsed", "best_homogeneous", "_character_bound",
                                "strategy_orbit_reps"))
    assert {"_step_polys", "_group_shape", "_group_classes", "_character_sums"} <= core
    assert not core & {"np", "numpy"}
    arrays = {name for name, node in definitions.items()
              if any(isinstance(n, ast.Name) and n.id in ("np", "numpy") for n in ast.walk(node))}
    assert arrays == {"_half_histogram", "exhaustive_transcript_counts", "referee_success"}


def test_exact_identities_are_integer_only():
    # What decides the identities, followed through the private names it
    # reaches, holds no float or complex literal and calls no numpy or math.
    source = Path(qudit.__file__)
    definitions = _top_level_definitions(source)
    decided = _references(source, ("_holds", "_ROOT_CUBE", "_SQRT_NOT_SQUARE"))
    assert {"_times", "_vanishes"} <= decided
    for name in decided & set(definitions):
        for node in ast.walk(definitions[name]):
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), (name, node.value)
            assert not (isinstance(node, ast.Name) and node.id in ("np", "numpy", "math")), name


def _package_imports(module) -> set[str]:
    """The tritgame modules ``module`` imports, by their name in the package."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names if a.name.startswith("tritgame.")]
        elif isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "tritgame"
        ):
            base = (node.module or "").removeprefix("tritgame").lstrip(".")
            dotted = [base] if base else [a.name for a in node.names]
        else:
            continue
        names.update(d.removeprefix("tritgame.") for d in dotted)
    return names


def test_classical_side_does_not_import_the_quantum_side():
    # The classical evaluators and the bounds count inputs; they share only
    # the counting rules in combinat with the protocol.
    for module in (classical, bounds):
        assert not _package_imports(module) & {"protocol", "qudit", "cli"}, module.__name__
    assert _package_imports(classical) == {"combinat"}
