"""The package's export list."""

import dataclasses
import inspect

import tritgame
from tritgame import bounds, classical, combinat, protocol, qudit

# Names of the per-row protocol API and the helpers only it used, the bound
# dispatch layer, the unused grouped-sum parameter tuple, the process-wide
# verification flag with its reset hook, the helpers only tests call (now in
# tests/helpers.py), the qudit layer's amplitude cap and the helpers
# that took its dimension parameter, and the root-branch search with its
# per-check tolerances.
REMOVED = (
    "RegisterInput", "ProtocolRun", "global_function", "decode", "enumerate_admissible",
    "batch_runs", "sample_admissible", "run_dense", "run_analytic", "apply_local",
    "measure_all", "trit_add", "canonical_strategy_reps", "BoundParams", "bound_value",
    "GroupedSumSpec", "_verified", "_reset_verification", "TranscriptClassStats",
    "transcript_class_stats", "division_type", "DivisionType", "random_profile",
    "classify_sum_class", "digit_string", "MAX_AMPLITUDES", "_sum_class_state", "_root_gate",
    "_fourier_basis", "RootBranch", "find_valid_root_branch", "verify_root_branch",
    "_UNITARY_TOL", "_NORM_TOL", "_CERT_TOL",
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
        for module in (tritgame, bounds, classical, combinat, protocol, qudit):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_removed_methods_are_gone():
    for name in ("sent_for", "cells", "canonical"):
        assert not hasattr(tritgame.Strategy, name), name
    assert not hasattr(tritgame.QuditState, "basis_label")


def test_qutrit_types_have_no_dimension():
    for cls in (tritgame.QuditState, tritgame.LocalGate):
        assert "d" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_verification_chain_has_no_knobs():
    # One root gate, checked at one tolerance: nothing picks a branch, a
    # tolerance or a gate.
    for function in (qudit.root_gate, protocol.verify_class_stepping, qudit.verify_dim2_swap,
                     qudit.class_step_ok, protocol.dense_pre_measurement_state):
        params = set(inspect.signature(function).parameters)
        assert not params & {"branch", "tol", "gate", "_perturb"}, function.__name__
