"""The ``repro.api`` facade: surface completeness and stability.

``docs/API.md`` promises this module is the one import application code
needs; these tests pin the promise — every advertised name resolves,
the error hierarchy hangs together, and the facade actually works for
the headline train → save → load → classify loop.
"""

import inspect

import pytest

from repro import api


def test_all_names_resolve():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert missing == []


def test_all_is_sorted_within_sections():
    # __all__ must stay free of duplicates (a rename that leaves the old
    # name behind shows up here)
    assert len(api.__all__) == len(set(api.__all__))


def test_facade_covers_the_headline_workflow():
    """Every name the README quickstart uses comes from the facade."""
    for name in ("Session", "SessionConfig", "analyze_snapshots",
                 "AnalysisConfig", "save_model", "load_model",
                 "OnlinePhaseTracker", "PhaseClient", "RetryPolicy",
                 "ReproError"):
        assert name in api.__all__, name


def test_every_public_name_has_a_docstring():
    undocumented = []
    for name in api.__all__:
        obj = getattr(api, name)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and not obj.__doc__:
            undocumented.append(name)
    assert undocumented == []


def test_error_hierarchy_roots_at_reproerror():
    errors = [name for name in api.__all__ if name.endswith("Error")]
    assert len(errors) >= 15
    for name in errors:
        assert issubclass(getattr(api, name), api.ReproError), name


def test_format_error_branch():
    # all artifact/file format failures catchable with one except clause
    for cls in (api.SampleFileError, api.ModelFormatError,
                api.CheckpointError):
        assert issubclass(cls, api.FormatError)


def test_service_error_branch_carries_wire_codes():
    for cls in (api.UnknownStreamError, api.StreamConflictError,
                api.BackpressureError, api.ConnectionLostError,
                api.RetryExhaustedError):
        assert issubclass(cls, api.ServiceError)
        assert isinstance(cls.code, str) and cls.code


def test_validation_error_is_a_valueerror():
    # idiomatic call sites can catch ValueError without knowing repro
    assert issubclass(api.ValidationError, ValueError)


def test_tracker_constructor_is_keyword_only():
    params = inspect.signature(api.OnlinePhaseTracker.__init__).parameters
    for name, param in params.items():
        if name == "self":
            continue
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, name


def test_retry_policy_validates():
    with pytest.raises(api.ValidationError):
        api.RetryPolicy(max_attempts=0)
    with pytest.raises(api.ValidationError):
        api.RetryPolicy(jitter=2.0)


def test_deep_import_and_facade_are_the_same_objects():
    from repro.core.model_io import save_model
    from repro.core.online import OnlinePhaseTracker
    from repro.service.client import PhaseClient

    assert api.save_model is save_model
    assert api.OnlinePhaseTracker is OnlinePhaseTracker
    assert api.PhaseClient is PhaseClient
