"""The exception hierarchy: one base, meaningful subclassing."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ReproError), name


def test_network_sub_hierarchy():
    assert issubclass(errors.AddressError, errors.NetworkError)
    assert issubclass(errors.RpcError, errors.NetworkError)


def test_scheduler_sub_hierarchy():
    assert issubclass(errors.ClosureError, errors.SchedulerError)


def test_catchability():
    with pytest.raises(errors.ReproError):
        raise errors.JobError("job 3")


def test_public_api_reexports_base():
    import repro

    assert repro.ReproError is errors.ReproError
