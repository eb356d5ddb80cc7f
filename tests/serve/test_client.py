"""The blocking client: failures leave no socket behind."""

import gc
import warnings

import pytest

from repro.serve.client import ServeClient, ServeClientError


def test_polling_a_daemon_that_never_listens_leaks_no_socket(tmp_path):
    client = ServeClient(socket_path=str(tmp_path / "absent.sock"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ServeClientError):
            client.wait_ready(deadline_s=0.2, interval_s=0.01)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks
