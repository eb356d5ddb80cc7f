"""The blocking client: kept connections, and no socket left behind."""

import gc
import itertools
import json
import socket
import socketserver
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.config import ServeConfig
from tests.serve.helpers import DaemonHarness, wait_until


def test_polling_a_daemon_that_never_listens_leaks_no_socket(tmp_path):
    client = ServeClient(socket_path=str(tmp_path / "absent.sock"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ServeClientError):
            client.wait_ready(deadline_s=0.2, interval_s=0.01)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks


class FakeDaemon(socketserver.ThreadingMixIn,
                 socketserver.UnixStreamServer):
    """Answers every request 200 with its connection's number, on kept
    connections; ``drop()`` closes them all, ``drop_at_accept`` closes
    each new one unanswered, and ``barrier`` holds every answer until
    that many requests wait."""

    daemon_threads = True

    def __init__(self, path):
        super().__init__(path, _FakeHandler)
        self.numbers = itertools.count(1)
        self.accepted = 0
        self.open = {}
        self.drop_at_accept = False
        self.barrier = None
        threading.Thread(target=self.serve_forever, args=(0.05,),
                         daemon=True).start()

    def drop(self):
        for conn in list(self.open.values()):
            conn.shutdown(socket.SHUT_RDWR)
        assert wait_until(lambda: not self.open)

    def stop(self):
        self.drop()
        self.shutdown()
        self.server_close()


class _FakeHandler(socketserver.StreamRequestHandler):
    def handle(self):
        fake = self.server
        fake.accepted += 1
        if fake.drop_at_accept:
            return
        number = next(fake.numbers)
        fake.open[number] = self.connection
        try:
            while True:
                line = self.rfile.readline()
                if not line:
                    return
                length = 0
                for header in iter(self.rfile.readline, b"\r\n"):
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                self.rfile.read(length)
                if fake.barrier is not None:
                    fake.barrier.wait(timeout=10.0)
                body = json.dumps({"connection": number}).encode()
                self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                                 b"%d\r\n\r\n" % len(body) + body)
        except OSError:
            return
        finally:
            del fake.open[number]


@pytest.fixture
def fake(tmp_path):
    server = FakeDaemon(str(tmp_path / "fake.sock"))
    yield server
    server.stop()


def _client(fake):
    return ServeClient(socket_path=fake.server_address, timeout=10.0)


def test_sequential_requests_share_one_connection(tmp_path):
    config = ServeConfig(socket=str(tmp_path / "serve.sock"), jobs=1,
                         state_dir=str(tmp_path / "state"))
    with DaemonHarness(config) as client:
        before = client.stats().body["counters"]["serve.connections"]
        assert client.profile(["addq %rax, %rbx"]).status == 200
        assert client.health().status == 200
        after = client.stats().body["counters"]["serve.connections"]
        assert len(client._idle) == 1
    assert after == before


def test_concurrent_requests_each_get_their_own_connection(fake):
    fake.barrier = threading.Barrier(3)
    client = _client(fake)
    with ThreadPoolExecutor(3) as pool:
        answers = list(pool.map(lambda _: client.health(), range(3)))
    assert sorted(a.body["connection"] for a in answers) == [1, 2, 3]
    assert len(client._idle) == 3
    fake.barrier = None
    # Each idle connection is reused, none opened anew.
    assert {client.health().body["connection"] for _ in range(3)} \
        <= {1, 2, 3}
    assert fake.accepted == 3
    client.close()


def test_connection_closed_while_idle_is_replaced_once(fake):
    client = _client(fake)
    assert client.health().body["connection"] == 1
    fake.drop()
    # The kept connection fails before its first response byte; the
    # request goes once more over a fresh one, unseen by the caller.
    assert client.health().body["connection"] == 2
    assert client.health().body["connection"] == 2
    assert fake.accepted == 2
    client.close()


def test_failure_on_a_fresh_connection_raises(fake):
    fake.drop_at_accept = True
    client = _client(fake)
    with pytest.raises(ServeClientError):
        client.health()
    assert fake.accepted == 1  # no second try on a fresh connection
    # A stale kept connection is retried once, and only once.
    fake.drop_at_accept = False
    assert client.health().status == 200
    fake.drop_at_accept = True
    fake.drop()
    with pytest.raises(ServeClientError):
        client.health()
    assert fake.accepted == 3
    assert client._idle == []


def test_close_and_with_close_every_socket(fake):
    fake.barrier = threading.Barrier(2)
    client = _client(fake)
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda _: client.health(), range(2)))
    fake.barrier = None
    kept = list(client._idle)
    assert len(kept) == 2
    client.close()
    assert client._idle == []
    assert all(sock.fileno() == -1 for sock in kept)
    assert wait_until(lambda: not fake.open)
    # A closed client still answers, but keeps no connection.
    assert client.health().status == 200
    assert client._idle == []
    with _client(fake) as scoped:
        assert scoped.health().status == 200
        kept = list(scoped._idle)
    assert [sock.fileno() for sock in kept] == [-1]


def test_a_dropped_client_closes_its_sockets(fake):
    client = _client(fake)
    assert client.health().status == 200
    assert fake.open
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del client
        gc.collect()
    assert not [w for w in caught
                if issubclass(w.category, ResourceWarning)]
    assert wait_until(lambda: not fake.open)
