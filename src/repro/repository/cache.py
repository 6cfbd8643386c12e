"""Disk-persistent, content-addressed cache of compiled objects.

The paper's repository "can be saved to disk and reloaded in later
sessions", which is what makes speculative compile time disappear
entirely on the second launch: the compiled code already exists, so a
warm session compiles *zero* functions.  This module supplies that
persistence layer for :class:`~repro.repository.repo.CodeRepository`.

Content addressing
------------------
An entry's key is a SHA-256 over everything that could change the
generated code:

* the **compiler version** (:data:`CACHE_FORMAT_VERSION` plus the package
  version) — a new compiler silently invalidates every old entry;
* the **prepared source text** of the function (pretty-printed *after*
  inlining, so an edit to an inlined callee changes the caller's key too);
* the **type-disambiguation signature** of the compile — the invocation
  signature for JIT compiles, the compile mode tag for speculative ones
  (a speculative compile derives its signature itself, so the mode is the
  only pre-compile discriminator);
* a fingerprint of the **codegen options** (platform/ablation knobs).

Keys never collide across sessions with different compilers, sources or
options; identical sessions deterministically share entries.

Serialization
-------------
A :class:`~repro.codegen.jitgen.CompiledObject` is pickled with its
emitted host callable stripped (functions built by ``exec`` cannot be
pickled); loading re-``exec``-utes the stored generated source to rebuild
the callable.  Loads are *paranoid*: any failure — corrupt file, stale
pickle, injected fault — is treated as a miss, recorded, and the entry
deleted, never raised into the session.

Self-healing (format 2)
-----------------------
Entries are *framed*: a magic + format-version header and a SHA-256
digest of the payload precede the pickle.  A load that fails the frame
check (torn write, bit rot, version mismatch, truncation) is detected
*before* ``pickle`` ever sees attacker-shaped bytes, counted in
``corruption_detected``, and the key is **quarantined**: the file is
deleted and the key remembered so repeated lookups short-circuit to a
miss without touching disk.  A later successful :meth:`put` of the same
key — the rebuild after recompilation — lifts the quarantine.  Transient
``OSError`` faults retry with exponential backoff before giving up.

Eviction
--------
The repository's deopt/quarantine machinery calls :meth:`evict` whenever
it removes a compiled version, so a cached miscompile that crashed once
can never resurrect in a later session.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.codegen.jitgen import CompiledObject
from repro.faults.plan import (
    InjectedFault,
    SITE_CACHE_CORRUPT,
    SITE_CACHE_PARTIAL,
)
from repro.frontend.pretty import pretty_function

#: Bumped whenever the pickle layout or keying scheme changes.  Format 2
#: introduced the integrity frame (magic + digest header).
CACHE_FORMAT_VERSION = "2"

#: Frame header magic; the version digit follows so a stale-format entry
#: is distinguishable from garbage.
FRAME_MAGIC = b"MAJC"


class CacheCorruption(Exception):
    """An entry's bytes failed the integrity frame (never user-visible)."""

#: Default cache location when a session asks for persistence without
#: naming a directory (``MajicSession(cache_dir=True)``).
DEFAULT_CACHE_DIR = "~/.pymajic/cache"


def compiler_version() -> str:
    from repro import __version__

    return f"{__version__}+fmt{CACHE_FORMAT_VERSION}"


def options_fingerprint(jit_options, src_options) -> str:
    """A stable digest of every codegen knob that shapes emitted code."""
    return repr((jit_options, src_options))


def cache_key(source_text: str, signature: object, fingerprint: str) -> str:
    """Content address of one compile.

    ``signature`` is the type-disambiguation component: the invocation
    signature for a JIT compile, or the mode tag for a speculative one.
    """
    digest = hashlib.sha256()
    for part in (compiler_version(), source_text, str(signature), fingerprint):
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def function_source_text(fn) -> str:
    """Canonical (pretty-printed) source of a prepared FunctionDef."""
    return pretty_function(fn)


def serialize_payload(value) -> bytes:
    """The cache's wire format for arbitrary runtime values (MxArrays,
    signatures, annotations): a plain pickle at the highest protocol."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_payload(payload: bytes):
    return pickle.loads(payload)


def frame_payload(payload: bytes) -> bytes:
    """Wrap a pickle in the integrity frame:
    ``MAJC<version>\\n<sha256-hex>\\n<payload>``."""
    digest = hashlib.sha256(payload).hexdigest()
    header = FRAME_MAGIC + CACHE_FORMAT_VERSION.encode("ascii")
    return header + b"\n" + digest.encode("ascii") + b"\n" + payload


def unframe_payload(data: bytes) -> bytes:
    """Validate the frame and return the payload; raise
    :class:`CacheCorruption` on any mismatch (truncation, garbage,
    stale format, digest failure)."""
    head, sep, rest = data.partition(b"\n")
    if not sep or not head.startswith(FRAME_MAGIC):
        raise CacheCorruption("missing or mangled frame header")
    version = head[len(FRAME_MAGIC):]
    if version != CACHE_FORMAT_VERSION.encode("ascii"):
        raise CacheCorruption(
            f"stale cache format {version!r} (want {CACHE_FORMAT_VERSION!r})"
        )
    digest, sep, payload = rest.partition(b"\n")
    if not sep:
        raise CacheCorruption("truncated frame (no digest separator)")
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CacheCorruption("payload digest mismatch (torn write or bit rot)")
    return payload


def serialize_object(obj: CompiledObject) -> bytes:
    """Pickle a compiled object with its host callable stripped."""
    stripped = replace(obj, emitted=replace(obj.emitted, callable=None))
    return serialize_payload(stripped)


def deserialize_object(payload: bytes) -> CompiledObject:
    """Unpickle and revive: re-exec the generated source for the callable."""
    obj = deserialize_payload(payload)
    namespace: dict = {}
    code = compile(obj.emitted.source, f"<cache:{obj.name}>", "exec")
    exec(code, namespace)
    obj.emitted.callable = namespace[obj.emitted.name]
    # Revive any fused kernels the emitted code references so the
    # ``rt.kernel_<hash>`` dispatch never misses in a fresh process.
    kernel_sources = getattr(obj, "kernel_sources", None)
    if kernel_sources:
        from repro.kernels.cache import KERNEL_CACHE

        # kernel_keys arrived with the native tier; older pickles lack it
        # (revived kernels then simply stay on the Python tier).
        kernel_keys = getattr(obj, "kernel_keys", None) or {}
        for kernel, source in kernel_sources.items():
            KERNEL_CACHE.register_source(
                kernel, source, key=kernel_keys.get(kernel, "")
            )
    return obj


class RepositoryCache:
    """One directory of content-addressed compiled objects.

    Thread-safe: background speculation workers store entries while the
    foreground session loads them.  Writes are atomic (tempfile +
    ``os.replace``) so a crashed session never leaves a torn entry.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fault_plan=None,
        io_retries: int = 3,
        io_backoff: float = 0.005,
        diagnostics=None,
    ):
        self.directory = Path(os.path.expanduser(os.fspath(directory)))
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fault_plan = fault_plan
        self.io_retries = max(0, int(io_retries))
        self.io_backoff = io_backoff
        self.diagnostics = diagnostics
        self._lock = threading.Lock()
        self._quarantined: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.load_failures = 0
        self.corruption_detected = 0
        self.io_retried = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    def _diag(self, kind: str, name: str, detail: str, cause=None) -> None:
        if self.diagnostics is not None:
            try:
                self.diagnostics.record(kind, name, detail=detail, cause=cause)
            except Exception:  # noqa: BLE001 - healing must not depend on logging
                pass

    def _read_with_retry(self, path: Path, key: str) -> bytes:
        """Read entry bytes, retrying transient IO faults with backoff.

        ``FileNotFoundError`` (a plain miss) propagates immediately; any
        other ``OSError`` is presumed transient — NFS hiccup, AV scanner
        holding the file — and retried ``io_retries`` times.
        """
        attempt = 0
        while True:
            try:
                if self.fault_plan is not None:
                    # The injected transient-IO site rides the load site
                    # with BEHAVIOR_IO; a classic raise-behaviour spec on
                    # "cache.load" still models a hard load fault.
                    self.fault_plan.check("cache.load", key[:12])
                return path.read_bytes()
            except FileNotFoundError:
                raise
            except OSError as exc:
                if attempt >= self.io_retries:
                    raise
                delay = self.io_backoff * (2 ** attempt)
                attempt += 1
                with self._lock:
                    self.io_retried += 1
                from repro.repository.diagnostics import CACHE_RETRY

                self._diag(
                    CACHE_RETRY, key[:12],
                    f"transient IO fault on load; retry {attempt}/"
                    f"{self.io_retries} after {delay:.4f}s", cause=exc,
                )
                time.sleep(delay)

    def _quarantine(self, key: str, path: Path, cause) -> None:
        """Drop a corrupt entry and remember the key until it is rebuilt."""
        with self._lock:
            self.misses += 1
            self.load_failures += 1
            self.corruption_detected += 1
            self._quarantined.add(key)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass
        from repro.repository.diagnostics import CACHE_CORRUPT

        self._diag(
            CACHE_CORRUPT, key[:12],
            "corrupt entry quarantined; will rebuild on next store",
            cause=cause,
        )

    @property
    def quarantined_keys(self) -> set[str]:
        with self._lock:
            return set(self._quarantined)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    # ------------------------------------------------------------------
    def get(self, key: str) -> CompiledObject | None:
        """Load one entry; any failure is a recorded miss, never a raise."""
        with self._lock:
            if key in self._quarantined:
                # Known-bad until rebuilt: skip the disk round trip.
                self.misses += 1
                return None
        path = self._path(key)
        try:
            data = self._read_with_retry(path, key)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            # Retries exhausted on a transient fault: a miss, but the
            # file itself may be fine — leave it for the next session.
            with self._lock:
                self.misses += 1
                self.load_failures += 1
            return None
        except Exception:  # noqa: BLE001 - injected hard load fault
            with self._lock:
                self.misses += 1
                self.load_failures += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        if self.fault_plan is not None:
            # Corruption model: the bytes read back are not the bytes
            # written.  Mangling happens here, after the real read, so
            # the frame check below is what detects it — same code path
            # a real torn write or bit rot would take.
            data = self.fault_plan.filter_bytes(SITE_CACHE_CORRUPT, key[:12], data)
        try:
            payload = unframe_payload(data)
            obj = deserialize_object(payload)
        except Exception as exc:  # noqa: BLE001 - corrupt entry: heal, don't raise
            self._quarantine(key, path, exc)
            return None
        obj.cache_key = key
        with self._lock:
            self.hits += 1
        return obj

    def put(self, key: str, obj: CompiledObject) -> bool:
        """Persist one entry atomically; failures are recorded, not raised."""
        try:
            if self.fault_plan is not None:
                self.fault_plan.check("cache.store", obj.name)
            framed = frame_payload(serialize_object(obj))
            if self.fault_plan is not None and self.fault_plan.fires(
                SITE_CACHE_PARTIAL, key[:12]
            ):
                # A writer that died mid-write, bypassing the atomic
                # rename: half a frame lands at the final path.  The
                # digest check catches it on the next load.
                self._path(key).write_bytes(framed[: max(1, len(framed) // 2)])
                return True
            self._write_with_retry(framed, key)
        except Exception:  # noqa: BLE001 - persistence is best-effort
            return False
        obj.cache_key = key
        with self._lock:
            self.stores += 1
            if key in self._quarantined:
                # The rebuild: a fresh compile re-persisted over a
                # quarantined key lifts the quarantine.
                self._quarantined.discard(key)
                self.rebuilds += 1
        return True

    def _write_with_retry(self, framed: bytes, key: str) -> None:
        """Atomic tempfile+rename write with transient-IO retries."""
        attempt = 0
        while True:
            try:
                fd, tmp = tempfile.mkstemp(
                    dir=self.directory, prefix=".tmp-", suffix=".pkl"
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(framed)
                    os.replace(tmp, self._path(key))
                    return
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError as exc:
                if attempt >= self.io_retries:
                    raise
                delay = self.io_backoff * (2 ** attempt)
                attempt += 1
                with self._lock:
                    self.io_retried += 1
                from repro.repository.diagnostics import CACHE_RETRY

                self._diag(
                    CACHE_RETRY, key[:12],
                    f"transient IO fault on store; retry {attempt}/"
                    f"{self.io_retries} after {delay:.4f}s", cause=exc,
                )
                time.sleep(delay)

    def evict(self, key: str) -> bool:
        """Remove one entry (a quarantined crasher must not resurrect)."""
        try:
            self._path(key).unlink()
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Generic blobs (tiering profiles and other non-CompiledObject state)
    # ------------------------------------------------------------------
    def _blob_path(self, key: str) -> Path:
        return self.directory / f"{key}.blob"

    def get_blob(self, key: str):
        """Load an arbitrary pickled value stored with :meth:`put_blob`.

        Same integrity frame as compiled objects; any failure (missing,
        torn, corrupt) is a ``None``, never a raise — a lost profile only
        costs a warmup ramp, so it shares the cache's best-effort stance.
        """
        path = self._blob_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return deserialize_payload(unframe_payload(data))
        except Exception as exc:  # noqa: BLE001 - corrupt blob: drop it
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            self._diag(
                "cache_corrupt", key[:12],
                "corrupt blob entry dropped", cause=exc,
            )
            return None

    def put_blob(self, key: str, value) -> bool:
        """Persist an arbitrary picklable value atomically (best-effort)."""
        try:
            framed = frame_payload(serialize_payload(value))
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".blob"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(framed)
                os.replace(tmp, self._blob_path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:  # noqa: BLE001 - persistence is best-effort
            return False
        return True

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for pattern in ("*.pkl", "*.blob"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
