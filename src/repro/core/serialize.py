"""Artifact serialization for the staged compile pipeline.

Compiling a large matrix (CSD recoding + census) is the expensive step of
a deployment flow; serialization lets a build system compile once, store
the artifacts next to the generated RTL, and reload them for later
execution or analysis without recompiling — the same role a synthesis
checkpoint plays in the paper's Vivado flow.

Three artifact kinds, one per pipeline boundary (see ``docs/artifacts.md``):

* **plans** (:func:`plan_to_dict` / :func:`plan_from_dict`) — the
  recoded planes and width analysis, as JSON;
* **kernels** (:func:`kernel_to_npz` / :func:`kernel_from_npz`) — the
  lowered flat index arrays of a
  :class:`~repro.hwsim.fast.LoweredKernel`, as a compressed ``.npz``
  with an embedded JSON header; loading one skips netlist construction
  *and* lowering entirely;
* **fused kernels** (:func:`fused_to_npz` / :func:`fused_from_npz`) —
  the static CSD shift-add schedule of a
  :class:`~repro.hwsim.fused.FusedKernel` (flat ``(out, row, shift,
  sign)`` term arrays), same ``.npz`` layout; loading one also skips
  the ``fuse`` sweep, so a warm deploy of the cycle-loop-free engine is
  pure artifact I/O;
* **censuses** (:func:`census_to_dict` / :func:`census_from_dict`) — the
  combinatorial cost model, as JSON.

A fourth pair serves the network transport rather than the disk:
:func:`array_to_payload` / :func:`array_from_payload` canonicalize one
batch or result array into ``(meta, blob)`` wire form for the cluster
protocol (:mod:`repro.cluster.protocol`).  int64 arrays travel as raw
little-endian bytes; object-dtype arrays of exact Python integers (the
>62-bit result path) travel as the self-describing ``"bigint"`` codec —
fixed-width little-endian two's-complement limbs, width in the meta —
so nothing executable ever rides a frame.  The v1-era ``"pickle"``
codec is fully retired: its one-release decode shim was dropped with
protocol v3, and any frame presenting it is rejected as malformed; see
:data:`ARRAY_CODECS`.

Two content digests make the stored artifacts addressable:

* :func:`matrix_digest` — SHA-256 over the signed matrix's shape and
  canonical int64 bytes, identifying *what* is being compiled;
* :func:`plan_fingerprint` — SHA-256 over the canonical JSON form of a
  plan, identifying the *result* of a compilation (planes, widths, tree
  style).  Two plans with equal fingerprints build identical circuits,
  and a kernel artifact carries the fingerprint of the plan it was
  lowered from.

The serve layer's compile cache (:mod:`repro.serve.cache`) keys on the
matrix digest plus compile options; :attr:`CompiledCircuit.digest
<repro.hwsim.builder.CompiledCircuit.digest>` exposes the plan
fingerprint on compiled netlists.

Forward compatibility: every artifact embeds a ``format_version``.
Loaders raise ``ValueError`` on unknown versions (and on any structural
mismatch) rather than guessing; callers that can rebuild — the compile
cache — treat a load failure as a miss and recompile, so stale artifact
stores degrade to cold starts, never to wrong answers.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.plan import MatrixPlan
from repro.core.split import SplitMatrix
from repro.core.stats import CircuitCensus, PlaneCensus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hwsim imports core)
    from repro.hwsim.fast import LoweredKernel
    from repro.hwsim.fused import FusedKernel

__all__ = [
    "plan_to_dict",
    "plan_from_dict",
    "census_to_dict",
    "census_from_dict",
    "kernel_to_npz",
    "kernel_from_npz",
    "fused_to_npz",
    "fused_from_npz",
    "npz_header",
    "matrix_digest",
    "plan_fingerprint",
    "array_to_payload",
    "array_from_payload",
    "ARRAY_CODECS",
    "MAX_BIGINT_ITEMSIZE",
    "unique_tmp",
    "atomic_write_text",
    "KERNEL_FORMAT_VERSION",
    "FUSED_FORMAT_VERSION",
]

_FORMAT_VERSION = 1

#: Version of the ``.npz`` lowered-kernel artifact layout.  Bump on any
#: change to the header fields, array set, or engine semantics the
#: arrays encode; old readers must refuse newer artifacts.
KERNEL_FORMAT_VERSION = 1

#: Version of the ``.npz`` fused-kernel (shift-add schedule) layout.
#: Same bump policy as :data:`KERNEL_FORMAT_VERSION`.
FUSED_FORMAT_VERSION = 1

_KERNEL_KIND = "repro-lowered-kernel"
_FUSED_KIND = "repro-fused-kernel"


def plan_to_dict(plan: MatrixPlan) -> dict[str, Any]:
    """JSON-compatible representation of a compilation plan."""
    return {
        "format_version": _FORMAT_VERSION,
        "positive": plan.split.positive.tolist(),
        "negative": plan.split.negative.tolist(),
        "plane_width": plan.split.width,
        "scheme": plan.split.scheme,
        "input_width": plan.input_width,
        "nominal_weight_width": plan.nominal_weight_width,
        "result_width": plan.result_width,
        "tree_style": plan.tree_style,
    }


def plan_from_dict(data: dict[str, Any]) -> MatrixPlan:
    """Rebuild a plan from :func:`plan_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported plan format version: {version!r}")
    split = SplitMatrix(
        positive=np.asarray(data["positive"], dtype=np.int64),
        negative=np.asarray(data["negative"], dtype=np.int64),
        width=int(data["plane_width"]),
        scheme=str(data["scheme"]),
    )
    return MatrixPlan(
        split=split,
        input_width=int(data["input_width"]),
        nominal_weight_width=int(data["nominal_weight_width"]),
        result_width=int(data["result_width"]),
        tree_style=str(data["tree_style"]),
    )


def matrix_digest(matrix: np.ndarray) -> str:
    """Stable SHA-256 identity of a signed integer matrix.

    Canonicalized to C-ordered int64 before hashing so the digest does
    not depend on the caller's dtype, byte order, or array layout.
    """
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    h = hashlib.sha256()
    h.update(b"repro-matrix-v1:")
    h.update(np.array(arr.shape, dtype=np.int64).tobytes())
    h.update(arr.tobytes())
    return h.hexdigest()


def plan_fingerprint(plan: MatrixPlan) -> str:
    """Stable SHA-256 fingerprint of a compilation plan.

    Computed over the canonical JSON form of :func:`plan_to_dict`, so a
    plan and its serialize/deserialize round trip fingerprint identically,
    and any change to the planes, widths, or tree style changes the
    digest.  Exposed on compiled netlists as ``CompiledCircuit.digest``.
    """
    payload = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def unique_tmp(path: str | pathlib.Path) -> pathlib.Path:
    """A sibling temp-file name no concurrent writer will collide on.

    Atomic artifact writes are temp-file + ``os.replace``; a *shared*
    temp name (``<file>.tmp``) is only atomic against crashes, not
    against a second process writing the same artifact — both would
    truncate and interleave the same temp file.  Salting with the pid
    and a random token makes every writer's staging file private, so a
    shared artifact store (a shard-server fleet on one directory) is
    last-writer-wins, never corrupted.
    """
    path = pathlib.Path(path)
    token = os.urandom(4).hex()
    return path.with_name(f"{path.name}.{os.getpid()}.{token}.tmp")


def atomic_write_text(path: str | pathlib.Path, text: str) -> None:
    """Atomically publish ``text`` at ``path`` (private tmp + ``os.replace``)."""
    path = pathlib.Path(path)
    tmp = unique_tmp(path)
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _arrays_to_npz(
    artifact: Any,
    path: str | pathlib.Path,
    kind: str,
    version: int,
    extra: dict[str, Any] | None = None,
) -> None:
    """Shared ``.npz`` writer for flat-array artifacts (kernels, fused).

    Layout: one ``__header__`` entry holding a JSON string (format
    version, artifact kind, the plan fingerprint, and every scalar
    execution parameter) plus one named entry per artifact array (from
    the class's ``SCALAR_FIELDS``/``ARRAY_FIELDS`` contract).  ``extra``
    adds advisory metadata keys to the header (e.g. term statistics for
    the executor selector); readers ignore keys they do not require, so
    metadata additions never invalidate old artifacts.  The write
    is atomic (private temp file + rename, see :func:`unique_tmp`) so
    neither a crashed writer nor a concurrent one leaves a half-written
    artifact for a later reader to trip on.
    """
    path = pathlib.Path(path)
    header: dict[str, Any] = {"format_version": version, "kind": kind}
    for name in type(artifact).SCALAR_FIELDS:
        value = getattr(artifact, name)
        header[name] = value if isinstance(value, str) else int(value)
    if extra:
        header.update(extra)
    arrays = {name: getattr(artifact, name) for name in type(artifact).ARRAY_FIELDS}
    tmp = unique_tmp(path)
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, __header__=json.dumps(header), **arrays)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _arrays_from_npz(
    path: str | pathlib.Path, cls: type, kind: str, version: int
) -> Any:
    """Shared ``.npz`` reader; raises ``ValueError`` on anything that is
    not a well-formed artifact of ``kind`` at ``version`` — wrong kind,
    unknown ``format_version``, or missing entries — so callers can fall
    back to a rebuild instead of executing a misinterpreted artifact."""
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as data:
        if "__header__" not in data:
            raise ValueError(f"{path.name}: not a {kind} artifact (no header)")
        header = json.loads(str(data["__header__"][()]))
        if header.get("kind") != kind:
            raise ValueError(
                f"{path.name}: unexpected artifact kind {header.get('kind')!r}"
            )
        found = header.get("format_version")
        if found != version:
            raise ValueError(
                f"{path.name}: unsupported {kind} format version {found!r}"
            )
        fields: dict[str, Any] = {}
        for name in cls.SCALAR_FIELDS:
            if name not in header:
                raise ValueError(f"{path.name}: header missing {name!r}")
            fields[name] = header[name]
        for name in cls.ARRAY_FIELDS:
            if name not in data:
                raise ValueError(f"{path.name}: artifact missing array {name!r}")
            fields[name] = np.asarray(data[name], dtype=np.int64)
    fields["fingerprint"] = str(fields["fingerprint"])
    for name in cls.SCALAR_FIELDS:
        if name != "fingerprint":
            fields[name] = int(fields[name])
    return cls(**fields)


def kernel_to_npz(
    kernel: "LoweredKernel",
    path: str | pathlib.Path,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Persist a lowered kernel as a compressed ``.npz`` artifact.

    ``metadata`` adds advisory header keys, readable without loading
    arrays (see :func:`npz_header`).
    """
    _arrays_to_npz(kernel, path, _KERNEL_KIND, KERNEL_FORMAT_VERSION, extra=metadata)


def kernel_from_npz(path: str | pathlib.Path) -> "LoweredKernel":
    """Load a :func:`kernel_to_npz` artifact back into a ``LoweredKernel``."""
    from repro.hwsim.fast import LoweredKernel

    return _arrays_from_npz(path, LoweredKernel, _KERNEL_KIND, KERNEL_FORMAT_VERSION)


def fused_to_npz(fused: "FusedKernel", path: str | pathlib.Path) -> None:
    """Persist a fused shift-add schedule as a compressed ``.npz`` artifact.

    The header always carries the advisory ``term_count`` and
    ``term_density`` (terms over ``rows * cols``); artifacts written
    before this metadata existed simply lack the keys, and no reader
    depends on them.  The executor selector needs only
    ``result_width``, a scalar field of every fused header.
    """
    terms = len(fused.term_out)
    area = int(fused.rows) * int(fused.cols)
    _arrays_to_npz(
        fused,
        path,
        _FUSED_KIND,
        FUSED_FORMAT_VERSION,
        extra={
            "term_count": terms,
            "term_density": (terms / area) if area else 0.0,
        },
    )


def npz_header(path: str | pathlib.Path) -> dict[str, Any]:
    """The parsed JSON header of any flat-array ``.npz`` artifact.

    Cheap relative to loading the arrays; lets metadata consumers (the
    executor selector, fleet tooling) inspect ``kind``, widths, and
    term statistics without materializing the artifact.  Raises
    ``ValueError`` for files without a header.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as data:
        if "__header__" not in data:
            raise ValueError(f"{path.name}: not a flat-array artifact (no header)")
        return json.loads(str(data["__header__"][()]))


def fused_from_npz(path: str | pathlib.Path) -> "FusedKernel":
    """Load a :func:`fused_to_npz` artifact back into a ``FusedKernel``."""
    from repro.hwsim.fused import FusedKernel

    return _arrays_from_npz(path, FusedKernel, _FUSED_KIND, FUSED_FORMAT_VERSION)


# -- wire codecs (the cluster protocol's array frames) -----------------------

#: Wire codecs for one 2-D batch/result array.  ``"i64"`` is raw
#: little-endian int64 bytes (canonical, endian-stable across hosts);
#: ``"bigint"`` is the self-describing exact-integer form for >62-bit
#: results — fixed-width little-endian two's-complement limbs, the
#: per-element byte width carried in the meta — so a frame never embeds
#: anything executable.  The v1-era ``"pickle"`` codec is gone: its
#: decode-only rolling-upgrade shim rode exactly one release and was
#: removed with protocol v3, so a frame presenting it now fails decode
#: like any other unknown codec.
ARRAY_CODECS = ("i64", "bigint")

#: Cap on one ``"bigint"`` element's byte width: a plausibility bound a
#: decoder checks *before* allocating, so a corrupt or hostile meta
#: cannot demand absurd per-element widths (64 KiB ≈ a 524k-bit result,
#: far beyond any servable ``result_width``).
MAX_BIGINT_ITEMSIZE = 1 << 16


def array_to_payload(arr: np.ndarray) -> tuple[dict[str, Any], bytes]:
    """Canonical ``(meta, blob)`` wire form of a 2-D batch/result array.

    int64-representable arrays become raw little-endian bytes; anything
    carrying exact Python integers (object dtype, the >62-bit result
    path) becomes the ``"bigint"`` codec: every element encoded as
    ``itemsize`` little-endian two's-complement bytes, ``itemsize``
    (the smallest width that fits the widest element) recorded in the
    meta.  The inverse is :func:`array_from_payload`.
    """
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.dtype != object:
        canonical = np.ascontiguousarray(arr, dtype="<i8")
        return {"codec": "i64", "shape": list(arr.shape)}, canonical.tobytes()
    flat = [int(x) for x in arr.ravel()]
    # Smallest signed two's-complement width covering every element:
    # bit_length() excludes the sign bit, so one extra bit is always
    # needed (and -2**k fitting in k+1 bits just rounds up the same).
    itemsize = max(
        (x.bit_length() // 8 + 1 for x in flat),
        default=1,
    )
    if itemsize > MAX_BIGINT_ITEMSIZE:
        raise ValueError(
            f"bigint element needs {itemsize} bytes, over the "
            f"{MAX_BIGINT_ITEMSIZE}-byte cap"
        )
    blob = b"".join(x.to_bytes(itemsize, "little", signed=True) for x in flat)
    return {"codec": "bigint", "shape": list(arr.shape), "itemsize": itemsize}, blob


def array_from_payload(meta: dict[str, Any], blob: bytes) -> np.ndarray:
    """Rebuild the array of :func:`array_to_payload` output.

    Raises ``ValueError`` on unknown codecs or meta/blob disagreement —
    a malformed frame must fail the request, never decode into a
    plausible-but-wrong batch.  The v1-era ``"pickle"`` codec is no
    longer decoded (its one-release compatibility shim ended with
    protocol v3); such frames are rejected as unknown.
    """
    codec = meta.get("codec")
    try:
        shape = tuple(int(s) for s in meta["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed array payload meta: {meta!r}") from exc
    if len(shape) != 2 or any(s < 0 for s in shape):
        raise ValueError(f"array payload shape must be 2-D, got {shape}")
    count = shape[0] * shape[1]
    if codec == "i64":
        if len(blob) != count * 8:
            raise ValueError(
                f"i64 payload carries {len(blob)} bytes for shape {shape}"
            )
        flat = np.frombuffer(blob, dtype="<i8")
        return flat.astype(np.int64).reshape(shape)
    if codec == "bigint":
        try:
            itemsize = int(meta["itemsize"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"bigint payload meta lacks a valid itemsize: {meta!r}"
            ) from exc
        if not 1 <= itemsize <= MAX_BIGINT_ITEMSIZE:
            raise ValueError(f"bigint itemsize {itemsize} out of range")
        if len(blob) != count * itemsize:
            raise ValueError(
                f"bigint payload carries {len(blob)} bytes for shape "
                f"{shape} at itemsize {itemsize}"
            )
        out = np.empty(count, dtype=object)
        for i in range(count):
            out[i] = int.from_bytes(
                blob[i * itemsize : (i + 1) * itemsize], "little", signed=True
            )
        return out.reshape(shape)
    raise ValueError(f"unknown array codec {codec!r} (known: {ARRAY_CODECS})")


def census_to_dict(census: CircuitCensus) -> dict[str, Any]:
    """JSON-compatible representation of a circuit census."""
    def plane(p: PlaneCensus) -> dict[str, int]:
        return {
            "tree_adders": p.tree_adders,
            "tree_dffs": p.tree_dffs,
            "chain_adders": p.chain_adders,
            "chain_dffs": p.chain_dffs,
            "live_roots": p.live_roots,
        }

    return {
        "format_version": _FORMAT_VERSION,
        "rows": census.rows,
        "cols": census.cols,
        "input_width": census.input_width,
        "plane_width": census.plane_width,
        "result_width": census.result_width,
        "reference_depth": census.reference_depth,
        "tree_style": census.tree_style,
        "ones": census.ones,
        "positive": plane(census.positive),
        "negative": plane(census.negative),
        "subtractors": census.subtractors,
        "subtract_dffs": census.subtract_dffs,
        "negators": census.negators,
        "output_pad_dffs": census.output_pad_dffs,
    }


def census_from_dict(data: dict[str, Any]) -> CircuitCensus:
    """Rebuild a census from :func:`census_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported census format version: {version!r}")

    def plane(d: dict[str, int]) -> PlaneCensus:
        return PlaneCensus(
            tree_adders=int(d["tree_adders"]),
            tree_dffs=int(d["tree_dffs"]),
            chain_adders=int(d["chain_adders"]),
            chain_dffs=int(d["chain_dffs"]),
            live_roots=int(d["live_roots"]),
        )

    return CircuitCensus(
        rows=int(data["rows"]),
        cols=int(data["cols"]),
        input_width=int(data["input_width"]),
        plane_width=int(data["plane_width"]),
        result_width=int(data["result_width"]),
        reference_depth=int(data["reference_depth"]),
        tree_style=str(data["tree_style"]),
        ones=int(data["ones"]),
        positive=plane(data["positive"]),
        negative=plane(data["negative"]),
        subtractors=int(data["subtractors"]),
        subtract_dffs=int(data["subtract_dffs"]),
        negators=int(data["negators"]),
        output_pad_dffs=int(data["output_pad_dffs"]),
    )
