"""The fleet server's versioned wire contract: ``rolp-bench/server/v1``.

Every request and response body the server accepts or emits is written
down here as a JSON schema (a small, stable subset of JSON Schema —
``type`` / ``required`` / ``properties`` / ``additionalProperties`` /
``items`` / ``enum`` / ``minimum`` / ``pattern``), together with the
validator that enforces it.  The server validates requests against the
request schemas (a mismatch is a 400 with a reason slug, never a
traceback), and the protocol-conformance suite
(tests/test_server_protocol.py) validates every response — including
every error envelope — against the response schemas, so the wire format
cannot drift without a test catching it and a schema-version bump
making it explicit.

Error envelope::

    {"schema": "rolp-bench/server/v1",
     "error": {"status": 429, "reason": "queue-full",
               "detail": "admission queue at capacity (8)"}}

``reason`` is always one of :data:`REASONS` — machine-matchable slugs,
stable across releases of the same schema version.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Optional, Tuple

#: bump when any request/response shape changes incompatibly
SCHEMA = "rolp-bench/server/v1"

#: every error reason slug the server can emit, with its HTTP status.
#: The conformance suite asserts this table is stable.
REASONS: Dict[str, int] = {
    "malformed-body": 400,        # body is not a JSON object
    "invalid-field": 400,         # body failed schema validation
    "unknown-kind": 400,          # job names an unregistered cell kind
    "invalid-params": 400,        # params don't bind to the kind's signature
    "unknown-workload": 400,      # session/job names an unknown workload
    "unknown-collector": 400,     # session/job names an unknown collector
    "unknown-session": 404,       # no such (or already closed) session
    "unknown-endpoint": 404,      # no route matches the path
    "method-not-allowed": 405,    # route exists, verb does not
    "recording-disabled": 409,    # session created without a recorder
    "queue-full": 429,            # admission queue at capacity (backpressure)
    "timeout": 504,               # per-request deadline expired
    "internal-error": 500,        # cell execution failed
    "server-stopping": 503,       # accepted but abandoned during shutdown
}


class SchemaError(ValueError):
    """An instance failed schema validation; ``path`` locates the
    offending value (``$.params.operations``)."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__("%s: %s" % (path, message))


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(instance, schema: dict, path: str = "$") -> None:
    """Validate ``instance`` against ``schema``; raise
    :class:`SchemaError` at the first mismatch."""
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, (list, tuple)) else (expected,)
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            raise SchemaError(
                path,
                "expected %s, got %s" % ("|".join(types), type(instance).__name__),
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(path, "%r not in %r" % (instance, schema["enum"]))
    if "const" in schema and instance != schema["const"]:
        raise SchemaError(path, "%r != %r" % (instance, schema["const"]))
    if isinstance(instance, str) and "pattern" in schema:
        if not re.search(schema["pattern"], instance):
            raise SchemaError(
                path, "%r does not match /%s/" % (instance, schema["pattern"])
            )
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            raise SchemaError(path, "%r < minimum %r" % (instance, schema["minimum"]))
        if "maximum" in schema and instance > schema["maximum"]:
            raise SchemaError(path, "%r > maximum %r" % (instance, schema["maximum"]))
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in instance:
                raise SchemaError(path, "missing required property %r" % name)
        additional = schema.get("additionalProperties", True)
        for name, value in instance.items():
            if name in properties:
                validate(value, properties[name], "%s.%s" % (path, name))
            elif additional is False:
                raise SchemaError(path, "unexpected property %r" % name)
            elif isinstance(additional, dict):
                validate(value, additional, "%s.%s" % (path, name))
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            validate(item, schema["items"], "%s[%d]" % (path, index))


# ------------------------------------------------------------- request schemas

#: 16-hex fleet trace id (see repro.bench.runner.derive_trace_id)
_TRACE_ID = {"type": "string", "pattern": "^[0-9a-f]{16}$"}

SESSION_CREATE_REQUEST = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "workload": {"type": "string"},
        "collector": {"type": "string"},
        "operations": {"type": "integer", "minimum": 1},
        "ops_per_step": {"type": "integer", "minimum": 1},
        "idle_timeout_s": {"type": "number", "minimum": 0},
        "flight_recorder": {"type": "integer", "minimum": 1},
    },
}

JOB_REQUEST = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string"},
        "params": {"type": "object"},
    },
}

STEP_REQUEST = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "ops": {"type": "integer", "minimum": 1},
    },
}

REQUEST_SCHEMAS: Dict[str, dict] = {
    "session_create": SESSION_CREATE_REQUEST,
    "job": JOB_REQUEST,
    "step": STEP_REQUEST,
}


# ------------------------------------------------------------ response schemas

_SCHEMA_FIELD = {"type": "string", "const": SCHEMA}

ERROR_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "error"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "error": {
            "type": "object",
            "additionalProperties": False,
            "required": ["status", "reason", "detail"],
            "properties": {
                "status": {"type": "integer", "minimum": 400, "maximum": 599},
                "reason": {"type": "string", "enum": sorted(REASONS)},
                "detail": {"type": "string"},
            },
        },
    },
}

SESSION_OBJECT = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "id", "seq", "state", "workload", "collector", "operations",
        "ops_per_step", "steps", "jobs", "trace_id", "created_s",
        "idle_s", "recorder",
    ],
    "properties": {
        "id": {"type": "string", "pattern": "^s-[0-9]{6}$"},
        "seq": {"type": "integer", "minimum": 1},
        "state": {"type": "string", "enum": ["active"]},
        "workload": {"type": "string"},
        "collector": {"type": "string"},
        "operations": {"type": "integer", "minimum": 1},
        "ops_per_step": {"type": "integer", "minimum": 1},
        "steps": {"type": "integer", "minimum": 0},
        "jobs": {"type": "integer", "minimum": 0},
        "trace_id": _TRACE_ID,
        "created_s": {"type": "number"},
        "idle_s": {"type": "number", "minimum": 0},
        "recorder": {
            "type": ["object", "null"],
            "additionalProperties": {"type": "integer"},
        },
    },
}

SESSION_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "session"],
    "properties": {"schema": _SCHEMA_FIELD, "session": SESSION_OBJECT},
}

SESSION_LIST_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "count", "sessions"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "count": {"type": "integer", "minimum": 0},
        "sessions": {"type": "array", "items": SESSION_OBJECT},
    },
}

SESSION_CLOSED_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "closed"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "closed": {
            "type": "object",
            "additionalProperties": False,
            "required": ["id", "steps", "jobs", "trace_id"],
            "properties": {
                "id": {"type": "string"},
                "steps": {"type": "integer", "minimum": 0},
                "jobs": {"type": "integer", "minimum": 0},
                "trace_id": _TRACE_ID,
            },
        },
    },
}

#: the byte-identity surface: everything under ``job`` is a pure
#: function of (cell key, base seed) — no timing, no arrival order
JOB_OBJECT = {
    "type": "object",
    "additionalProperties": False,
    "required": ["cell_key", "kind", "seed", "trace_id", "fingerprint", "result"],
    "properties": {
        "cell_key": {"type": "string"},
        "kind": {"type": "string"},
        "seed": {"type": "integer"},
        "trace_id": _TRACE_ID,
        "fingerprint": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "result": {"type": "object"},
    },
}

JOB_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "job"],
    "properties": {"schema": _SCHEMA_FIELD, "job": JOB_OBJECT},
}

STEP_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "step", "job"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "step": {"type": "integer", "minimum": 0},
        "job": JOB_OBJECT,
    },
}

HEALTH_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "status", "accepting", "sessions_active", "queue_depth"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "status": {"type": "string", "enum": ["ok"]},
        "accepting": {"type": "boolean"},
        "sessions_active": {"type": "integer", "minimum": 0},
        "queue_depth": {"type": "integer", "minimum": 0},
    },
}

METRICS_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "sessions", "queue", "batcher", "metrics"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "sessions": {
            "type": "object",
            "additionalProperties": False,
            "required": ["active", "created", "closed", "reaped", "jobs", "steps"],
            "properties": {
                "active": {"type": "integer", "minimum": 0},
                "created": {"type": "integer", "minimum": 0},
                "closed": {"type": "integer", "minimum": 0},
                "reaped": {"type": "integer", "minimum": 0},
                "jobs": {"type": "integer", "minimum": 0},
                "steps": {"type": "integer", "minimum": 0},
            },
        },
        "queue": {
            "type": "object",
            "additionalProperties": False,
            "required": ["depth", "capacity", "accepted", "rejected"],
            "properties": {
                "depth": {"type": "integer", "minimum": 0},
                "capacity": {"type": "integer", "minimum": 1},
                "accepted": {"type": "integer", "minimum": 0},
                "rejected": {"type": "integer", "minimum": 0},
            },
        },
        "batcher": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "accepted",
                "rejected",
                "batches",
                "completed",
                "failed",
                "abandoned",
                "max_batch",
            ],
            "properties": {
                "accepted": {"type": "integer", "minimum": 0},
                "rejected": {"type": "integer", "minimum": 0},
                "batches": {"type": "integer", "minimum": 0},
                "completed": {"type": "integer", "minimum": 0},
                "failed": {"type": "integer", "minimum": 0},
                "abandoned": {"type": "integer", "minimum": 0},
                "max_batch": {"type": "integer", "minimum": 1},
            },
        },
        "metrics": {"type": "object"},
    },
}

RECORDING_RESPONSE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "session_id", "trace_id", "counters", "events"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "session_id": {"type": "string"},
        "trace_id": _TRACE_ID,
        "counters": {"type": "object", "additionalProperties": {"type": "integer"}},
        "events": {"type": "array", "items": {"type": "object"}},
    },
}

SCHEMA_RESPONSE = {
    "type": "object",
    "required": ["schema", "reasons", "requests", "responses"],
    "properties": {
        "schema": _SCHEMA_FIELD,
        "reasons": {"type": "object", "additionalProperties": {"type": "integer"}},
        "requests": {"type": "object"},
        "responses": {"type": "object"},
    },
}

RESPONSE_SCHEMAS: Dict[str, dict] = {
    "error": ERROR_RESPONSE,
    "health": HEALTH_RESPONSE,
    "job": JOB_RESPONSE,
    "metrics": METRICS_RESPONSE,
    "recording": RECORDING_RESPONSE,
    "schema": SCHEMA_RESPONSE,
    "session": SESSION_RESPONSE,
    "session_closed": SESSION_CLOSED_RESPONSE,
    "session_list": SESSION_LIST_RESPONSE,
    "step": STEP_RESPONSE,
}


# ---------------------------------------------------------------- envelopes

def envelope(key: str, payload) -> Dict[str, object]:
    """A success envelope: ``{"schema": ..., key: payload}``."""
    return {"schema": SCHEMA, key: payload}


def error_envelope(reason: str, detail: str) -> Tuple[int, Dict[str, object]]:
    """``(status, body)`` for an error ``reason`` slug."""
    status = REASONS[reason]
    return status, {
        "schema": SCHEMA,
        "error": {"status": status, "reason": reason, "detail": detail},
    }


def schema_document() -> Dict[str, object]:
    """The self-describing ``GET /v1/schema`` payload."""
    return {
        "schema": SCHEMA,
        "reasons": dict(REASONS),
        "requests": {name: REQUEST_SCHEMAS[name] for name in sorted(REQUEST_SCHEMAS)},
        "responses": {
            name: RESPONSE_SCHEMAS[name] for name in sorted(RESPONSE_SCHEMAS)
        },
    }


def classify_response(body: dict) -> Optional[str]:
    """Which response schema a body should validate against (by its
    envelope key), or ``None`` if it carries no recognised envelope."""
    if not isinstance(body, dict):
        return None
    if "error" in body:
        return "error"
    if "sessions" in body and "count" in body:
        return "session_list"
    if "session" in body:
        return "session"
    if "closed" in body:
        return "session_closed"
    if "step" in body and "job" in body:
        return "step"
    if "job" in body:
        return "job"
    if "status" in body and "accepting" in body:
        return "health"
    if "batcher" in body:
        return "metrics"
    if "events" in body:
        return "recording"
    if "responses" in body:
        return "schema"
    return None


def check_response(body: dict) -> str:
    """Validate a response body against the schema its shape names;
    returns the schema name.  The conformance suite calls this on every
    response the server produces."""
    name = classify_response(body)
    if name is None:
        raise SchemaError("$", "response matches no known envelope: %r" % sorted(body))
    validate(body, RESPONSE_SCHEMAS[name])
    return name


def iter_schemas() -> Iterable[Tuple[str, dict]]:
    for name in sorted(REQUEST_SCHEMAS):
        yield "request:" + name, REQUEST_SCHEMAS[name]
    for name in sorted(RESPONSE_SCHEMAS):
        yield "response:" + name, RESPONSE_SCHEMAS[name]
