"""The v1 certificate layout, rebuilt from a v2 payload (test-only).

v1 wrote every message and fragment out at each use; v2 stores each
once in the ``messages`` and ``fragments`` tables.  :func:`expand_to_v1`
undoes the tables, so the tests can feed published-format payloads to
the verifier's v1 adapter and compare v2 bytes with the committed v1
digests.
"""

import json


def expand_to_v1(payload):
    """The v1 payload of a v2 ``payload``: fresh records at every use.

    Nothing is shared between uses, so a test that edits one message
    record edits exactly that one.
    """
    messages = payload["messages"]
    fragments = payload["fragments"]

    def fragment(index):
        record = fragments[index]
        expanded = {"state": json.loads(json.dumps(record["state"]))}
        for field in ("sent", "send_omitted", "received", "receive_omitted"):
            expanded[field] = [
                json.loads(json.dumps(messages[ref])) for ref in record[field]
            ]
        return expanded

    v1 = {
        key: json.loads(json.dumps(value))
        for key, value in payload.items()
        if key not in ("messages", "fragments", "executions")
    }
    v1["schema"] = 1
    v1["executions"] = {
        label: {
            "format": 1,
            "n": record["n"],
            "t": record["t"],
            "faulty": list(record["faulty"]),
            "behaviors": [
                {
                    "fragments": [
                        fragment(index) for index in behavior["fragments"]
                    ],
                    "final_state": dict(behavior["final_state"]),
                }
                for behavior in record["behaviors"]
            ],
        }
        for label, record in payload["executions"].items()
    }
    return v1


def v1_bytes(payload):
    """The canonical v1 artifact bytes of a v2 ``payload``."""
    return json.dumps(expand_to_v1(payload), sort_keys=True).encode("utf-8")
