"""JSON schema of `report.json`, and its check.

The program does not validate its own output at run time; the test suite
checks every report it builds against this schema (see conftest.py).
"""

import functools

from jsonschema import validators

_number_or_null = {"type": ["number", "null"]}

_tail_fit_schema = {
    "type": ["object", "null"],
    "properties": {
        "alpha": {"type": "number"},
        "stderr": {"type": "number"},
        "k": {"type": "integer"},
        "n": {"type": "integer"},
    },
    "required": ["alpha", "stderr", "k", "n"],
}


def _null_stats_schema(nullable: bool = False, **counters: dict) -> dict:
    return {
        "type": ["object", "null"] if nullable else "object",
        "properties": {
            "mean": {"type": "number"},
            "ci95_low": {"type": "number"},
            "ci95_high": {"type": "number"},
            "replicas": {"type": "integer"},
            **counters,
        },
        "required": ["mean", "ci95_low", "ci95_high", "replicas", *counters],
    }


_assort_schema = {
    "type": ["object", "null"],
    "properties": {
        "attribute": {"type": "string"},
        "r": {"type": "number"},
        "null_rewire": _null_stats_schema(acceptance={"type": "number"},
                                          lag1=_number_or_null),
        "null_shuffle": _null_stats_schema(nullable=True,
                                           undefined={"type": "integer"}),
    },
    "required": ["attribute", "r", "null_rewire", "null_shuffle"],
}

_asset_schema = {
    "type": "object",
    "properties": {
        "error": {"type": "string"},
        "tail_fit": _tail_fit_schema,
        "opd_tail_fit": _tail_fit_schema,
        "meso": {
            "type": "object",
            "properties": {"long": _number_or_null, "short": _number_or_null},
            "required": ["long", "short"],
        },
        "network": {
            "type": "object",
            "properties": {
                "nodes": {"type": "integer"},
                "edges": {"type": "integer"},
                "isolated": {"type": "integer"},
                "modularity": _number_or_null,
                "diagnostics": {"type": "object"},
            },
            "required": ["nodes", "edges", "isolated", "modularity"],
        },
        "assortativity": {
            "type": "object",
            "properties": {"rho_ov": _assort_schema, "opd": _assort_schema},
            "required": ["rho_ov", "opd"],
        },
        "polarization": {
            "type": ["object", "null"],
            "properties": {
                "mean": {"type": "number"},
                "variance": {"type": "number"},
                "mode_bin": {"type": "number"},
                "shuffled_variance": {"type": "number"},
                "variance_ratio": {"type": "number"},
                "scored": {"type": "integer"},
                "excluded": {"type": "integer"},
            },
            "required": ["mean", "variance", "variance_ratio"],
        },
        "population": {"type": "object"},
        "notes": {"type": "object"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"type": "string"},
        "run": {
            "type": "object",
            "properties": {
                "seed": {"type": "integer"},
                "config_digest": {"type": "string"},
                "defaults": {"type": "object"},
                "trade_rejects": {"type": "integer"},
                "trade_rejects_by_reason": {"type": "object",
                                            "additionalProperties": {"type": "integer"}},
            },
            "required": ["seed", "config_digest", "defaults", "trade_rejects",
                         "trade_rejects_by_reason"],
        },
        "assets": {
            "type": "object",
            "additionalProperties": _asset_schema,
        },
    },
    "required": ["version", "run", "assets"],
}


@functools.cache
def _validator():
    # checking the schema itself on every report would cost far more than
    # validating the report
    return validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


def validate_report(report: dict) -> None:
    """Raise jsonschema.ValidationError when `report` breaks REPORT_SCHEMA."""
    _validator().validate(report)
