"""Built-in worked examples with golden expected values.

The examples are data.  Each of the two constraint suites (the paper's
sources and the general sources) is one record mapping every expectation
(classic, rows, S3 sums, uncompressed, compressed) to a dict keyed by
model; a model missing from an expectation is not checked there.
`RUNNERS` maps each example ID, in `reproduce`'s order, to the runner that
rebuilds its inputs, runs the advertised rule and compares the outcome to
the golden values.  Golden values are rounded to 2 to 4 decimals, hence
the 5e-5 comparison tolerance.  The reproduce CLI command renders the
report's lines and its PASS/FAIL verdict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from math import fsum

from .bba import MassAssignment
from .dynamic import run_session, stages_from
from .errors import FullContradiction
from .exprparse import _parse_or_empty, parse
from .lattice import Frame, build_frame
from .model import build_model, compress, shafer_model, survivors
from .render import breakdown_lines, column_totals, compressed_lines, mass_lines
from .rules import dempster, dsm_classic, dsm_hybrid

TOLERANCE = 5e-5

# The 19 elements of the n=3 hyper-power set, EMPTY first, intersections
# before singletons before unions.
ELEMENTS_3 = (
    "EMPTY",
    "t1&t2&t3",
    "t2&t3",
    "t1&t3",
    "(t1|t2)&t3",
    "t3",
    "t1&t2",
    "(t1|t3)&t2",
    "(t2|t3)&t1",
    "((t1&t2)|t3)&(t1|t2)",
    "(t1&t2)|t3",
    "t2",
    "(t1&t3)|t2",
    "t2|t3",
    "t1",
    "(t2&t3)|t1",
    "t1|t3",
    "t1|t2",
    "t1|t2|t3",
)

# Two-source inputs driving the seven constraint examples.
SOURCES_3 = (
    {"t1&t3": 0.10, "t3": 0.30, "t1&t2": 0.10, "t2": 0.20,
     "t1": 0.10, "t1|t3": 0.10, "t1|t2": 0.10},
    {"t2&t3": 0.20, "t3": 0.10, "t1&t2": 0.20, "t2": 0.10,
     "t1": 0.20, "t1|t3": 0.20},
)

CLASSIC_3 = {
    "t1&t2&t3": 0.16, "t2&t3": 0.19, "t1&t3": 0.12, "(t1|t2)&t3": 0.01,
    "t3": 0.10, "t1&t2": 0.22, "(t1|t3)&t2": 0.05, "(t2|t3)&t1": 0.00,
    "((t1&t2)|t3)&(t1|t2)": 0.00, "(t1&t2)|t3": 0.00, "t2": 0.03,
    "(t1&t3)|t2": 0.00, "t2|t3": 0.00, "t1": 0.08, "(t2&t3)|t1": 0.02,
    "t1|t3": 0.02, "t1|t2": 0.00, "t1|t2|t3": 0.00,
}

MODEL_CONSTRAINTS = {
    "m1": ("t1&t2&t3",),
    "m2": ("t1&t2",),
    "m3": ("(t1|t3)&t2",),
    "m4": ("((t1&t2)|t3)&(t1|t2)",),
    "m5": ("t1",),
    "m6": ("t1", "t2"),
    "m7": ("(t1&t2)|t3",),
}

# Full per-row tables (phi, S1, S2, S3, m) for the first four models, the
# constrained rows included (m2's t1&t2 row keeps its pre-transfer S1=0.22
# and the all-empty-pair S3=0.02, which the 0.38 column total needs).
HYBRID_ROWS = {
    "m1": {
        "EMPTY": (0, 0, 0, 0, 0),
        "t1&t2&t3": (0, 0.16, 0, 0, 0),
        "t2&t3": (1, 0.19, 0, 0, 0.19),
        "t1&t3": (1, 0.12, 0, 0, 0.12),
        "(t1|t2)&t3": (1, 0.01, 0, 0.02, 0.03),
        "t3": (1, 0.10, 0, 0, 0.10),
        "t1&t2": (1, 0.22, 0, 0, 0.22),
        "(t1|t3)&t2": (1, 0.05, 0, 0.02, 0.07),
        "(t2|t3)&t1": (1, 0, 0, 0.02, 0.02),
        "((t1&t2)|t3)&(t1|t2)": (1, 0, 0, 0, 0),
        "(t1&t2)|t3": (1, 0, 0, 0.07, 0.07),
        "t2": (1, 0.03, 0, 0, 0.03),
        "(t1&t3)|t2": (1, 0, 0, 0.01, 0.01),
        "t2|t3": (1, 0, 0, 0, 0),
        "t1": (1, 0.08, 0, 0, 0.08),
        "(t2&t3)|t1": (1, 0.02, 0, 0.02, 0.04),
        "t1|t3": (1, 0.02, 0, 0, 0.02),
        "t1|t2": (1, 0, 0, 0, 0),
        "t1|t2|t3": (1, 0, 0, 0, 0),
    },
    "m2": {
        "EMPTY": (0, 0, 0, 0, 0),
        "t1&t2&t3": (0, 0.16, 0, 0, 0),
        "t2&t3": (1, 0.19, 0, 0, 0.19),
        "t1&t3": (1, 0.12, 0, 0, 0.12),
        "(t1|t2)&t3": (1, 0.01, 0, 0.02, 0.03),
        "t3": (1, 0.10, 0, 0, 0.10),
        "t1&t2": (0, 0.22, 0, 0.02, 0),
        "(t1|t3)&t2": (1, 0.05, 0, 0.02, 0.07),
        "(t2|t3)&t1": (1, 0, 0, 0.02, 0.02),
        "((t1&t2)|t3)&(t1|t2)": (1, 0, 0, 0, 0),
        "(t1&t2)|t3": (1, 0, 0, 0.07, 0.07),
        "t2": (1, 0.03, 0, 0.05, 0.08),
        "(t1&t3)|t2": (1, 0, 0, 0.01, 0.01),
        "t2|t3": (1, 0, 0, 0, 0),
        "t1": (1, 0.08, 0, 0.04, 0.12),
        "(t2&t3)|t1": (1, 0.02, 0, 0.02, 0.04),
        "t1|t3": (1, 0.02, 0, 0.04, 0.06),
        "t1|t2": (1, 0, 0.02, 0.07, 0.09),
        "t1|t2|t3": (1, 0, 0, 0, 0),
    },
    "m3": {
        "EMPTY": (0, 0, 0, 0, 0),
        "t1&t2&t3": (0, 0.16, 0, 0, 0),
        "t2&t3": (0, 0.19, 0, 0, 0),
        "t1&t3": (1, 0.12, 0, 0, 0.12),
        "(t1|t2)&t3": (1, 0.01, 0, 0.02, 0.03),
        "t3": (1, 0.10, 0, 0.06, 0.16),
        "t1&t2": (0, 0.22, 0, 0.02, 0),
        "(t1|t3)&t2": (0, 0.05, 0, 0.02, 0),
        "(t2|t3)&t1": (1, 0, 0, 0.02, 0.02),
        "((t1&t2)|t3)&(t1|t2)": (1, 0, 0, 0, 0),
        "(t1&t2)|t3": (1, 0, 0, 0.07, 0.07),
        "t2": (1, 0.03, 0, 0.09, 0.12),
        "(t1&t3)|t2": (1, 0, 0, 0.01, 0.01),
        "t2|t3": (1, 0, 0, 0.05, 0.05),
        "t1": (1, 0.08, 0, 0.04, 0.12),
        "(t2&t3)|t1": (1, 0.02, 0, 0.02, 0.04),
        "t1|t3": (1, 0.02, 0, 0.06, 0.08),
        "t1|t2": (1, 0, 0.02, 0.09, 0.11),
        "t1|t2|t3": (1, 0, 0.02, 0.05, 0.07),
    },
    "m4": {
        "EMPTY": (0, 0, 0, 0, 0),
        "t1&t2&t3": (0, 0.16, 0, 0, 0),
        "t2&t3": (0, 0.19, 0, 0, 0),
        "t1&t3": (0, 0.12, 0, 0, 0),
        "(t1|t2)&t3": (0, 0.01, 0, 0.02, 0),
        "t3": (1, 0.10, 0, 0.07, 0.17),
        "t1&t2": (0, 0.22, 0, 0.02, 0),
        "(t1|t3)&t2": (0, 0.05, 0, 0.02, 0),
        "(t2|t3)&t1": (0, 0, 0, 0.02, 0),
        "((t1&t2)|t3)&(t1|t2)": (0, 0, 0, 0, 0),
        "(t1&t2)|t3": (1, 0, 0, 0.07, 0.07),
        "t2": (1, 0.03, 0, 0.09, 0.12),
        "(t1&t3)|t2": (1, 0, 0, 0.01, 0.01),
        "t2|t3": (1, 0, 0, 0.05, 0.05),
        "t1": (1, 0.08, 0, 0.06, 0.14),
        "(t2&t3)|t1": (1, 0.02, 0, 0.02, 0.04),
        "t1|t3": (1, 0.02, 0, 0.15, 0.17),
        "t1|t2": (1, 0, 0.02, 0.09, 0.11),
        "t1|t2|t3": (1, 0, 0.06, 0.06, 0.12),
    },
}

S3_COLUMN_SUMS = {"m1": 0.16, "m2": 0.38, "m3": 0.62, "m4": 0.75}

COMPRESSED_3 = {
    "m1": {
        "t2&t3": 0.19, "t1&t3": 0.12, "(t1|t2)&t3": 0.03, "t3": 0.10,
        "t1&t2": 0.22, "(t1|t3)&t2": 0.07, "(t2|t3)&t1": 0.02,
        "((t1&t2)|t3)&(t1|t2)": 0.00, "(t1&t2)|t3": 0.07, "t2": 0.03,
        "(t1&t3)|t2": 0.01, "t2|t3": 0.00, "t1": 0.08, "(t2&t3)|t1": 0.04,
        "t1|t3": 0.02, "t1|t2": 0.00, "t1|t2|t3": 0.00,
    },
    "m2": {
        "t2&t3": 0.26, "t1&t3": 0.14, "(t1|t2)&t3": 0.03, "t3": 0.17,
        "t2": 0.08, "(t1&t3)|t2": 0.01, "t2|t3": 0.00, "t1": 0.12,
        "(t2&t3)|t1": 0.04, "t1|t3": 0.06, "t1|t2": 0.09, "t1|t2|t3": 0.00,
    },
    "m3": {
        "t1&t3": 0.17, "t3": 0.23, "t2": 0.12, "(t1&t3)|t2": 0.01,
        "t2|t3": 0.05, "t1": 0.16, "t1|t3": 0.08, "t1|t2": 0.11,
        "t1|t2|t3": 0.07,
    },
    "m4": {
        "t3": 0.24, "t2": 0.13, "t2|t3": 0.05, "t1": 0.18,
        "t1|t3": 0.17, "t1|t2": 0.11, "t1|t2|t3": 0.12,
    },
    "m5": {"t2&t3": 0.33, "t3": 0.39, "t2": 0.24, "t2|t3": 0.04},
    "m6": {"t3": 1.0},
    "m7": {"t2": 0.24, "t1": 0.43, "t1|t2": 0.33},
}

CLASS_COUNTS = {"m1": 18, "m2": 13, "m3": 10, "m4": 8, "m5": 5, "m6": 2, "m7": 4}

# General two-source inputs: positive mass on every non-empty element.
GENERAL_SOURCES_3 = (
    dict(zip(ELEMENTS_3[1:], (0.01, 0.04, 0.03, 0.01, 0.03, 0.02, 0.02, 0.03,
                              0.04, 0.04, 0.02, 0.01, 0.20, 0.01, 0.02, 0.04,
                              0.03, 0.40))),
    dict(zip(ELEMENTS_3[1:], (0.40, 0.03, 0.04, 0.02, 0.04, 0.20, 0.01, 0.04,
                              0.03, 0.03, 0.01, 0.02, 0.02, 0.02, 0.01, 0.03,
                              0.04, 0.01))),
)

GENERAL_CLASSIC_3 = dict(zip(ELEMENTS_3[1:], (
    0.4389, 0.0410, 0.0497, 0.0257, 0.0311, 0.1846, 0.0156, 0.0459, 0.0384,
    0.0296, 0.0084, 0.0221, 0.0140, 0.0109, 0.0090, 0.0136, 0.0175, 0.0040,
)))

# Consolidated per-model results before compression (columns of the general
# suite), indexed like ELEMENTS_3[1:].
GENERAL_UNCOMPRESSED_3 = {
    "m1": (0, 0.0573, 0.0621, 0.0324, 0.0435, 0.1946, 0.0323, 0.0651, 0.0607,
           0.0527, 0.0165, 0.0274, 0.0942, 0.0151, 0.0182, 0.0299, 0.0299, 0.1681),
    "m2": (0, 0.0573, 0.0621, 0.0324, 0.0435, 0, 0.0365, 0.0719, 0.0704,
           0.0613, 0.0207, 0.0309, 0.1346, 0.0175, 0.0229, 0.0385, 0.0412, 0.2583),
    "m3": (0, 0, 0.0621, 0.0335, 0.0460, 0, 0, 0.0719, 0.0743,
           0.0658, 0.0221, 0.0340, 0.1471, 0.0175, 0.0243, 0.0419, 0.0452, 0.3143),
    "m4": (0, 0, 0, 0, 0.0494, 0, 0, 0, 0,
           0.0792, 0.0221, 0.0375, 0.1774, 0.0195, 0.0295, 0.0558, 0.0544, 0.4752),
    "m5": (0, 0.0573, 0, 0.0334, 0.0459, 0, 0.0365, 0, 0.0764,
           0.0687, 0.0207, 0.0329, 0.1518, 0, 0.0271, 0.0489, 0.0498, 0.3506),
    "m6": (0, 0, 0, 0, 0.0494, 0, 0, 0, 0,
           0.0792, 0, 0, 0.1850, 0, 0, 0.0589, 0, 0.6275),
    "m7": (0, 0, 0, 0, 0, 0, 0, 0, 0,
           0, 0.0221, 0.0375, 0.1953, 0.0195, 0.0295, 0.0631, 0.0544, 0.5786),
}

GENERAL_COMPRESSED_3 = {
    "m1": {
        "t2&t3": 0.0573, "t1&t3": 0.0621, "(t1|t2)&t3": 0.0324, "t3": 0.0435,
        "t1&t2": 0.1946, "(t1|t3)&t2": 0.0323, "(t2|t3)&t1": 0.0651,
        "((t1&t2)|t3)&(t1|t2)": 0.0607, "(t1&t2)|t3": 0.0527, "t2": 0.0165,
        "(t1&t3)|t2": 0.0274, "t2|t3": 0.0942, "t1": 0.0151,
        "(t2&t3)|t1": 0.0182, "t1|t3": 0.0299, "t1|t2": 0.0299,
        "t1|t2|t3": 0.1681,
    },
    "m2": {
        "t2&t3": 0.0938, "t1&t3": 0.1340, "(t1|t2)&t3": 0.1028, "t3": 0.1048,
        "t2": 0.0207, "(t1&t3)|t2": 0.0309, "t2|t3": 0.1346, "t1": 0.0175,
        "(t2&t3)|t1": 0.0229, "t1|t3": 0.0385, "t1|t2": 0.0412,
        "t1|t2|t3": 0.2583,
    },
    "m3": {
        "t1&t3": 0.2418, "t3": 0.1118, "t2": 0.0221, "(t1&t3)|t2": 0.0340,
        "t2|t3": 0.1471, "t1": 0.0418, "t1|t3": 0.0419, "t1|t2": 0.0452,
        "t1|t2|t3": 0.3143,
    },
    "m4": {
        "t3": 0.1286, "t2": 0.0596, "t2|t3": 0.1774, "t1": 0.0490,
        "t1|t3": 0.0558, "t1|t2": 0.0544, "t1|t2|t3": 0.4752,
    },
    "m5": {"t2&t3": 0.2307, "t3": 0.1635, "t2": 0.1034, "t2|t3": 0.5024},
    "m6": {"t3": 1.0},
    "m7": {"t2": 0.2549, "t1": 0.1121, "t1|t2": 0.6330},
}

PAPER_SUITE = {
    "sources": SOURCES_3, "classic": {"m1": CLASSIC_3}, "rows": HYBRID_ROWS,
    "s3_sums": S3_COLUMN_SUMS, "uncompressed": {}, "compressed": COMPRESSED_3,
}
GENERAL_SUITE = {
    "sources": GENERAL_SOURCES_3, "classic": {"m1": GENERAL_CLASSIC_3}, "rows": {},
    "s3_sums": {}, "uncompressed": GENERAL_UNCOMPRESSED_3, "compressed": GENERAL_COMPRESSED_3,
}

# Dynamic fusion examples.  Each entry: initial frame and sources, staged
# events, and the expected (compressed) per-stage results to check.
DYNAMIC_EXAMPLES = {
    "dyn1": {
        "frame": ("t1", "t2", "t3"),
        "sources": ({"t1": 0.5, "t3": 0.5}, {"t2": 0.5, "t3": 0.5}),
        "stages": ({"at": "t1+", "set_constraints": ("t1&t3",)},),
        "expected": {
            "t0": {"t1&t2": 0.25, "t1&t3": 0.25, "t2&t3": 0.25, "t3": 0.25},
            "t1+": {"t1&t2": 0.25, "t2&t3": 0.25, "t3": 0.25, "t1|t3": 0.25},
        },
    },
    "dyn3.1": {
        "frame": ("t1", "t2"),
        "sources": (
            {"t1": 0.1, "t2": 0.2, "t1|t2": 0.3, "t1&t2": 0.4},
            {"t1": 0.5, "t2": 0.3, "t1|t2": 0.1, "t1&t2": 0.1},
        ),
        "stages": (
            {"at": "t1+", "add_elements": ("t3",),
             "add_source": {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3}},
        ),
        "expected": {
            "t0": {"t1": 0.21, "t2": 0.17, "t1|t2": 0.03, "t1&t2": 0.59},
            "t1+": {"t1&t2&t3": 0.464, "t2&t3": 0.068, "t1&t3": 0.156,
                    "(t1|t2)&t3": 0.012, "t1&t2": 0.177, "t1&(t2|t3)": 0.063,
                    "t2": 0.051, "(t1&t3)|t2": 0.009},
        },
    },
    "dyn3.2": {
        "frame": ("t1", "t2"),
        "sources": (
            {"t1": 0.1, "t2": 0.2, "t1|t2": 0.3, "t1&t2": 0.4},
            {"t1": 0.5, "t2": 0.3, "t1|t2": 0.1, "t1&t2": 0.1},
        ),
        "stages": (
            {"at": "t1+", "add_elements": ("t3",),
             "add_source": {"t3": 0.4, "t1&t3": 0.3, "t2|t3": 0.3}},
            {"at": "t2+", "set_constraints": ("t3",)},
        ),
        "expected": {
            "t2+": {"t1": 0.147, "t2": 0.179, "t1|t2": 0.021, "t1&t2": 0.653},
        },
    },
    "dyn3.3": {
        "frame": ("t1", "t2"),
        "sources": (
            {"t1": 0.1, "t2": 0.2, "t1|t2": 0.3, "t1&t2": 0.4},
            {"t1": 0.5, "t2": 0.3, "t1|t2": 0.1, "t1&t2": 0.1},
        ),
        "stages": (
            {"at": "t1+", "add_elements": ("t3", "t4"),
             "add_source": {"t3": 0.5, "t4": 0.3, "t3&t4": 0.1, "t3|t4": 0.1}},
            {"at": "t2+", "set_constraints": ("t3", "t4")},
        ),
        "expected": {
            "t1+": {"t1&t3": 0.105, "t1&t4": 0.063, "t1&(t3|t4)": 0.021,
                    "t1&t3&t4": 0.021, "t2&t3": 0.085, "t2&t4": 0.051,
                    "t2&(t3|t4)": 0.017, "t2&t3&t4": 0.017,
                    "t3&(t1|t2)": 0.015, "t4&(t1|t2)": 0.009,
                    "(t1|t2)&(t3|t4)": 0.003, "(t1|t2)&t3&t4": 0.003,
                    "t1&t2&t3": 0.295, "t1&t2&t4": 0.177,
                    "t1&t2&(t3|t4)": 0.059, "t1&t2&t3&t4": 0.059},
            "t2+": {"t1": 0.21, "t2": 0.17, "t1|t2": 0.03, "t1&t2": 0.59},
        },
    },
    "dyn3.4": {
        "frame": ("t1", "t2"),
        "sources": ({"t1": 0.6, "t2": 0.4}, {"t1": 0.7, "t2": 0.3}),
        "stages": (
            {"at": "t1+", "add_elements": ("t3",),
             "add_source": {"t1": 0.5, "t2": 0.2, "t3": 0.3}},
            {"at": "t2+", "set_constraints": ("t1&t3",)},
        ),
        "expected": {
            "t0": {"t1": 0.42, "t2": 0.12, "t1&t2": 0.46},
            "t1+": {"t1": 0.210, "t2": 0.024, "t1&t2": 0.466,
                    "t1&t3": 0.126, "t2&t3": 0.036, "t1&t2&t3": 0.138},
            "t2+": {"t1": 0.210, "t2": 0.024, "t1&t2": 0.466,
                    "t2&t3": 0.036, "(t1&t2)|t3": 0.138, "t1|t3": 0.126},
        },
    },
    "dyn3.5": {
        "frame": ("t1", "t2"),
        "sources": ({"t1": 0.6, "t2": 0.4}, {"t1": 0.7, "t2": 0.3}),
        "stages": (
            {"at": "t1+", "add_elements": ("t3",),
             "add_source": {"t1": 0.5, "t2": 0.2, "t3": 0.3}},
            {"at": "t2+", "set_constraints": ("t3",)},
        ),
        "expected": {
            "t2+": {"t1": 0.336, "t2": 0.060, "t1&t2": 0.604},
        },
    },
    "dyn3.6": {
        "frame": ("t1", "t2", "t3", "t4"),
        "sources": (
            {"t1": 0.5, "t2": 0.4, "t1&t2": 0.1},
            {"t1": 0.3, "t2": 0.2, "t1&t3": 0.1, "t4": 0.4},
        ),
        "stages": ({"at": "t1+", "set_constraints": ("t1&t2", "t1&t3")},),
        "expected": {
            "t1+": {"t1": 0.23, "t2": 0.14, "t4": 0.04, "t1&t4": 0.20,
                    "t2&t4": 0.16, "t1|t2": 0.22, "t1|t2|t3": 0.01},
        },
    },
    "dyn3.7": {
        "frame": ("t1", "t2", "t3", "t4"),
        "sources": (
            {"t1": 0.2, "t2": 0.4, "t1&t2": 0.1, "t1&t3": 0.2, "t4": 0.1},
            {"t1": 0.1, "t2": 0.3, "t1&t2": 0.2, "t1&t3": 0.1, "t4": 0.3},
        ),
        "stages": ({"at": "t1+", "set_constraints": ("t1&t2", "t1&t3")},),
        "expected": {
            "t1+": {"t1": 0.11, "t2": 0.33, "t4": 0.15, "t1&t4": 0.07,
                    "t2&t4": 0.15, "t1|t2": 0.12, "t1|t3": 0.02,
                    "t1|t2|t3": 0.05},
        },
    },
}


@dataclass
class ExampleReport:
    example_id: str
    lines: list[str] = field(default_factory=list)
    checks: int = 0
    max_dev: float = 0.0

    def close(self, actual: float, expected: float) -> None:
        self.checks += 1
        self.max_dev = max(self.max_dev, abs(actual - expected))

    def exact(self, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.max_dev = float("inf")

    @property
    def passed(self) -> bool:
        return self.max_dev <= TOLERANCE

    @property
    def verdict(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.example_id} ({self.checks} checks, max dev {self.max_dev:.2e})"


def _assignment(frame: Frame, table: dict[str, float]) -> MassAssignment:
    return MassAssignment(frame, {parse(frame, k): v for k, v in table.items()})


def _run_constraint_example(example_id: str, key: str, suite: dict) -> ExampleReport:
    frame = build_frame(("t1", "t2", "t3"))
    props = {expr: _parse_or_empty(frame, expr) for expr in ELEMENTS_3}
    ms = [MassAssignment(frame, {props[e]: v for e, v in t.items()}) for t in suite["sources"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build_model(frame, [props[c] for c in MODEL_CONSTRAINTS[key]])
    bd = dsm_hybrid(ms, model)
    report = ExampleReport(example_id)

    if key in suite["classic"]:
        classic = dsm_classic(ms)
        for expr, v in suite["classic"][key].items():
            report.close(classic[props[expr]], v)

    elements = [p.mask for p in props.values()]
    report.lines.append(f"== {example_id}: constraint {' , '.join(MODEL_CONSTRAINTS[key])} ==")
    report.lines += breakdown_lines(bd, elements)
    report.lines.append(column_totals(bd, elements))
    for expr, (phi_e, s1_e, s2_e, s3_e, m_e) in suite["rows"].get(key, {}).items():
        p = props[expr]
        report.exact(model.phi(p) == phi_e)
        report.close(bd.s1.get(p, 0.0), s1_e)
        report.close(bd.s2.get(p, 0.0), s2_e)
        report.close(bd.s3.get(p, 0.0), s3_e)
        report.close(bd.result[p], m_e)
    if key in suite["s3_sums"]:
        report.close(fsum(bd.s3.values()), suite["s3_sums"][key])
    for expr, v in zip(ELEMENTS_3[1:], suite["uncompressed"].get(key, ())):
        report.close(bd.result[props[expr]], v)

    report.lines.append(f"== {example_id}: compressed ==")
    report.lines += compressed_lines(model, {mask: bd.result._masses.get(mask, 0.0) for mask in elements})
    report.exact(len(survivors(model)) == CLASS_COUNTS[key])
    compressed = compress(model, bd.result)
    for expr, v in suite["compressed"][key].items():
        report.close(compressed[model.reduce(props[expr])], v)
    report.close(bd.result.total, 1.0)
    return report


def _run_dynamic_example(key: str) -> ExampleReport:
    data = DYNAMIC_EXAMPLES[key]
    frame = build_frame(data["frame"])
    sources = [_assignment(frame, t) for t in data["sources"]]
    stages = stages_from(data["stages"], frame.names, _assignment)
    report = ExampleReport(key)
    for rec in run_session(frame, sources, stages):  # stage labels are unique
        report.lines.append(f"== {key}: stage {rec.label} ==")
        report.lines += mass_lines(rec.result)
        if rec.label not in data["expected"]:
            continue
        got, want = rec.result._masses, {}
        for expr, v in data["expected"][rec.label].items():
            mask = parse(rec.result.frame, expr).mask
            want[mask] = want.get(mask, 0.0) + v
        for k in set(got) | set(want):
            report.close(got.get(k, 0.0), want.get(k, 0.0))
    return report


def _run_contradiction_example() -> ExampleReport:
    frame = build_frame(("t1", "t2"))
    m1 = _assignment(frame, {"t1": 1.0})
    m2 = _assignment(frame, {"t2": 1.0})
    report = ExampleReport("contradiction", ["== contradiction: m1(t1)=1, m2(t2)=1 =="])

    classic = dsm_classic([m1, m2])
    report.lines.append("== classic rule (free model) ==")
    report.lines += mass_lines(classic)
    report.close(classic[parse(frame, "t1&t2")], 1.0)

    hybrid = dsm_hybrid([m1, m2], shafer_model(frame)).result
    report.lines.append("== hybrid rule (exclusive singletons) ==")
    report.lines += mass_lines(hybrid)
    report.exact(hybrid[parse(frame, "t1|t2")] == 1.0)
    report.close(hybrid.total, 1.0)

    try:
        dempster([m1, m2])
    except FullContradiction:
        report.lines.append("dempster: FullContradiction (conflict 1, orthogonal sum undefined)")
        report.exact(True)
    else:
        report.lines.append("dempster: unexpectedly defined")
        report.exact(False)
    return report


# Each example ID and the runner that checks it, in `reproduce`'s order.
RUNNERS = {
    **{key: partial(_run_constraint_example, key, key, PAPER_SUITE) for key in MODEL_CONSTRAINTS},
    **{f"general-{key}": partial(_run_constraint_example, f"general-{key}", key, GENERAL_SUITE)
       for key in MODEL_CONSTRAINTS},
    **{key: partial(_run_dynamic_example, key) for key in DYNAMIC_EXAMPLES},
    "contradiction": _run_contradiction_example,
}
EXAMPLE_IDS = tuple(RUNNERS)


def run_example(example_id: str) -> ExampleReport:
    """Execute one built-in example and compare against its golden values."""
    if example_id not in RUNNERS:
        raise KeyError(f"unknown example {example_id!r}; try one of {', '.join(EXAMPLE_IDS)}")
    return RUNNERS[example_id]()
