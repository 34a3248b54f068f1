"""Text and CSV tables for masses, hybrid breakdowns and compressed classes.

The command-line tool and the worked examples print through these
functions, so every table has one layout: element names padded to
NAME_WIDTH, then the numbers with six decimals.  The CSV variants carry
the same cells, comma-separated, under a header row.  The breakdown and
compression tables take rows keyed by atom bitset and build a Proposition
only to print a row's name.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .bba import MassAssignment
from .lattice import _proposition, to_expression
from .model import EquivClass, HybridModel, compression_report
from .rules import HybridBreakdown

NAME_WIDTH = 36


def mass_lines(masses: MassAssignment, csv: bool = False) -> list[str]:
    """One row per entry: element name and mass."""
    if csv:
        return ["prop,mass"] + [f"{to_expression(p)},{v:.6f}" for p, v in masses.items()]
    return [f"{to_expression(p):{NAME_WIDTH}s} {v:9.6f}" for p, v in masses.items()]


def breakdown_lines(bd: HybridBreakdown, masks: Sequence[int], csv: bool = False) -> list[str]:
    """Header, then one phi/S1/S2/S3/m row per atom bitset of `masks`."""
    if csv:
        lines = ["prop,phi,s1,s2,s3,mass"]
    else:
        lines = [f"{'element':{NAME_WIDTH}s} {'phi':>3s} {'S1':>9s} {'S2':>9s} {'S3':>9s} {'m':>9s}"]
    frame, alive, columns = bd.model.frame, bd.model.alive, (*bd._tables, bd.result._masses)
    for mask in masks:
        s1, s2, s3, m = (column.get(mask, 0.0) for column in columns)
        phi = 1 if mask & alive else 0
        name = to_expression(_proposition(frame, mask))
        if csv:
            lines.append(f"{name},{phi},{s1:.6f},{s2:.6f},{s3:.6f},{m:.6f}")
        else:
            lines.append(f"{name:{NAME_WIDTH}s} {phi:3d} {s1:9.6f} {s2:9.6f} {s3:9.6f} {m:9.6f}")
    return lines


def column_totals(bd: HybridBreakdown, masks: Sequence[int]) -> str:
    """The row under a breakdown table: S1, S2, S3 and m summed over the atom bitsets `masks`."""
    cols, columns = [0.0, 0.0, 0.0, 0.0], (*bd._tables, bd.result._masses)
    for mask in masks:
        for i, column in enumerate(columns):
            cols[i] += column.get(mask, 0.0)
    return f"{'(column totals)':{NAME_WIDTH}s}     " + " ".join(f"{c:9.6f}" for c in cols)


def compressed_lines(model: HybridModel, masses: Mapping[int, float], csv: bool = False) -> list[str]:
    """One row per model class of masses keyed by atom bitset: representative, members, total."""
    lines = ["prop,mass,provenance"] if csv else []
    for rep, members, total in compression_report(model, masses):
        name = to_expression(_proposition(model.frame, rep))
        provenance = "+".join(f"{v:.6f}" for _, v in members) if len(members) > 1 else ""
        if csv:
            lines.append(f"{name},{total:.6f},{provenance}")
        elif provenance:
            lines.append(f"{name:{NAME_WIDTH}s} {provenance}={total:.6f}")
        else:
            lines.append(f"{name:{NAME_WIDTH}s} {total:9.6f}")
    return lines


def class_lines(classes: Sequence[EquivClass]) -> list[str]:
    """One row per model class: representative and member count."""
    return [f"{to_expression(c.representative):{NAME_WIDTH}s} members={len(c)}"
            for c in classes]
