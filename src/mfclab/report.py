"""Check results and CSV output shared by the experiments and the application."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

VERSION = "0.1.0"


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: value={self.value:.6g} threshold={self.threshold:.6g}{extra}"


def fmt(x) -> str:
    """Round-trip float formatting so reruns are byte-identical."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence], seed) -> None:
    """Write a CSV with a header row and a trailing metadata comment line."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
        fh.write(f"# seed={seed}, version={VERSION}\n")
