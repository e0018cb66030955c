"""The bi-graded dimension table of a group: (x-degree, theta-degree) ->
dimension, its q, z views and its versioned JSON form, which the result
cache stores; and the LaTeX table of Hilbert series rows."""

from __future__ import annotations

import json

from .groups import GroupSpec
from .qseries import QPoly, QZPoly, format_poly
from .records import Record

SCHEMA_VERSION = 1


class DimTable(Record):
    """Bi-graded dimension table: (x-degree, theta-degree) -> dimension."""

    group: GroupSpec
    entries: dict[tuple[int, int], int] = {}

    def dim(self, i: int, k: int) -> int:
        return self.entries.get((i, k), 0)

    def set(self, i: int, k: int, value: int):
        if value:
            self.entries[(i, k)] = value
        else:
            self.entries.pop((i, k), None)

    def hilbert_qz(self) -> QZPoly:
        return QZPoly({(i, k): v for (i, k), v in self.entries.items()})

    def z_coefficients_at_q1(self) -> dict[int, int]:
        """{theta-degree: total dimension}; the Hilb(.; 1, z) coefficients."""
        out: dict[int, int] = {}
        for (i, k), v in self.entries.items():
            out[k] = out.get(k, 0) + v
        return out

    def hilbert_z_string(self) -> str:
        return format_poly(self.z_coefficients_at_q1(), var="z")

    def column(self, k: int) -> QPoly:
        return QPoly({i: v for (i, kk), v in self.entries.items() if kk == k})

    def to_json_dict(self) -> dict:
        dims = [[i, k, v] for (i, k), v in sorted(self.entries.items())]
        return {
            "group": {"m": self.group.m, "p": self.group.p, "n": self.group.n},
            "version": SCHEMA_VERSION,
            "dims": dims,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "DimTable":
        if data.get("version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported dimension table version {data.get('version')}")
        g = data["group"]
        spec = GroupSpec.create(g["m"], g["p"], g["n"])
        table = DimTable(spec)
        for i, k, v in data["dims"]:
            table.set(int(i), int(k), int(v))
        return table

    @staticmethod
    def from_json(text: str) -> "DimTable":
        return DimTable.from_json_dict(json.loads(text))


def latex_table(rows: list[tuple[str, str, str]]) -> str:
    """Two-column Hilbert series table (q = 1 specialization in z).

    rows: (group label, harmonic series, derivative-closure series); the
    closure column prints "(same)" when it equals the harmonic one.
    """
    lines = [
        r"\begin{tabular}{c|c|c}",
        r"$G$ & $\mathrm{Hilb}(\mathcal{SH}_G; 1, z)$ & "
        r"$\mathrm{Hilb}(K[\partial_{x_1},\ldots,\partial_{x_n}]"
        r"\mathcal{SH}_G^{\det}; 1, z)$ \\",
        r"\toprule",
    ]
    for idx, (label, sh, closure) in enumerate(rows):
        if idx:
            lines.append(r"\midrule")
        sh_tex = sh.replace("*", "")
        closure_cell = "(same)" if closure == sh else f"${closure.replace('*', '')}$"
        lines.append(f"${label}$ & ${sh_tex}$ & {closure_cell} \\\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines)
