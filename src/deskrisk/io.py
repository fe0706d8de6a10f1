"""JSON and CSV file formats.

Instance JSON (``"format": 1``)::

    {"format": 1, "n": 2, "m": 2, "papers": [[1, 2], [1]],
     "p": [0.1, 0.2], "b": 1, "lambda": null}

``papers[i - 1]`` lists the authors of paper ``i`` in ascending order; all
indices are 1-based.  Assignment JSON is ``{"format": 1, "nominee": [...]}``
and report JSON mirrors the :class:`~deskrisk.instance.SolveReport` fields.

Loaders accept strict JSON only: the ``NaN``, ``Infinity`` and ``-Infinity``
tokens that Python's :mod:`json` allows by default raise :class:`FormatError`,
as does ``true`` or ``false`` where a number is expected, and :func:`dumps`
refuses to write non-finite numbers.

Loaders check shape (types, version) and raise :class:`FormatError`;
semantic checks such as "every paper has an author" stay in
:func:`deskrisk.instance.validate`, so callers can report every violation
at once instead of dying on the first.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .instance import Assignment, Instance, SolveReport, SolveStatus

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised when a file does not match the documented shape."""


def _check_format(obj: dict, kind: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{kind}: expected a JSON object, got {type(obj).__name__}")
    version = obj.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise FormatError(f"{kind}: unsupported format version {version!r}")


def _int_field(obj: dict, key: str, kind: str) -> int:
    value = obj.get(key)
    if not _is_integer(value):
        raise FormatError(f"{kind}: field {key!r} must be an integer, got {value!r}")
    return value


def _is_integer(value: Any) -> bool:
    """An int; JSON ``true`` and ``false`` load as bools, which are not integers."""
    return type(value) is int


def _is_integer_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(_is_integer, value))


def _is_number(value: Any) -> bool:
    """An int or a float; JSON ``true`` and ``false`` load as bools, which are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _loads(path: str | Path, kind: str) -> Any:
    def reject(token: str) -> None:
        raise FormatError(f"{kind}: non-finite number {token} in {path} is not valid JSON")

    try:
        return json.loads(Path(path).read_text(), parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{kind}: invalid JSON in {path}: {exc}") from exc


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "n": instance.n,
        "m": instance.m,
        "papers": [list(row) for row in instance.rows],
        "p": list(instance.p),
        "b": instance.b,
        "lambda": instance.lam,
    }


def instance_from_dict(obj: dict[str, Any]) -> Instance:
    _check_format(obj, "instance")
    n = _int_field(obj, "n", "instance")
    m = _int_field(obj, "m", "instance")
    papers = obj.get("papers")
    if not isinstance(papers, list) or len(papers) != n:
        raise FormatError(f"instance: 'papers' must be a list of {n} author lists")
    for i, row in enumerate(papers):
        if not _is_integer_list(row):
            raise FormatError(f"instance: papers[{i}] must be a list of integers")
    p = obj.get("p")
    if not isinstance(p, list) or not all(map(_is_number, p)):
        raise FormatError("instance: 'p' must be a list of numbers")
    b = obj.get("b")
    if b is not None and not _is_integer(b):
        raise FormatError(f"instance: 'b' must be an integer or null, got {b!r}")
    lam = obj.get("lambda")
    if lam is not None and not _is_number(lam):
        raise FormatError(f"instance: 'lambda' must be a number or null, got {lam!r}")
    return Instance.from_rows(papers, p, b=b, lam=lam, m=m)


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(_loads(path, "instance"))


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps(instance_to_dict(instance)))


def assignment_to_dict(assignment: Assignment) -> dict[str, Any]:
    return {"format": FORMAT_VERSION, "nominee": list(assignment.nominee)}


def assignment_from_dict(obj: dict[str, Any]) -> Assignment:
    _check_format(obj, "assignment")
    nominee = obj.get("nominee")
    if not _is_integer_list(nominee):
        raise FormatError("assignment: 'nominee' must be a list of integers")
    return Assignment(nominee=tuple(nominee))


def load_assignment(path: str | Path) -> Assignment:
    return assignment_from_dict(_loads(path, "assignment"))


def save_assignment(assignment: Assignment, path: str | Path) -> None:
    Path(path).write_text(dumps(assignment_to_dict(assignment)))


def report_to_dict(report: SolveReport, assignment: Assignment | None = None) -> dict[str, Any]:
    """Serialize a report, with the nominees last when ``assignment`` is given."""
    obj: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "status": report.status.value,
        "objective": report.objective,
        "expected_rejections": report.expected_rejections,
        "penalty": report.penalty,
        "loads": None if report.loads is None else list(report.loads),
        "solver": report.solver,
        "seed": report.seed,
    }
    for key in ("lp_bound", "rounded_objective", "gap", "integral"):
        value = getattr(report, key)
        if value is not None:
            obj[key] = value
    if assignment is not None:
        obj["nominee"] = list(assignment.nominee)
    return obj


def report_from_dict(obj: dict[str, Any]) -> SolveReport:
    _check_format(obj, "report")
    status, statuses = obj.get("status"), [member.value for member in SolveStatus]
    if status not in statuses:
        raise FormatError(f"report: field 'status' must be one of {statuses}, got {status!r}")
    solver = obj.get("solver", "")
    if not isinstance(solver, str):
        raise FormatError(f"report: field 'solver' must be a string, got {solver!r}")
    loads = _report_field(obj, "loads", "a list of integers", _is_integer_list)
    numbers = {key: _report_field(obj, key, "a number", _is_number) for key in _REPORT_NUMBERS}
    return SolveReport(
        status=SolveStatus(status),
        loads=None if loads is None else tuple(loads),
        solver=solver,
        seed=_report_field(obj, "seed", "an integer", _is_integer),
        integral=_report_field(obj, "integral", "a bool", lambda value: isinstance(value, bool)),
        **numbers,
    )


_REPORT_NUMBERS = (
    "objective", "expected_rejections", "penalty", "lp_bound", "rounded_objective", "gap"
)


def _report_field(obj: dict[str, Any], key: str, shape: str, fits: Callable[[Any], bool]) -> Any:
    """``obj[key]``, ``None`` if absent; ``FormatError`` unless it is null or ``fits``."""
    value = obj.get(key)
    if value is not None and not fits(value):
        raise FormatError(f"report: field {key!r} must be {shape} or null, got {value!r}")
    return value


def dumps(obj: dict[str, Any]) -> str:
    """Canonical JSON text: two-space indent, insertion key order, newline at end.

    Raises ``ValueError`` on a NaN or infinite float, which strict JSON cannot hold.
    """
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def load_instance_csv(
    pairs_path: str | Path,
    p_path: str | Path,
    b: int | None = None,
    lam: float | None = None,
) -> Instance:
    """Import an instance from two CSV files.

    ``pairs_path`` holds one ``paper_id,author_id`` row per incidence and
    ``p_path`` one ``author_id,p`` row per author.  A header row is skipped
    when its first cell is not an integer.  ``n`` is the largest paper id
    seen and ``m`` the number of authors in the sidecar; duplicate pairs are
    kept so that validation can reject them explicitly.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, row in _csv_rows(pairs_path):
        if len(row) != 2:
            raise FormatError(f"{pairs_path}:{lineno}: expected paper_id,author_id")
        pairs.append((_csv_int(row[0], pairs_path, lineno), _csv_int(row[1], pairs_path, lineno)))
    if not pairs:
        raise FormatError(f"{pairs_path}: no authorship pairs")

    p_by_author: dict[int, float] = {}
    for lineno, row in _csv_rows(p_path):
        if len(row) != 2:
            raise FormatError(f"{p_path}:{lineno}: expected author_id,p")
        author = _csv_int(row[0], p_path, lineno)
        if author in p_by_author:
            raise FormatError(f"{p_path}:{lineno}: duplicate author {author}")
        try:
            p_by_author[author] = float(row[1])
        except ValueError as exc:
            raise FormatError(f"{p_path}:{lineno}: bad probability {row[1]!r}") from exc
    m = len(p_by_author)
    if sorted(p_by_author) != list(range(1, m + 1)):
        raise FormatError(f"{p_path}: author ids must cover 1..{m} exactly")

    n = max(i for i, _ in pairs)
    p = tuple(p_by_author[j] for j in range(1, m + 1))
    return Instance(n=n, m=m, authorship=tuple(pairs), p=p, b=b, lam=lam)


def _csv_rows(path: str | Path):
    import csv  # only the CSV import reads it

    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if lineno == 1 and not _is_int(row[0]):
                continue  # header
            yield lineno, [cell.strip() for cell in row]


def _is_int(cell: str) -> bool:
    try:
        int(cell.strip())
        return True
    except ValueError:
        return False


def _csv_int(cell: str, path: str | Path, lineno: int) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: expected an integer, got {cell!r}") from exc
