"""The :class:`DataMatrix` abstraction from Section 3.2 of the paper.

A data matrix is an ``m x n`` array ``D`` where each of the ``m`` rows is an
object and each of the ``n`` columns is a numerical attribute.  The class is
a thin, immutable wrapper over a ``numpy`` array that keeps column names and
(optionally) per-object identifiers, so transformation steps can be expressed
in terms of attribute names rather than raw column indices.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .._validation import as_float_matrix, check_columns_exist
from ..exceptions import SchemaError, ValidationError

__all__ = ["DataMatrix"]


class DataMatrix:
    """An immutable named-column numerical matrix (``m`` objects x ``n`` attributes).

    Parameters
    ----------
    values:
        2-D numeric array-like of shape ``(m, n)``.
    columns:
        Attribute names, one per column.  Defaults to ``x0, x1, ...``.
    ids:
        Optional per-object identifiers (length ``m``).  They are carried
        along transformations but never participate in them, mirroring the
        paper's treatment of the ``ID`` attribute in Tables 1–3.

    Examples
    --------
    >>> matrix = DataMatrix([[1.0, 2.0], [3.0, 4.0]], columns=["age", "weight"])
    >>> matrix.shape
    (2, 2)
    >>> matrix.column("age").tolist()
    [1.0, 3.0]
    """

    __slots__ = ("_values", "_columns", "_ids")

    def __init__(
        self,
        values,
        columns: Sequence[str] | None = None,
        ids: Sequence | None = None,
    ) -> None:
        matrix = as_float_matrix(values, name="data")
        n_rows, n_cols = matrix.shape
        if columns is None:
            columns = [f"x{i}" for i in range(n_cols)]
        columns = [str(name) for name in columns]
        if len(columns) != n_cols:
            raise SchemaError(
                f"expected {n_cols} column name(s) for a matrix with {n_cols} column(s), "
                f"got {len(columns)}"
            )
        if len(set(columns)) != len(columns):
            raise SchemaError(f"column names must be unique, got {columns}")
        if ids is not None:
            ids = tuple(ids)
            if len(ids) != n_rows:
                raise ValidationError(
                    f"ids must have one entry per row ({n_rows}), got {len(ids)}"
                )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self._values = matrix
        self._columns = tuple(columns)
        self._ids = ids

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """Read-only ``(m, n)`` float array of attribute values."""
        return self._values

    @property
    def columns(self) -> tuple[str, ...]:
        """Attribute names, one per column."""
        return self._columns

    @property
    def ids(self) -> tuple | None:
        """Per-object identifiers, or ``None`` when they were suppressed."""
        return self._ids

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_objects, n_attributes)``."""
        return self._values.shape

    @property
    def n_objects(self) -> int:
        """Number of rows (``m`` in the paper's notation)."""
        return self._values.shape[0]

    @property
    def n_attributes(self) -> int:
        """Number of columns (``n`` in the paper's notation)."""
        return self._values.shape[1]

    def __len__(self) -> int:
        return self.n_objects

    def __repr__(self) -> str:  # pragma: no cover - repr is cosmetic
        return (
            f"DataMatrix(n_objects={self.n_objects}, n_attributes={self.n_attributes}, "
            f"columns={list(self._columns)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataMatrix):
            return NotImplemented
        return (
            self._columns == other._columns
            and self._ids == other._ids
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self._columns, self._ids, self._values.tobytes()))

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #
    def column_index(self, name: str) -> int:
        """Return the positional index of column ``name``."""
        try:
            return self._columns.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown column {name!r}; available: {list(self._columns)}") from exc

    def column(self, name: str) -> np.ndarray:
        """Return a copy of the values of column ``name`` as a 1-D array."""
        return self._values[:, self.column_index(name)].copy()

    def columns_array(self, names: Sequence[str]) -> np.ndarray:
        """Return a copy of the values of several columns, in the given order."""
        check_columns_exist(names, self._columns, name="names")
        indices = [self.column_index(name) for name in names]
        return self._values[:, indices].copy()

    def select(self, names: Sequence[str]) -> DataMatrix:
        """Return a new matrix restricted to ``names`` (projection)."""
        return DataMatrix(self.columns_array(names), columns=list(names), ids=self._ids)

    def drop(self, names: Iterable[str]) -> DataMatrix:
        """Return a new matrix without the columns in ``names``."""
        to_drop = set(names)
        check_columns_exist(to_drop, self._columns, name="names")
        kept = [name for name in self._columns if name not in to_drop]
        if not kept:
            raise ValidationError("cannot drop every column of a DataMatrix")
        return self.select(kept)

    def rows(self, indices: Sequence[int]) -> DataMatrix:
        """Return a new matrix with only the rows at ``indices`` (selection)."""
        indices = list(indices)
        ids = None if self._ids is None else tuple(self._ids[i] for i in indices)
        return DataMatrix(self._values[indices, :], columns=self._columns, ids=ids)

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def with_values(self, values) -> DataMatrix:
        """Return a new matrix with the same columns/ids but different values."""
        values = as_float_matrix(values, name="values")
        if values.shape != self.shape:
            raise ValidationError(
                f"replacement values must have shape {self.shape}, got {values.shape}"
            )
        return DataMatrix(values, columns=self._columns, ids=self._ids)

    def with_column_values(self, updates: Mapping[str, np.ndarray]) -> DataMatrix:
        """Return a new matrix where the columns named in ``updates`` are replaced."""
        check_columns_exist(updates.keys(), self._columns, name="updates")
        values = self._values.copy()
        for name, column_values in updates.items():
            column_values = np.asarray(column_values, dtype=float).ravel()
            if column_values.size != self.n_objects:
                raise ValidationError(
                    f"replacement for column {name!r} must have length {self.n_objects}, "
                    f"got {column_values.size}"
                )
            values[:, self.column_index(name)] = column_values
        return DataMatrix(values, columns=self._columns, ids=self._ids)

    def without_ids(self) -> DataMatrix:
        """Return a copy with object identifiers suppressed (anonymization step 2)."""
        return DataMatrix(self._values, columns=self._columns, ids=None)

    def rename(self, mapping: Mapping[str, str]) -> DataMatrix:
        """Return a copy with columns renamed according to ``mapping``."""
        check_columns_exist(mapping.keys(), self._columns, name="mapping")
        new_columns = [mapping.get(name, name) for name in self._columns]
        return DataMatrix(self._values, columns=new_columns, ids=self._ids)

    # ------------------------------------------------------------------ #
    # Statistics used throughout the paper
    # ------------------------------------------------------------------ #
    def column_means(self) -> np.ndarray:
        """Arithmetic mean of every attribute."""
        return self._values.mean(axis=0)

    def column_variances(self, *, ddof: int = 0) -> np.ndarray:
        """Variance of every attribute (population variance by default, Eq. 8)."""
        return self._values.var(axis=0, ddof=ddof)

    def column_stds(self, *, ddof: int = 0) -> np.ndarray:
        """Standard deviation of every attribute (population by default)."""
        return self._values.std(axis=0, ddof=ddof)

    def column_minmax(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-attribute minimum and maximum."""
        return self._values.min(axis=0), self._values.max(axis=0)

    def describe(self) -> dict[str, dict[str, float]]:
        """Return per-column summary statistics (mean, std, min, max, variance)."""
        summary: dict[str, dict[str, float]] = {}
        means = self.column_means()
        stds = self.column_stds()
        variances = self.column_variances()
        minima, maxima = self.column_minmax()
        for index, name in enumerate(self._columns):
            summary[name] = {
                "mean": float(means[index]),
                "std": float(stds[index]),
                "var": float(variances[index]),
                "min": float(minima[index]),
                "max": float(maxima[index]),
            }
        return summary

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_records(self) -> list[dict[str, float]]:
        """Return the matrix as a list of per-object dictionaries (including ids)."""
        records = []
        for row_index in range(self.n_objects):
            record: dict[str, float] = {}
            if self._ids is not None:
                record["id"] = self._ids[row_index]
            for col_index, name in enumerate(self._columns):
                record[name] = float(self._values[row_index, col_index])
            records.append(record)
        return records

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, float]],
        *,
        columns: Sequence[str] | None = None,
        id_field: str | None = None,
    ) -> DataMatrix:
        """Build a matrix from a sequence of per-object mappings.

        Parameters
        ----------
        records:
            One mapping per object.
        columns:
            Attribute order; defaults to the keys of the first record
            (excluding ``id_field``).
        id_field:
            Optional key holding the object identifier.
        """
        if not records:
            raise ValidationError("records must not be empty")
        if columns is None:
            columns = [key for key in records[0].keys() if key != id_field]
        ids = None
        if id_field is not None:
            ids = [record[id_field] for record in records]
        rows = []
        for record in records:
            try:
                rows.append([float(record[name]) for name in columns])
            except KeyError as exc:
                raise ValidationError(f"record is missing attribute {exc.args[0]!r}") from exc
        return cls(rows, columns=columns, ids=ids)
