"""Test-only oracle: the driver's ``Record`` as a plain Python class.

The driver builds its result rows in C, as instances of one cached
tuple subclass per column tuple.  :class:`Record` below is the obvious
version of the same row - two slots, keys and values - that every
documented behaviour of the fast one is checked against.
"""

from __future__ import annotations

from typing import Iterator


class Record:
    """One result row: ordered values addressable by column name."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: list[str], values: tuple):
        self._keys = keys
        self._values = values

    def keys(self) -> list[str]:
        return list(self._keys)

    def values(self) -> list:
        return list(self._values)

    def items(self) -> list[tuple[str, object]]:
        return list(zip(self._keys, self._values))

    def data(self) -> dict[str, object]:
        """The record as a plain ``{column: value}`` dict."""
        return dict(zip(self._keys, self._values))

    def get(self, key: str, default: object = None) -> object:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            return default

    def __getitem__(self, key: str | int) -> object:
        if isinstance(key, str):
            try:
                return self._values[self._keys.index(key)]
            except ValueError:
                raise KeyError(key) from None
        return self._values[key]

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Record):
            return (
                other._keys == self._keys
                and other._values == self._values
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{k}={v!r}" for k, v in zip(self._keys, self._values)
        )
        return f"<Record {inner}>"
