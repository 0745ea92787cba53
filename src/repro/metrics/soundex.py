"""Soundex phonetic encoding.

Section 6.2 (Exp-4) encodes the name attribute with Soundex before using it
inside a blocking key, so that phonetically close spellings ("Clifford" /
"Clivord") land in the same block.  This is the classic American Soundex:
a letter followed by three digits, consonants grouped by place of
articulation, adjacent duplicates collapsed, vowels (and H/W) acting as
separators.
"""

from __future__ import annotations

from functools import lru_cache

from .base import StringMetric

_CODES = {
    "B": "1", "F": "1", "P": "1", "V": "1",
    "C": "2", "G": "2", "J": "2", "K": "2",
    "Q": "2", "S": "2", "X": "2", "Z": "2",
    "D": "3", "T": "3",
    "L": "4",
    "M": "5", "N": "5",
    "R": "6",
}
# H and W are skipped entirely (they do not separate duplicate codes);
# vowels and Y are skipped but *do* separate duplicates.
_SKIP_TRANSPARENT = {"H", "W"}
_SKIP_SEPARATOR = {"A", "E", "I", "O", "U", "Y"}


@lru_cache(maxsize=1 << 16)
def soundex(value: str) -> str:
    """Return the 4-character Soundex code of ``value``.

    Non-alphabetic characters are ignored; an empty or fully non-alphabetic
    input encodes to ``"0000"`` so blocking on the code never raises.
    Memoised per distinct value (bounded): blocking encodes every record's
    name attributes, and names repeat.

    >>> soundex("Robert")
    'R163'
    >>> soundex("Rupert")
    'R163'
    >>> soundex("Clifford") == soundex("Clivord")
    True
    >>> soundex("")
    '0000'
    """
    letters = [ch for ch in value.upper() if ch.isalpha()]
    if not letters:
        return "0000"

    first = letters[0]
    digits = []
    previous_code = _CODES.get(first, "")
    for ch in letters[1:]:
        if ch in _SKIP_TRANSPARENT:
            continue
        if ch in _SKIP_SEPARATOR:
            previous_code = ""
            continue
        code = _CODES.get(ch)
        if code is None:
            previous_code = ""
            continue
        if code != previous_code:
            digits.append(code)
            previous_code = code
        if len(digits) == 3:
            break
    return (first + "".join(digits)).ljust(4, "0")


class SoundexMetric(StringMetric):
    """Binary similarity: 1.0 when Soundex codes agree, else 0.0.

    Thresholding at any θ in (0, 1] yields the "phonetically equal"
    operator.
    """

    name = "soundex"

    def similarity(self, left: str, right: str) -> float:
        return 1.0 if soundex(left) == soundex(right) else 0.0
