"""Phased Pauli strings with exact integer phase tracking.

A Pauli string is i**k * (W_0 tensor ... tensor W_{n-1}) with letters
W_j in {I, X, Y, Z} and the phase exponent k in {0, 1, 2, 3}. The phase
is never touched by floating point: products, commutators and sign
flips stay exact no matter how many operators are multiplied.

The letters are stored symplectically as two Python ints x and z
(I=(0,0), X=(1,0), Y=(1,1), Z=(0,1)), so a string of any length is two
integers plus k and n. Qubit 0 is the leftmost tensor factor and the most
significant bit, bit n-1, of x, of z and of computational basis labels;
this convention is shared by every module that consumes PauliString, so
x and z are directly the bit-flip and sign masks of the string's action
on a basis state. Products and commutation are popcounts on those masks
(the symplectic rule of Aaronson & Gottesman, quant-ph/0406196).
"""

from __future__ import annotations

from typing import Iterable

# Symplectic encoding of a letter as (x bit, z bit), and its inverse
# indexed by x | z << 1.
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF_BITS = "IXZY"

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


def _raw(x: int, z: int, k: int, n: int) -> "PauliString":
    """A string from already-valid masks, reduced phase and length."""
    out = object.__new__(PauliString)
    out._x = x
    out._z = z
    out._k = k
    out._n = n
    return out


class PauliString:
    """Immutable phased Pauli operator on n >= 1 qubits.

    Parameters
    ----------
    letters : str or iterable of str
        Letters from {I, X, Y, Z}, qubit 0 first.
    phase_exponent : int
        Power k of i in the overall phase i**k; reduced mod 4.
    """

    __slots__ = ("_x", "_z", "_k", "_n")

    def __init__(self, letters: Iterable[str], phase_exponent: int = 0):
        x = z = n = 0
        for c in letters:
            try:
                xb, zb = _BITS[c]
            except KeyError:
                raise ValueError(
                    f"unknown Pauli letter {c!r}; expected one of I, X, Y, Z"
                ) from None
            x = (x << 1) | xb
            z = (z << 1) | zb
            n += 1
        if n < 1:
            raise ValueError("a PauliString needs at least one qubit")
        self._x = x
        self._z = z
        self._k = int(phase_exponent) % 4
        self._n = n

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        """The +1 identity string on n qubits."""
        return cls.from_masks(0, 0, n)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse the text form: optional sign, optional 'i', then letters.

        Accepts e.g. "XZZXI", "-IZXXI", "+ZZXIX", "iXY", "-iZZ".
        """
        body = text.strip()
        k = 0
        if body.startswith("+"):
            body = body[1:]
        elif body.startswith("-"):
            k = 2
            body = body[1:]
        if body.startswith("i"):
            k += 1
            body = body[1:]
        if not body:
            raise ValueError(f"no Pauli letters in {text!r}")
        return cls(body, phase_exponent=k)

    @classmethod
    def from_masks(cls, x: int, z: int, n: int, phase_exponent: int = 0) -> "PauliString":
        """The string on n qubits with these symplectic masks (see x and z)."""
        if n < 1 or x < 0 or z < 0 or (x | z) >> n:
            raise ValueError(f"masks {x:#x}, {z:#x} do not fit {n} qubits")
        return _raw(x, z, int(phase_exponent) % 4, n)

    @classmethod
    def product(cls, factors: Iterable["PauliString"], n: int | None = None) -> "PauliString":
        """Ordered product of the factors; identity(n) if factors is empty."""
        result = None
        for p in factors:
            result = p if result is None else result * p
        if result is None:
            if n is None:
                raise ValueError("empty product needs an explicit qubit count")
            return cls.identity(n)
        return result

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def x(self) -> int:
        """Symplectic x mask: bit n-1-j is set iff letter j is X or Y."""
        return self._x

    @property
    def z(self) -> int:
        """Symplectic z mask: bit n-1-j is set iff letter j is Z or Y."""
        return self._z

    @property
    def phase_exponent(self) -> int:
        return self._k

    @property
    def phase(self) -> complex:
        """The exact phase i**k as a complex number (one of +1, +i, -1, -i)."""
        return _PHASE_VALUES[self._k]

    @property
    def letters(self) -> str:
        """Letters without the phase, e.g. "ZZXIX"."""
        x, z = self._x, self._z
        return "".join(
            _LETTER_OF_BITS[(x >> s & 1) | (z >> s & 1) << 1]
            for s in range(self._n - 1, -1, -1)
        )

    def letter(self, j: int) -> str:
        if not 0 <= j < self._n:
            raise IndexError(f"qubit {j} out of range for {self._n} qubits")
        s = self._n - 1 - j
        return _LETTER_OF_BITS[(self._x >> s & 1) | (self._z >> s & 1) << 1]

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self._x | self._z).bit_count()

    def is_hermitian(self) -> bool:
        """True iff the phase is real (+1 or -1)."""
        return self._k % 2 == 0

    # ------------------------------------------------------------------
    # algebra

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self._n != other._n:
            raise ValueError(
                f"length mismatch: cannot multiply strings on {self._n} and {other._n} qubits"
            )
        x1, z1, x2, z2 = self._x, self._z, other._x, other._z
        x3 = x1 ^ x2
        z3 = z1 ^ z2
        # Per-qubit phase from W(x1,z1)W(x2,z2) = i**d W(x3,z3), derived by
        # passing through the X^x Z^z form (Y = i X Z), summed over qubits.
        d = (
            (x1 & z1).bit_count()
            + (x2 & z2).bit_count()
            + 2 * (z1 & x2).bit_count()
            - (x3 & z3).bit_count()
        )
        return _raw(x3, z3, (self._k + other._k + d) % 4, self._n)

    def commutes(self, other: "PauliString") -> bool:
        """True iff self and other commute (parity of anticommuting positions)."""
        if self._n != other._n:
            raise ValueError(
                f"length mismatch: cannot compare strings on {self._n} and {other._n} qubits"
            )
        clashes = (self._x & other._z) ^ (self._z & other._x)
        return clashes.bit_count() % 2 == 0

    def anticommutes(self, other: "PauliString") -> bool:
        return not self.commutes(other)

    def with_phase_exponent(self, k: int) -> "PauliString":
        return _raw(self._x, self._z, int(k) % 4, self._n)

    def __neg__(self) -> "PauliString":
        return self.with_phase_exponent(self._k + 2)

    # ------------------------------------------------------------------
    # register plumbing

    def window(self, start: int, stop: int) -> "PauliString":
        """The letters on qubits start..stop-1 as a plus-phase string."""
        if not 0 <= start < stop <= self._n:
            raise ValueError(f"window {start}..{stop} out of range for {self._n} qubits")
        shift, mask = self._n - stop, (1 << (stop - start)) - 1
        return _raw(self._x >> shift & mask, self._z >> shift & mask, 0, stop - start)

    # ------------------------------------------------------------------
    # text form and value semantics

    def __str__(self) -> str:
        return _PHASE_PREFIX[self._k] + self.letters

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self._k == other._k
            and self._n == other._n
            and self._x == other._x
            and self._z == other._z
        )

    def __hash__(self) -> int:
        return hash((self._k, self._n, self._x, self._z))
