"""CNOT circuits in the (theta, q) normal form.

A circuit built from CNOT and X gates is determined by an invertible
matrix theta and a phase vector q through the contract

    C† Z^u C = (-1)^{q.u} Z^{theta u}

while X supports map with the inverse transpose, C† X^w C = X^{theta^{-T} w},
with no sign.  On computational basis states C|v> = |theta^T v xor q>.
Appending CNOT(a->b) XORs theta column a into column b and q_a into q_b;
appending X(a) flips q_a.  Gates are replayed on the rows of theta^T, so
each CNOT is one XOR of n-bit ints.
"""

from __future__ import annotations

from typing import Iterable, List

from .gf2 import BitMatrix, SingularMatrixError, _inverse_rows, _transpose
from .tableau import CliffordTableau, Gate


class CnotCircuit:
    """Normal form of an X/CNOT circuit: invertible theta and phase vector q."""

    __slots__ = ("n", "theta", "q")

    def __init__(self, theta: BitMatrix, q: int = 0):
        if theta.n_rows != theta.n_cols:
            raise ValueError("theta must be square")
        n = theta.n_rows
        if q < 0 or q >> n:
            raise ValueError("q outside %d bits" % n)
        if not theta.is_invertible():
            raise SingularMatrixError("theta must be invertible")
        self.n = n
        self.theta = theta
        self.q = q

    @classmethod
    def _unchecked(cls, theta: BitMatrix, q: int) -> "CnotCircuit":
        """Circuit that takes theta, known invertible, and q, known to fit
        in its n bits, as they are: __init__'s checks skipped."""
        c = cls.__new__(cls)
        c.n = theta.n_rows
        c.theta = theta
        c.q = q
        return c

    @classmethod
    def identity(cls, n: int) -> "CnotCircuit":
        return cls(BitMatrix.identity(n), 0)

    @classmethod
    def from_gates(cls, n: int, gates: Iterable[Gate]) -> "CnotCircuit":
        c = cls.identity(n)
        c._replay(gates)
        return c

    def append(self, g: Gate) -> None:
        self._replay((g,))

    def _replay(self, gates: Iterable[Gate]) -> None:
        """Append the gates in order.  Row b of theta^T is column b of
        theta, so a CNOT(a->b) is one XOR of row a into row b there."""
        n, q = self.n, self.q
        cols = _transpose(self.theta.rows, n)
        for g in gates:
            if g.max_qubit() >= n:
                raise ValueError("gate acts outside %d qubits" % n)
            if g.name == "x":
                q ^= 1 << g.qubit
            elif g.name == "cnot":
                a, b = g.control, g.target
                cols[b] ^= cols[a]
                q ^= ((q >> a) & 1) << b
            else:
                raise ValueError("CNOT circuits admit only x and cnot gates")
        self.theta.rows[:] = _transpose(cols, n)
        self.q = q

    def gates(self) -> List[Gate]:
        return synthesize_cnot_from_theta(self.theta, self.q)

    def to_tableau(self) -> CliffordTableau:
        """Tableau images X_j -> X^{theta^{-T} e_j}, Z_j -> (-1)^{q_j} Z^{theta e_j},
        made here in key order, so the tableau takes them without re-checking them.
        Raises SingularMatrixError when theta is singular."""
        n, rows, q = self.n, self.theta.rows, self.q
        # theta^{-T} e_j is row j of theta^{-1}; theta e_j is column j of theta
        keys = _inverse_rows(rows, n) + [z << n for z in _transpose(rows, n)]
        return CliffordTableau._unchecked(n, keys, q << n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CnotCircuit)
            and self.n == other.n
            and self.theta == other.theta
            and self.q == other.q
        )

    def __hash__(self):
        return hash((self.n, self.theta, self.q))

    def __repr__(self) -> str:
        return "CnotCircuit(theta=%r, q=%d)" % (self.theta, self.q)


def synthesize_cnot_from_theta(theta: BitMatrix, q: int = 0) -> List[Gate]:
    """Gate list (CNOTs then trailing Xs) realizing the given normal form.

    Works on E = theta^T, where appending CNOT(a->b) adds row a to row b.
    E is reduced to the identity column by column; the recorded row
    operations, replayed in reverse, rebuild E from the identity.  At
    most n^2 CNOTs plus n X gates.
    """
    if theta.n_rows != theta.n_cols:
        raise ValueError("theta must be square")
    n = theta.n_rows
    e = theta.transpose()
    rows = list(e.rows)
    ops = []  # (a, b) meaning row_b ^= row_a
    for j in range(n):
        if not (rows[j] >> j) & 1:
            pick = None
            for i in range(j + 1, n):
                if (rows[i] >> j) & 1:
                    pick = i
                    break
            if pick is None:
                raise SingularMatrixError("theta must be invertible")
            rows[j] ^= rows[pick]
            ops.append((pick, j))
        for i in range(n):
            if i != j and ((rows[i] >> j) & 1):
                rows[i] ^= rows[j]
                ops.append((j, i))
    gates = [Gate("cnot", control=a, target=b) for a, b in reversed(ops)]
    for a in range(n):
        if (q >> a) & 1:
            gates.append(Gate("x", qubit=a))
    assert len(gates) <= n * n + n
    return gates
