"""Named sequence generators used to parameterize kernel families.

Generators are deliberately restricted to a small set of built-ins
(power law, geometric, constant) plus literal finite sequences, so that
every experiment config is serializable and reproducible without
executing user code.

Two indexing conventions coexist:

* ``term(i)`` with ``i >= 1``: series convention, used for rank-one
  factors ``v_i``, diagonal weights ``g_i`` and eigenvalue laws.
* ``lag(k)`` with ``k >= 0``: lag convention, used for translation
  invariant kernels ``h(i - j)``.

Literal sequences anchor at ``term(1) == lag(0) == values[0]``; for the
analytic built-ins the two conventions are the same formula evaluated at
``i`` or ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Tri-state answers for analytic series questions.
YES = "yes"
NO = "no"
UNKNOWN = "unknown"


# B_2k / (2k)! for k = 1..8, the Euler-Maclaurin corrections of _zeta.
_ZETA_CORRECTIONS = tuple(
    b / math.factorial(2 * k) for k, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
         -3617 / 510), start=1))
_ZETA_N = 12


def _zeta(s: float) -> float:
    """Riemann zeta(s) for s > 1 by Euler-Maclaurin summation.

    The 11 terms n < N = 12 are summed directly; the tail from N on is
    N^(1-s)/(s-1) + N^(-s)/2 plus the Bernoulli corrections
    B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1), k = 1..8. The first
    omitted correction is below 2e-19 for every s > 1, far under the
    rounding of the sum.
    """
    n = float(_ZETA_N)
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    rising = s                      # s (s+1) ... (s+2k-2)
    power = n ** (-s - 1.0)         # N^(-s-2k+1)
    for k, c in enumerate(_ZETA_CORRECTIONS, start=1):
        tail += c * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= n * n
    head = 0.0
    for i in range(_ZETA_N - 1, 0, -1):    # smallest terms first
        head += float(i) ** -s
    return head + tail


def _number(x: float) -> str:
    """x as short :g text when that reads back as x, else its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


@dataclass(frozen=True)
class SequenceGenerator:
    """Base class; subclasses implement the actual sequence."""

    def term(self, i: int) -> float:
        """i-th series term, i >= 1."""
        if i < 1:
            raise DomainError(f"term index must be >= 1, got {i}")
        return self._term(i)

    def lag(self, k: int) -> float:
        """Value at lag k, k >= 0."""
        if k < 0:
            raise DomainError(f"lag must be >= 0, got {k}")
        return self._lag(k)

    def terms(self, n: int) -> np.ndarray:
        """First n terms as an array, term(1..n)."""
        if n < 0:
            raise DomainError(f"term count must be >= 0, got {n}")
        return self._terms(n)

    def _term(self, i: int) -> float:
        raise NotImplementedError

    def _terms(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def _lag(self, k: int) -> float:
        raise NotImplementedError

    # Analytic facts about the infinite series, used by the classifier.
    # Answers are "yes"/"no"/"unknown" and refer to sum_{i>=1} |term(i)|
    # and sum_{i>=1} term(i)^2 respectively.
    def abs_summable(self) -> str:
        return UNKNOWN

    def sq_summable(self) -> str:
        return UNKNOWN

    def abs_sum_limit(self) -> float | None:
        """Closed-form value of sum_{i>=1} |term(i)| when known, else None."""
        return None

    def nonnegative(self) -> bool:
        """True when every term is provably >= 0."""
        return False

    def support(self) -> int | None:
        """Index past which every term is zero, if finite."""
        return None

    def spec_string(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.spec_string()


@dataclass(frozen=True)
class PowerLaw(SequenceGenerator):
    """term(i) = i**exponent, lag(k) = k**exponent."""

    exponent: float

    def _term(self, i: int) -> float:
        return float(i) ** self.exponent

    def _lag(self, k: int) -> float:
        if k == 0:
            if self.exponent < 0:
                raise DomainError("power-law generator is undefined at lag 0 "
                                  "for negative exponents")
            return 1.0 if self.exponent == 0 else 0.0
        return float(k) ** self.exponent

    def _terms(self, n: int) -> np.ndarray:
        return np.arange(1, n + 1, dtype=float) ** self.exponent

    def abs_summable(self) -> str:
        return YES if self.exponent < -1 else NO

    def sq_summable(self) -> str:
        return YES if self.exponent < -0.5 else NO

    def abs_sum_limit(self) -> float | None:
        if self.exponent < -1:
            return _zeta(-self.exponent)
        return None

    def nonnegative(self) -> bool:
        return True

    def spec_string(self) -> str:
        return f"power:{_number(self.exponent)}"


@dataclass(frozen=True)
class Geometric(SequenceGenerator):
    """term(i) = ratio**i, lag(k) = ratio**k."""

    ratio: float

    def _term(self, i: int) -> float:
        return float(self.ratio) ** i

    def _lag(self, k: int) -> float:
        return float(self.ratio) ** k

    def _terms(self, n: int) -> np.ndarray:
        return self.ratio ** np.arange(1, n + 1, dtype=float)

    def abs_summable(self) -> str:
        return YES if abs(self.ratio) < 1 else NO

    def sq_summable(self) -> str:
        return YES if abs(self.ratio) < 1 else NO

    def abs_sum_limit(self) -> float | None:
        r = abs(self.ratio)
        if r < 1:
            return r / (1.0 - r)
        return None

    def nonnegative(self) -> bool:
        return self.ratio >= 0

    def spec_string(self) -> str:
        return f"geometric:{_number(self.ratio)}"


@dataclass(frozen=True)
class Constant(SequenceGenerator):
    """term(i) = lag(k) = value."""

    value: float

    def _term(self, i: int) -> float:
        return self.value

    def _lag(self, k: int) -> float:
        return self.value

    def _terms(self, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)

    def abs_summable(self) -> str:
        return YES if self.value == 0 else NO

    def sq_summable(self) -> str:
        return YES if self.value == 0 else NO

    def abs_sum_limit(self) -> float | None:
        return 0.0 if self.value == 0 else None

    def nonnegative(self) -> bool:
        return self.value >= 0

    def spec_string(self) -> str:
        return f"const:{_number(self.value)}"


@dataclass(frozen=True)
class Literal(SequenceGenerator):
    """A finite sequence, zero beyond its support."""

    values: tuple[float, ...]

    def _term(self, i: int) -> float:
        idx = i - 1
        return float(self.values[idx]) if idx < len(self.values) else 0.0

    def _lag(self, k: int) -> float:
        return float(self.values[k]) if k < len(self.values) else 0.0

    def _terms(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=float)
        m = min(n, len(self.values))
        out[:m] = self.values[:m]
        return out

    def abs_summable(self) -> str:
        return YES

    def sq_summable(self) -> str:
        return YES

    def abs_sum_limit(self) -> float | None:
        return float(np.abs(np.asarray(self.values)).sum())

    def nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)

    def support(self) -> int | None:
        return len(self.values)

    def spec_string(self) -> str:
        return "lit:" + ",".join(_number(v) for v in self.values)


def parse_generator(spec: str) -> SequenceGenerator:
    """Parse a "name:params" generator spec string.

    Supported forms: "power:EXP", "geometric:RATIO", "const:VALUE",
    "lit:V1,V2,...".
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise DomainError(f"malformed generator spec {spec!r}, expected 'name:params'")
    name, _, arg = spec.partition(":")
    name = name.strip().lower()

    def number(text: str) -> float:
        x = float(text)
        if not math.isfinite(x):
            raise DomainError(f"non-finite parameter {x} in generator spec "
                              f"{spec!r}")
        return x

    try:
        if name == "power":
            return PowerLaw(number(arg))
        if name == "geometric":
            return Geometric(number(arg))
        if name == "const":
            return Constant(number(arg))
        if name == "lit":
            vals = tuple(number(v) for v in arg.split(",") if v.strip() != "")
            if not vals:
                raise DomainError("literal generator needs at least one value")
            return Literal(vals)
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"bad numeric parameter in generator spec {spec!r}") from exc
    raise DomainError(f"unknown generator family {name!r} in {spec!r}")
