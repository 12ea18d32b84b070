"""Blow-up exponents and the neck-integral limit constant.

The central object is the neck conductance integral

    J(delta) = integral over the neck window of (delta + |x|^2/R)^(1-p),

taken over x in [-w, w] for d = 2 and over the disk |x| <= w for d = 3.
As delta -> 0, delta^gamma * J(delta) tends to a finite constant C_o for
any window width w, with

    gamma = p - 3/2   (d = 2),      gamma = p - 2   (d = 3, p > 2),

while (p, d) = (2, 3) degenerates to a logarithm: J ~ pi*R*log(1/delta).
The limit constant is (`c_o_quadrature`)

    d = 2:  C_o = sqrt(R) * B(1/2, p - 3/2),
    d = 3:  C_o = pi * R / (p - 2),

whatever the window width, with B the beta function.  A run needs only
gamma and C_o, never J itself.  The closed forms of J are the test oracle
`tests/neck.py`: the tests check gamma against the slope of J down a
delta ladder, and C_o against delta^gamma * J at a tiny delta.

`predict` states the gap law gap ~ (R0/C_o)^(1/(p-1)) delta^(gamma/(p-1))
by its exponents and coefficient, the `prediction` block of `report.json`;
it evaluates the law at no particular delta, and refuses the log pair,
which has none; only `table_consistency_report` reports that pair.

For integer p the limit constant has closed forms (`c_o_table`).  In
d = 2 the table and the limit agree:

    C_o = pi * sqrt(R) * prod_{k=1}^{p-2} (k - 1/2)/k.

In d = 3 the tabulated closed forms are smaller than the disk-integral
limit pi*R/(p - 2) by the factor 2^(p-2); both values are reported side
by side (`table_consistency_report`) and the mismatch is flagged rather
than silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LogCaseError",
    "UnsupportedRegimeError",
    "AsymptoticPrediction",
    "ConstantsReport",
    "gamma_exponent",
    "is_log_case",
    "wallis_product",
    "c_o_table",
    "c_o_quadrature",
    "predict",
    "table_consistency_report",
]

class LogCaseError(ValueError):
    """Raised when (p, d) = (2, 3): the power-law constant degenerates."""


class UnsupportedRegimeError(ValueError):
    """Raised for d > p, outside the blow-up regime covered here."""


def is_log_case(p: float, d: int) -> bool:
    """True exactly for the degenerate pair (p, d) = (2, 3)."""
    return d == 3 and p == 2


def _check_pd(p: float, d: int) -> None:
    if d not in (2, 3):
        raise ValueError(f"dimension d={d} must be 2 or 3")
    if not math.isfinite(p):
        raise ValueError(f"exponent p={p} must be finite")
    if p < 2.0:
        raise ValueError(f"exponent p={p} must be >= 2")
    if d > p and not is_log_case(p, d):
        raise UnsupportedRegimeError(
            f"(p, d)=({p}, {d}) with d > p is outside the supported blow-up regime"
        )


def _check_R(R: float) -> None:
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"radius R={R} must be positive and finite")


def gamma_exponent(p: float, d: int) -> float:
    """Blow-up exponent gamma(p, d) of the neck integral.

    Raises LogCaseError for (2, 3), where the integral grows like
    log(1/delta) instead of a power.
    """
    _check_pd(p, d)
    if is_log_case(p, d):
        raise LogCaseError("(p, d) = (2, 3) is the logarithmic case; no power exponent")
    if d == 2:
        return p - 1.5
    return p - 2.0


def wallis_product(p: int) -> float:
    """prod_{k=1}^{p-2} (k - 1/2)/k; the empty product at p = 2 is 1.

    Equals (1/pi) * integral of (1 + t^2)^(1-p) over the real line.
    """
    if p < 2 or int(p) != p:
        raise ValueError(f"wallis_product needs an integer p >= 2, got {p}")
    out = 1.0
    for k in range(1, int(p) - 1):
        out *= (k - 0.5) / k
    return out


def c_o_table(p: int, d: int, R: float) -> float:
    """Closed-form limit constant for integer p.

    d = 2: pi * sqrt(R) * wallis_product(p).  d = 3: the tabulated pattern
    pi * R / (2^(p-2) * (p-2)), which matches the explicitly printed
    p = 3, 4 entries; see `table_consistency_report` for how it compares
    against the direct disk-integral limit.
    """
    _check_pd(p, d)
    if int(p) != p:
        raise ValueError(f"c_o_table needs integer p (got {p}); use c_o_quadrature")
    p = int(p)
    _check_R(R)
    if d == 2:
        return math.pi * math.sqrt(R) * wallis_product(p)
    if is_log_case(p, d):
        raise LogCaseError("(p, d) = (2, 3): no power-law table entry")
    return math.pi * R / (2.0 ** (p - 2) * (p - 2))


def c_o_quadrature(p: float, d: int, R: float) -> float:
    """Limit constant C_o = lim_{delta -> 0} delta^gamma * J(delta).

    The same for every window width: sqrt(R) * B(1/2, gamma) in d = 2,
    with B(1/2, a) = Gamma(1/2) Gamma(a) / Gamma(a + 1/2), and
    pi * R / gamma in d = 3, with gamma = `gamma_exponent(p, d)`, so the
    log pair raises LogCaseError.  Raises ValueError where Gamma(p - 1)
    overflows (p above about 172).
    """
    gamma = gamma_exponent(p, d)
    _check_R(R)
    if d == 2:
        try:
            B = math.sqrt(math.pi) * math.gamma(gamma) / math.gamma(gamma + 0.5)
        except OverflowError:
            raise ValueError(
                f"exponent p={p} is too large: Gamma(p - 1) overflows a float"
            ) from None
        return math.sqrt(R) * B
    return math.pi * R / gamma


@dataclass(frozen=True)
class AsymptoticPrediction:
    """The predicted power law, as `report.json` writes it.

    gap ~ gap_coefficient * delta^gap_exponent and grad_max ~ gap/delta,
    so grad_exponent = gap_exponent - 1, with gap_coefficient =
    (R0/C_o)^(1/(p-1)) and gap_exponent = gamma/(p-1).
    """

    p: float
    d: int
    R: float
    R0: float
    C_o: float
    gamma: float
    gap_exponent: float
    grad_exponent: float
    gap_coefficient: float


def predict(p: float, d: int, R: float, R0: float, *, C_o: float) -> AsymptoticPrediction:
    """The gap law (T2 - T1)^(p-1) delta^(-gamma) -> R0/C_o as exponents and
    a coefficient.

    The log pair (p, d) = (2, 3) has no power law and raises LogCaseError,
    as `gamma_exponent` does.  R0 must be finite and not negative (swap
    the particle labels if the measured value is negative); R0 = 0 gives a
    zero coefficient.  C_o, the limit constant, must be positive and finite.
    """
    _check_R(R)
    gamma = gamma_exponent(p, d)
    if not math.isfinite(R0):
        raise ValueError(f"flux constant R0={R0} must be finite")
    if R0 < 0.0:
        raise ValueError(
            f"R0={R0} < 0: swap the particle labels so the flux constant is positive"
        )
    if not (math.isfinite(C_o) and C_o > 0.0):
        raise ValueError(f"limit constant C_o={C_o} must be positive and finite")
    gap_exp = gamma / (p - 1.0)
    return AsymptoticPrediction(
        p=p, d=d, R=R, R0=R0, C_o=C_o, gamma=gamma,
        gap_exponent=gap_exp, grad_exponent=gap_exp - 1.0,
        gap_coefficient=(R0 / C_o) ** (1.0 / (p - 1.0)),
    )


@dataclass(frozen=True)
class ConstantsReport:
    """Side-by-side table and limit constants for one (p, d, R).

    `limit_value` is the limit constant C_o of `c_o_quadrature`, the
    closed-form delta -> 0 limit of delta^gamma * J, and `table_value` the
    integer-p table entry.  For d = 3 the limit is pi*R/(p-2) while the
    table pattern is smaller by 2^(p-2); `mismatch` flags any relative
    difference above TABLE_MISMATCH_RTOL, and for the log pair (2, 3),
    which has no power law, the tabulated value pi*R*log(R) is recorded
    next to the limit log-coefficient pi*R.
    """

    p: float
    d: int
    R: float
    gamma: float | None
    table_value: float | None
    limit_value: float | None
    log_coefficient: float | None = None
    table_log_value: float | None = None
    mismatch: bool = False
    ratio: float | None = None
    table_general_row: float | None = None
    note: str = ""


TABLE_MISMATCH_RTOL = 1e-4  # relative difference above which table and limit disagree


def table_consistency_report(p: float, d: int, R: float) -> ConstantsReport:
    """Compare the integer-p table constant against the delta -> 0 limit
    constant (`c_o_quadrature`, a closed form).

    d = 2 agrees to rounding; d = 3 is flagged with the ratio
    limit/table = 2^(p-2).  Non-integer p has no table entry and only the
    limit value is reported.
    """
    _check_pd(p, d)
    _check_R(R)
    if is_log_case(p, d):
        return ConstantsReport(
            p=p, d=d, R=R, gamma=None,
            table_value=None, limit_value=None,
            log_coefficient=math.pi * R,
            table_log_value=math.pi * R * math.log(R),
            mismatch=True,
            ratio=None,
            note=(
                "logarithmic case: the closed form gives J ~ pi*R*log(1/delta); the "
                "tabulated closed form pi*R*log(R) does not match that "
                "normalization and is reported verbatim"
            ),
        )
    gamma = gamma_exponent(p, d)
    quad = c_o_quadrature(p, d, R)
    if int(p) == p:
        table = c_o_table(int(p), d, R)
        ratio = quad / table
        mismatch = abs(quad - table) > TABLE_MISMATCH_RTOL * abs(table)
        note = ""
        general_row = None
        if d == 3:
            # the tabulated general-p formula disagrees with the explicit
            # p = 3, 4 cells by one more factor of 2; keep it visible too
            general_row = math.pi * R / (2.0 ** (int(p) - 1) * (int(p) - 2))
        if mismatch and d == 3:
            note = (
                "d = 3 disk-integral limit pi*R/(p-2) exceeds the tabulated "
                f"closed form by 2^(p-2) = {2.0 ** (p - 2):g}; both values kept "
                "(the tabulated general-p row is lower by yet another factor 2)"
            )
        return ConstantsReport(
            p=p, d=d, R=R, gamma=gamma, table_value=table,
            limit_value=quad, mismatch=mismatch, ratio=ratio,
            table_general_row=general_row, note=note,
        )
    return ConstantsReport(
        p=p, d=d, R=R, gamma=gamma, table_value=None, limit_value=quad,
        mismatch=False, ratio=None,
        note="non-integer p: limit value only",
    )
