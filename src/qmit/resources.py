"""Closed-form resource calculators: surface-code space-time volumes per
logical gate, the modular-system scale formula, and PEC's circuit-instance
and runtime cost models.

The per-gate volume fits (physical qubits x syndrome cycles, as a function
of total logical circuit size N) are

    cnot_volume(N) = 1610 + 45 (log10 N)^2.77
    t_volume(N)    = 3.13 + 3220 (log10 N)^3.20

Both are evaluated literally; outputs stay real (the fits are approximate,
so rounding to integer qubits would be false precision).

Every input must be finite (NaN included), and counts, rates and sizes
nonnegative; a cost beyond the float range is inf. Nothing here needs numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def _check_nonnegative(name: str, value) -> None:
    if not 0 <= value < math.inf:  # also false for NaN
        raise ValueError("%s must be finite and >= 0, got %r" % (name, value))


def _exp(x: float) -> float:
    """e^x, or inf where it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def cnot_volume(n: float) -> float:
    """Space-time volume of one logical CNOT in a circuit of size N."""
    if not n >= 1:
        raise ValueError("circuit size N must be >= 1")
    return 1610.0 + 45.0 * math.log10(n) ** 2.77


def t_volume(n: float) -> float:
    """Space-time volume of one logical T gate in a circuit of size N."""
    if not n >= 1:
        raise ValueError("circuit size N must be >= 1")
    return 3.13 + 3220.0 * math.log10(n) ** 3.20


@dataclass(frozen=True)
class FtOverheadReport:
    n_cnot: float
    n_t: float
    circuit_size: float  # N used in the per-gate fits
    cnot_volume: float  # per gate
    t_volume: float  # per gate
    total_cnot_volume: float
    total_t_volume: float

    @property
    def total_volume(self) -> float:
        return self.total_cnot_volume + self.total_t_volume


def ft_report(n_cnot_logical: float, n_t_logical: float,
              circuit_size: float | None = None) -> FtOverheadReport:
    """Totals = counts x per-gate volumes at N = total circuit size.

    Because the per-gate volumes depend on N, totals are not additive
    across reports; they only grow with the counts.  The fits assume all
    logical error budgets at their defaults, so real circuits with tighter
    fidelity targets cost more.
    """
    _check_nonnegative("n_cnot", n_cnot_logical)
    _check_nonnegative("n_t", n_t_logical)
    if circuit_size is not None:
        _check_nonnegative("circuit_size", circuit_size)
    # the count sum may be below 1; a given N below 1 is the fits' to refuse
    n = circuit_size if circuit_size is not None else max(n_cnot_logical + n_t_logical, 1.0)
    vc = cnot_volume(n)
    vt = t_volume(n)
    return FtOverheadReport(
        n_cnot=n_cnot_logical,
        n_t=n_t_logical,
        circuit_size=n,
        cnot_volume=vc,
        t_volume=vt,
        total_cnot_volume=n_cnot_logical * vc,
        total_t_volume=n_t_logical * vt,
    )


@dataclass(frozen=True)
class ModularSystem:
    """q qubits/chip, m chips/QPU, l microwave-linked QPUs, t optically
    linked groups, p-fold classical parallelization."""

    q: int
    m: int
    l: int
    t: int
    p: int

    def __post_init__(self):
        for name in ("q", "m", "l", "t", "p"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError("factor %s must be an integer >= 1" % name)


def modular_scale(system: ModularSystem) -> int:
    """Total effective qubit count n = q * m * l * t * p."""
    return system.q * system.m * system.l * system.t * system.p


def runtime_estimate(n: int, d: int, lambda_bar: float, beta: float) -> float:
    """Total PEC runtime d * (e^{4 lambda_bar})^{d n} * beta in units of beta,
    for n qubits, d layers, average rate lambda_bar and beta per layer."""
    for name, value in (("n", n), ("d", d), ("lambda_bar", lambda_bar), ("beta", beta)):
        _check_nonnegative(name, value)
    if beta == 0:
        return 0.0  # not inf * 0 = nan where the overhead factor overflows
    try:
        return d * _exp(4.0 * lambda_bar) ** (d * n) * beta
    except OverflowError:  # the power is beyond the float range
        return math.inf


def pec_instances(gamma_squared: float, eps: float) -> float:
    """PEC circuit instances gamma^2 / eps^2 for precision eps, inf beyond
    the float range; eps must be finite and positive."""
    if not 0 < eps < math.inf:  # also false for NaN
        raise ValueError("eps must be finite and positive, got %r" % eps)
    eps2 = eps ** 2  # 0.0 below eps of about 1.5e-162: the count is then inf
    return gamma_squared / eps2 if eps2 else math.inf


# noisy layers per Trotter step: a step of the chain runs its even and its
# odd bonds as two blocks
LAYERS_PER_STEP = 2


def overhead_table(n: int, trotter_steps_list, lambda_grid, eps: float = 1.0):
    """`pec_instances` of gamma^2 = e^{4 lambda d n} per (steps, lambda)
    cell, with d = LAYERS_PER_STEP * steps: a fixed 2 layers per step.
    lambda is the per-qubit per-layer average rate."""
    steps_list = list(trotter_steps_list)
    grid = list(lambda_grid)
    if not steps_list or not grid:
        raise ValueError("grids must be nonempty")
    _check_nonnegative("n", n)
    for steps in steps_list:
        _check_nonnegative("steps", steps)
    for lam in grid:
        _check_nonnegative("lambda", lam)
    rows = []
    for steps in steps_list:
        for lam in grid:
            d = LAYERS_PER_STEP * steps
            instances = pec_instances(_exp(4.0 * lam * d * n), eps)
            rows.append({"lambda": lam, "steps": steps, "layers": d, "instances": instances})
    return rows
