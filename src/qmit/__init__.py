"""qmit: a desk-scale quantum error-mitigation testbed.

Exact Pauli algebra and statevector/density simulation, a Heisenberg-chain
Trotter benchmark, sparse Pauli-Lindblad noise with rate learning,
probabilistic error cancellation and zero-noise extrapolation, wire-cut
circuit knitting, variational quantum time evolution, and closed-form
fault-tolerance/modularity cost models, all behind one CLI.

Each public name is imported from its submodule on first access (PEP 562),
so ``import qmit`` loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# the largest shot count numpy's binomial and multinomial samplers accept
# (a C long); here, not in `simulator`, so the CLI bounds --shots without numpy
MAX_SHOTS = 2 ** 63 - 1
# PEC samples per call, and samples x cuts per sampled knitting call: one
# float64 each is 1 GiB, the largest array either call allocates
MAX_SAMPLES = 2 ** 27
# pooled PEC threads at once, each holding up to pec.AMPLITUDE_BUDGET amplitudes (16 MiB)
MAX_WORKERS = 64


class ParseError(ValueError):
    """Syntax or validation error with a 1-based source location."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


_SUBMODULE = {
    name: module
    for module, names in {
        "pauli": "Observable PauliString format_pauli parse_pauli",
        "circuits": "Gate Layer QuantumCircuit",
        "simulator": "DensityMatrix Statevector evolve_exact expectation philox_rng"
                     " run sample_counts",
        "hamiltonian": "SpinChainHamiltonian build choose_steps trotter_bound_order1"
                       " trotter_circuit",
        "noise": "PauliLindbladModel UnidentifiableModelError learn_rates"
                 " learn_rates_from_model pauli_fidelity virtual_distillation_expectation",
        "pec": "MitigatedEstimate QuasiProbabilityDecomposition gamma_total invert_channel"
               " noisy_expectation pec_estimate sampling_overhead zne_estimate",
        "knit": "CutPlan execute_plan plan_wire_cut",
        "varqte": "Ansatz FixedElement RotationElement VarQTETrajectory compute_M compute_V"
                  " compute_mclachlan evolve hardware_efficient_ansatz state_and_derivatives",
        "resources": "FtOverheadReport ModularSystem cnot_volume ft_report modular_scale"
                     " overhead_table runtime_estimate t_volume",
        "circuit_io": "parse serialize",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name in _SUBMODULE.values():  # `qmit.pec` after a bare `import qmit`
        return importlib.import_module("." + name, __name__)
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


__all__ = ["__version__", "ParseError", *_SUBMODULE]
