"""CAFQA Clifford bootstrap (paper §6.1, ref [11]) on H2.

The hardware-efficient ansatz at all-zero angles prepares |0000> — a
terrible start for chemistry (zero electrons!).  CAFQA searches the
Clifford lattice {0, pi/2, pi, 3pi/2}^m with the polynomial-cost
stabilizer simulator and finds the Hartree–Fock determinant without a
single statevector simulation; continuous VQE then starts from there.

    python examples/cafqa_bootstrap.py
"""

import numpy as np

from repro.chem.fci import exact_ground_energy
from repro.chem.hamiltonian import build_molecular_hamiltonian
from repro.chem.molecule import h2
from repro.chem.scf import run_rhf
from repro.core.cafqa import cafqa_search
from repro.core.estimator import DirectEstimator
from repro.ir.library import hardware_efficient_ansatz
from repro.opt.scipy_wrap import LBFGSB
from repro.sim.batched import reverse_value_and_gradient
from repro.sim.plan import compile_circuit


def main() -> None:
    scf = run_rhf(h2())
    hq = build_molecular_hamiltonian(scf).to_qubit()
    e_fci = exact_ground_energy(hq, num_particles=2, sz=0)
    ansatz = hardware_efficient_ansatz(4, layers=2)
    est = DirectEstimator()

    def energy(p):
        return est.estimate(ansatz.bind(list(p)), hq)

    plan = compile_circuit(ansatz)

    def gradient(p):
        # the exact gradient from one reverse-mode sweep (a block of one
        # row; a fleet of optimizers would stack theirs, §6.2)
        return reverse_value_and_gradient(plan, hq, np.atleast_2d(p))[1][0]

    zero = np.zeros(ansatz.num_parameters)
    print(f"|0...0> start energy:   {energy(zero):+.6f} Ha")
    print(f"RHF energy:             {scf.energy:+.6f} Ha")
    print(f"FCI energy:             {e_fci:+.6f} Ha")

    search = cafqa_search(ansatz, hq, restarts=3)
    print(f"\nCAFQA best Clifford:    {search.energy:+.6f} Ha "
          f"({search.evaluations} stabilizer evaluations, no statevector)")

    for label, start in (("cold (zeros)", zero), ("CAFQA warm", search.angles)):
        res = LBFGSB(max_iterations=400).minimize(energy, start, gradient=gradient)
        print(f"VQE from {label:13s}: {res.fun:+.8f} Ha "
              f"(err {abs(res.fun - e_fci) * 1000:.5f} mHa, {res.nfev} evals)")

    print("\nThe zero-angle start is a stationary point of this ansatz "
          "(all gradients vanish), so gradient-based VQE never leaves it; "
          "the CAFQA initialization escapes the saddle for free and "
          "converges straight to FCI.")


if __name__ == "__main__":
    main()
