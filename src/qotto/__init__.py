"""Two-qubit quantum Otto cycle with finite single-qubit baths.

One qubit is the working medium, a second qubit acts as the bath; an
engineered exchange coupling thermalizes the medium exactly. The package
provides the paper's results -- the closed-form joint state, the exact master
equation in GKLS form, the CP-divisibility witness and the weak-coupling and
strongly coupled (Markovian, non-Markovian, tabulated) Otto cycles -- and the
routes that audit them: an independent ODE oracle and the 4x4 thermodynamic
functionals. It needs numpy alone.

Each name is imported from its home module (``from qotto.cycle import
strong_cycle``); ``import qotto`` loads no submodule and not numpy.
"""

__version__ = "0.1.0"
