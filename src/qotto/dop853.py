"""DOP853, the 8th-order Dormand-Prince method of Hairer, Norsett and Wanner (Solving ODEs I,
Sec. II.5 and II.10), for the linear system dy/du = L(u) y. Every operation that decides a step
is the one ``scipy.integrate.solve_ivp(method="DOP853")`` performs on the right-hand side
``lambda u, y: L(np.array([u]))[0] @ y``, so the steps, end states and evaluation counts equal
scipy's bit for bit. All nodes of a step are known before its first stage runs, so L is
evaluated on them in one call per step attempt. It integrates forward from u = 0 and returns
the end state, with no options and no dense output.
"""

import math

import numpy as np

from .errors import IntegrationFailureError

# The 12-stage tableau of Hairer's DOP853 as scipy/integrate/_ivp/dop853_coefficients.py gives
# it (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc., 2003- SciPy Developers), without
# the dense-output rows. Row s of _A_ROWS is A[s, :s].
C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0])
_A_ROWS = (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
)
A = np.zeros((12, 12))
A[np.tril_indices(12, -1)] = np.concatenate(_A_ROWS)
B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259])
E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0])
E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0])

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8  # -1 / (q + 1), q = 7 the error estimator's order


#: nodes of a step's 12 right-hand sides in units of h past its start: stages 1-11, then the
#: end state, which shares the node u + h with stage 11 but not its state
_NODES = np.append(C[1:], 1.0)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _squared_norm(x):
    """``np.linalg.norm(x) ** 2`` of a complex vector, computed as numpy computes it."""
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im)) ** 2


def _initial_step(generator, y, f, u_end, rtol, atol):
    """Hairer's guess at the first step, at the cost of one right-hand-side evaluation."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, u_end)
    d2 = _rms((generator(np.array([h0]))[0] @ (y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, u_end)


def integrate(generator, u_end, y, rtol, atol):
    """State at u_end > 0 of dy/du = L(u) y from the complex y at u = 0, where generator(us)
    returns L at the nodes us as an array of shape (len(us), y.size, y.size). Each step's
    local error is held below atol + rtol |y|; a step below ten float spacings of u raises
    IntegrationFailureError."""
    a, b, e3, e5 = (m.astype(y.dtype) for m in (A, B, E3, E5))
    K = np.empty((13, y.size), dtype=y.dtype)  # K[0] is the right-hand side at u
    K[0] = generator(np.zeros(1))[0] @ y
    h_abs = _initial_step(generator, y, K[0], u_end, rtol, atol)
    # stage s reads y + h K[:s]^T a[s, :s] into z and writes its right-hand side to K[s]
    stages = [(K[:s].T, a[s, :s], K[s]) for s in range(1, 12)]
    z = np.empty_like(y)
    u = 0.0
    while u < u_end:
        min_step = 10 * math.ulp(u)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailureError(
                    "Required step size is less than spacing between numbers.")
            u_new = min(u + h_abs, u_end)
            h = u_new - u
            h_abs = abs(h)
            h_cast = np.array(h, dtype=y.dtype)  # as numpy casts h in y * h, but cast once
            L = generator(u + _NODES * h)
            for (k_t, a_s, k_s), L_s in zip(stages, L):
                np.dot(k_t, a_s, out=z)
                z *= h_cast
                z += y
                np.matmul(L_s, z, out=k_s)
            y_new = np.dot(K[:12].T, b)
            y_new *= h_cast
            y_new += y
            np.matmul(L[11], y_new, out=K[12])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = np.dot(K.T, e5)
            err /= scale
            err5 = _squared_norm(err)
            np.dot(K.T, e3, out=err)
            err /= scale
            err3 = _squared_norm(err)
            error_norm = (0.0 if err5 == 0 and err3 == 0
                          else abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * y.size))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        u, y = u_new, y_new
        K[0] = K[12]
    return y
