"""Reference DOPRI5 step attempt: the test oracle for ptb.dopri._attempt.

This is the step of the solver as it was written before the attempt was
unrolled per state length: one list comprehension per stage and a loop for
the error norm, over the Dormand-Prince 5(4) tableau spelled out entry by
entry.  The unrolled attempt must reproduce every stage, the new state and
the error sum of this code bit for bit.
"""

from __future__ import annotations

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)


def attempt(f, t, h_used, t_new, y, k1):
    """(k2, k3, k4, k5, k6, k7, y_new, s) of one step of size h_used from
    (t, y) with first stage k1; s is the sum of the squared error components
    scaled by 1 + max(|y|, |y_new|)."""
    k2 = f(t + _C2 * h_used, [a + h_used * (_A21 * c1) for a, c1 in zip(y, k1)])
    k3 = f(t + _C3 * h_used, [a + h_used * (_A31 * c1 + _A32 * c2)
                              for a, c1, c2 in zip(y, k1, k2)])
    k4 = f(t + _C4 * h_used, [a + h_used * (_A41 * c1 + _A42 * c2 + _A43 * c3)
                              for a, c1, c2, c3 in zip(y, k1, k2, k3)])
    k5 = f(t + _C5 * h_used, [a + h_used * (_A51 * c1 + _A52 * c2 + _A53 * c3 + _A54 * c4)
                              for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)])
    k6 = f(t + h_used, [a + h_used * (_A61 * c1 + _A62 * c2 + _A63 * c3 + _A64 * c4
                                      + _A65 * c5)
                        for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [a + h_used * (_B1 * c1 + _B3 * c3 + _B4 * c4 + _B5 * c5 + _B6 * c6)
             for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = f(t_new, y_new)
    s = 0.0
    for a, b, c1, c3, c4, c5, c6, c7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        if a < 0.0:
            a = -a
        if b < 0.0:
            b = -b
        r = (_E1 * c1 + _E3 * c3 + _E4 * c4 + _E5 * c5 + _E6 * c6 + _E7 * c7) \
            / (1.0 + (a if a > b else b))
        s += r * r
    return k2, k3, k4, k5, k6, k7, y_new, s
