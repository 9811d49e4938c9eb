"""Hairer's DOP853, the Dormand-Prince 8(5,3) pair, and the transport of the
Picard-Fuchs frame it drives (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.10).

The nodes C and, row by row, the nonzero entries of A for the twelve stages,
then the thirteenth (FSAL) row at c = 1, which holds the eighth-order weights
B.  E5 is the fifth-order error vector; E3 = B - bhh is the third-order one.
The coefficients are the 30-digit values of Hairer's Fortran code.  They
and ``transport_segment`` sit in a module of their own so that
``picard_fuchs`` stays below the 4096 tokens past which CPython needs about
0.25 MB more to compile it.
"""

import cmath
import math

import numpy as np

from .errors import ConvergenceError

C = (0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
     0.118350341907227396726757197510, 0.281649658092772603273242802490,
     0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
     0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
     1.0, 1.0)
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    # the thirteenth row: the eighth-order weights B, at c = 1
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
)
_E5_ROW = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
           6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
           8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
           10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_BHH_ROW = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
            11: 0.220588235294117647058823529412e-1}


def _rows(rows) -> np.ndarray:
    out = np.zeros((len(rows), 12))
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i, j] = v
    return out


A = _rows(_A_ROWS)
B = A[12]
E5, _BHH = _rows((_E5_ROW, _BHH_ROW))
E3 = B - _BHH


# ---------------------------------------------------------------------------
# ODE transport in s = log y:  u = (w, theta w, theta^2 w),
# u' = (u2, u3, -(27 y u3 + 6 y u2)/(1 + 27 y))
# ---------------------------------------------------------------------------

# complex copies of the DOP853 rows [1, A] and [E5; E3]: complex products
# skip numpy's mixed-type path
_DOP_W = np.hstack([np.ones((13, 1)), A]).astype(complex)
_DOP_E = np.array([E5, E3], dtype=complex)
# Past |y| = e^690 ~ 1e299 the coefficients 27y/(1 + 27y) and 6y/(1 + 27y)
# equal their limits 1 and 2/9 in double precision (1/(27y) < 1e-300), and
# forming them from y would overflow before |y| reaches the largest double.
_FLAT_LOG_Y = 690.0


def transport_segment(s0: complex, s1: complex, u: np.ndarray, rtol: float) -> np.ndarray:
    """DOP853 transport of the 3x3 frame u along s0 -> s1 in log y.

    The frame is carried flattened row by row, so the right-hand side of all
    three solutions is one product u @ (I_3 kron hC) with the companion matrix
    C = direction * [[0, 0, 0], [1, 0, -b], [0, 1, -a]], a = 27y/(1 + 27y),
    b = 6y/(1 + 27y), scaled by the step h; only the a and b entries change
    from stage to stage.  The state and the twelve scaled stage derivatives
    h k are stacked as the rows of one 13 x 9 array, so stage i's state
    u + A[i, :i] @ (h k[:i]) is one product with the row [1, A[i, :i]], and
    the thirteenth row of A (the eighth-order weights b) gives the new
    solution.  An accepted step evaluates the right-hand side there and hands
    it on, rescaled to the next step, as that step's first (FSAL): eleven
    right-hand sides per attempt and one more per accepted step, none after
    the last.  Both error vectors come from one product with the [E5; E3]
    rows; with their norms e5, e3 against atol + rtol*|u| (atol = rtol),
    err = h e5^2 / sqrt(9 (e5^2 + e3^2/100)) sets the step factor
    0.9 err^(-1/8), clamped to [0.2, 5], from a first step of min(0.1,
    length).  A step still needed that falls below 1e-13 of the length
    raises ConvergenceError.  For log|y| >= 690 the a and b entries are
    their limits 1 and 2/9, so every finite target can be reached without
    overflow.
    """
    length = abs(s1 - s0)
    if length == 0:
        return u
    direction = (s1 - s0) / length
    t = 0.0
    h = h1 = min(0.1, length)        # h1: the step that row 1 of uk is scaled by
    hd = h1 * direction
    # block (r, r) of the 9x9 matrix is hC: its entry (j, i) sits at flat
    # index 30r + 9j + i
    flat = np.zeros(90, dtype=complex)
    blocks = flat.reshape(3, 30)
    unit, minus_db, minus_da = blocks[:, 9:20:10], blocks[:, 11], blocks[:, 20]
    unit.fill(hd)
    m = flat[:81].reshape(9, 9)

    def rhs(s: complex, ui: np.ndarray, out: np.ndarray) -> None:
        if s.real < _FLAT_LOG_Y:
            y = cmath.exp(s)
            a, b = 27.0 * y / (1.0 + 27.0 * y), 6.0 * y / (1.0 + 27.0 * y)
        else:
            a, b = 1.0, 2.0 / 9.0
        minus_da.fill(-hd * a)
        minus_db.fill(-hd * b)
        np.dot(ui, m, out)

    # row 0: the state at t; row 1 + j: h k_j
    uk = np.empty((13, 9), dtype=complex)
    stage_rows = [(_DOP_W[i, :i + 1], uk[:i + 1]) for i in range(13)]
    nodes = C
    ui = np.empty(9, dtype=complex)
    uk[0] = u.reshape(9)
    abs_u = np.abs(uk[0])
    rhs(s0, uk[0], uk[1])
    while True:
        step = min(h, length - t)
        last = step == length - t
        if step != h1:
            uk[1] *= step / h1
            h1, hd = step, step * direction
            unit.fill(hd)
        for i in range(1, 12):
            np.dot(*stage_rows[i], out=ui)
            rhs(s0 + (t + nodes[i] * step) * direction, ui, uk[i + 1])
        u_new = np.dot(*stage_rows[12])
        abs_new = np.abs(u_new)
        # |E @ (h k)| / (1 + max(|u|, |u_new|)) is h * rtol times the scaled error
        q = np.abs(np.dot(_DOP_E, uk[1:]))
        q /= np.maximum(abs_u, abs_new) + 1.0
        q *= q
        q5, q3 = q.sum(axis=1).tolist()
        err = q5 / (rtol * math.sqrt(9.0 * (q5 + 0.01 * q3))) if q5 != 0.0 else 0.0
        if err <= 1.0:
            t += step
            if last:
                return u_new.reshape(3, 3)
            uk[0] = u_new
            abs_u = abs_new
            rhs(s0 + t * direction, uk[0], uk[1])
        h = step * min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.125))
        if h < 1e-13 * length:
            raise ConvergenceError("transport step size underflow")
