"""QUADPACK's QAGS in Python floats: adaptive 21-point Gauss-Kronrod
quadrature with Wynn's epsilon-algorithm extrapolation.

A port of the routines dqagse, dqk21, dqpsrt and dqelg of Piessens,
de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK* (Springer, 1983),
operation for operation. Every sum and product is formed in the order the
Fortran forms it, and `** 1.5` calls the C library's `pow` as the compiled
routine does, so on IEEE doubles `quad` returns the same value and error
estimate as `scipy.integrate.quad` on the same finite interval, bit for bit.
The arrays keep QUADPACK's 1-based indices (slot 0 is unused), so each line
can be read against the Fortran.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# dqk21: Kronrod abscissae xgk(1..10) (xgk(11) = 0 is the centre); the even
# ones, xgk(2), xgk(4), ..., are the 10-point Gauss abscissae.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
# Kronrod weights wgk(1..10) and the centre weight wgk(11).
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525748733,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK11 = 0.149445554002916905664936468389821
# Gauss weights wg(1..5) of the abscissae xgk(2), xgk(4), ..., xgk(10).
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21 on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = [hlgth * x for x in _XGK]
    fc, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7, l8, r8, l9, r9, l10, r10 = [
        f(x) for x in (
            centr,
            centr - x1, centr + x1, centr - x2, centr + x2, centr - x3, centr + x3,
            centr - x4, centr + x4, centr - x5, centr + x5, centr - x6, centr + x6,
            centr - x7, centr + x7, centr - x8, centr + x8, centr - x9, centr + x9,
            centr - x10, centr + x10,
        )
    ]
    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10 = _WGK
    g1, g2, g3, g4, g5 = _WG
    s1, s2, s3, s4, s5 = l1 + r1, l2 + r2, l3 + r3, l4 + r4, l5 + r5
    s6, s7, s8, s9, s10 = l6 + r6, l7 + r7, l8 + r8, l9 + r9, l10 + r10
    # QUADPACK's loops: the Gauss abscissae xgk(2), xgk(4), ... first, then
    # the Kronrod-only xgk(1), xgk(3), ...; each sum is one left-to-right chain.
    resk = _WGK11 * fc
    resg = 0.0 + g1 * s2 + g2 * s4 + g3 * s6 + g4 * s8 + g5 * s10
    resabs = (
        abs(resk)
        + k2 * (abs(l2) + abs(r2)) + k4 * (abs(l4) + abs(r4)) + k6 * (abs(l6) + abs(r6))
        + k8 * (abs(l8) + abs(r8)) + k10 * (abs(l10) + abs(r10))
        + k1 * (abs(l1) + abs(r1)) + k3 * (abs(l3) + abs(r3)) + k5 * (abs(l5) + abs(r5))
        + k7 * (abs(l7) + abs(r7)) + k9 * (abs(l9) + abs(r9))
    )
    resk = (
        resk + k2 * s2 + k4 * s4 + k6 * s6 + k8 * s8 + k10 * s10
        + k1 * s1 + k3 * s3 + k5 * s5 + k7 * s7 + k9 * s9
    )
    reskh = resk * 0.5
    resasc = (
        _WGK11 * abs(fc - reskh)
        + k1 * (abs(l1 - reskh) + abs(r1 - reskh)) + k2 * (abs(l2 - reskh) + abs(r2 - reskh))
        + k3 * (abs(l3 - reskh) + abs(r3 - reskh)) + k4 * (abs(l4 - reskh) + abs(r4 - reskh))
        + k5 * (abs(l5 - reskh) + abs(r5 - reskh)) + k6 * (abs(l6 - reskh) + abs(r6 - reskh))
        + k7 * (abs(l7 - reskh) + abs(r7 - reskh)) + k8 * (abs(l8 - reskh) + abs(r8 - reskh))
        + k9 * (abs(l9 - reskh) + abs(r9 - reskh)) + k10 * (abs(l10 - reskh) + abs(r10 - reskh))
    )
    result = resk * hlgth
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list[float], iord: list[int],
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep iord descending in error; returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # only a subdivision that raised the error moves errmax up past nrmax
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many entries as bisections remain are kept in order
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin by walking up from the bottom
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list[float], res3la: list[float],
          nres: int) -> tuple[int, float, float, int]:
    """dqelg: one step of the epsilon algorithm on epstab[1..n].

    Returns (n, result, abserr, nres); epstab and res3la change in place.
    dqagse calls it with n >= 3 only: a table cut to one element ends
    extrapolation, so dqelg's n < 3 exit is left out.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements nearly equal: drop the rest of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1  # irregular table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def quad(f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float,
         limit: int = 50, panels: dict | None = None) -> tuple[float, float]:
    """Integral of f over the finite interval [a, b] with a < b, by dqagse.

    Returns (value, abserr) as `scipy.integrate.quad(f, a, b, epsabs=epsabs,
    epsrel=epsrel, limit=limit)` does. QUADPACK's ier flag is dropped, as
    scipy drops it after a warning: a caller certifies abserr itself.

    `panels`, if given, maps a subinterval (lo, hi) to its 21-point rule and
    is filled as the bisection goes. A rule is a pure function of f and its
    interval, so a later call with the same dict evaluates f only on
    subintervals no earlier call visited, and returns the same bits. A panel
    dict belongs to one integrand: reusing it for another f is wrong.
    """
    if not (-_OFLOW <= a < b <= _OFLOW):
        raise ValueError(f"need a finite interval a < b, got [{a}, {b}]")
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29)):
        raise ValueError("need limit >= 1, and epsrel above 50 eps when epsabs <= 0")

    if panels is None:
        panels = {}

    def qk21(lo: float, hi: float) -> tuple[float, float, float, float]:
        rule = panels.get((lo, hi))
        if rule is None:
            rule = panels[lo, hi] = _qk21(f, lo, hi)
        return rule

    result, abserr, defabs, resabs = qk21(a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if (
        abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd
        or limit == 1
        or abserr <= errbnd and abserr != resabs
        or abserr == 0.0
    ):
        return result, abserr

    alist = [0.0, a] + [0.0] * (limit - 1)
    blist = [0.0, b] + [0.0] * (limit - 1)
    rlist = [0.0, result] + [0.0] * (limit - 1)
    elist = [0.0, abserr] + [0.0] * (limit - 1)
    iord = [0, 1] + [0] * (limit - 1)
    rlist2 = [0.0] * 53  # dqelg's epstab(52)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ier = ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    summed = False  # leave by QUADPACK's label 115: sum rlist, report errsum
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = qk21(a1, b1)
        area2, error2, _, defab2 = qk21(a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # bad integrand behaviour at a point
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the smallest interval is next in line
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: first bisect the
            # larger intervals that are still in the ordered part of the list
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger_left = True
                    break
                nrmax += 1
            if larger_left:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    if not summed:
        # QUADPACK's label 100: keep the extrapolated result unless the
        # plain sum is the better of the two (its divergence test sets only ier)
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            else:
                summed = abserr > errsum
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result += rlist[k]
        abserr = errsum
    return result, abserr
