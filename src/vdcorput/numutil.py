"""Nearest-integer arithmetic, the one integer rule, e(x), sawtooth functions,
correctly rounded summation, and the batched bisection behind every sign
change the error budget locates.

``csum`` returns math.fsum's value of each part, bit for bit: below
``_EXTRACT_MIN`` values by math.fsum itself, from there on by error-free
extraction in a few array passes, which is correctly rounded as well, so the
choice never changes a value.

The sawtooth ladder used throughout the package:

    {x}        fractional part, in [0, 1)
    s(x)       {x} - 1/2
    psi(x)     s(x) for non-integer x, 0 at integers
    psi(x, e)  the modified sawtooth, the conditionally convergent bilateral
               series -(1/2 pi i) sum_{0<|r|<R} e(rx)/(r+e) as R -> oo

plus the nearest-integer triple (nearest, signed fractional part, distance
to nearest) as a small value type.

psi(x, e) has a closed form: the partial-fraction expansion of pi/sin(pi e)
sums the series exactly, so ``modified_sawtooth`` evaluates no partial sum
and needs no truncation.  Its real and imaginary parts are written as
quotients of Taylor series that cancel nothing, which keeps a few ulps of
max(|psi|, |e|) from e = 0 (where it is psi(x)) through subnormal e to 1/2.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi

# ---------------------------------------------------------------------------
# scalar sawtooth helpers
# ---------------------------------------------------------------------------

def floor_frac(x: float) -> float:
    """Fractional part {x} in [0, 1)."""
    return x - math.floor(x)


def sawtooth_s(x: float) -> float:
    """s(x) = {x} - 1/2."""
    return floor_frac(x) - 0.5


def sawtooth_psi(x: float) -> float:
    """The smoothed sawtooth: s(x) off the integers, 0 on them."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    if x == math.floor(x):
        return 0.0
    return sawtooth_s(x)


def check_finite(**limits: float) -> None:
    """Raise ValueError naming the first keyword whose value is not finite."""
    for name, x in limits.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {name}={x}")


def check_interval(a: float, b: float) -> None:
    """Raise ValueError when a limit of [a, b] is not finite or b < a."""
    check_finite(a=a, b=b)
    if b < a:
        raise ValueError(f"empty orientation: b={b} < a={a}")


def is_integer_like(x: float) -> bool:
    """Floating integer detection: |x - round(x)| <= 1e-9 max(1, |x|)."""
    return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))


# ---------------------------------------------------------------------------
# nearest-integer decomposition and the integer rule
# ---------------------------------------------------------------------------

class NearestIntDecomp(NamedTuple):
    """Nearest integer, signed offset and distance of x.

    ``nearest + signed_frac == x`` up to rounding and ``dist == |signed_frac|``.
    """

    nearest: int
    signed_frac: float
    dist: float


def nearest_decomp(x: float) -> NearestIntDecomp:
    """Decompose x relative to its nearest integer.

    Half-integers round toward +infinity, so 3.5 has nearest integer 4 and
    signed fractional part -1/2; the signed part always lies in [-1/2, 1/2).
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    n = math.floor(x + 0.5)
    frac = x - n
    # floor(x + 0.5) can land on the wrong side when x + 0.5 rounds up to an
    # exact integer; repair so that frac stays in [-1/2, 1/2).
    if frac < -0.5:
        n -= 1
        frac = x - n
    elif frac >= 0.5:
        n += 1
        frac = x - n
    return NearestIntDecomp(n, frac, abs(frac))


def nearest_integer(x: float) -> NearestIntDecomp:
    """The integer rule, the one decision of whether x is an integer: where
    ``is_integer_like(x)`` and x is not a half-integer, x is taken as the
    integer round(x), with offset and distance 0; elsewhere the result is
    ``nearest_decomp(x)``.

    From |x| = 5e8 on the 1e-9 relative slack reaches 1/2, but a float whose
    fractional part x - floor(x) is exactly 1/2 is never an integer, so
    500000000.5 stays a half-integer: not halved as a limit, and not taken
    by round's half-even tie as the integer above it.
    """
    if is_integer_like(x) and x - math.floor(x) != 0.5:
        return NearestIntDecomp(round(x), 0.0, 0.0)
    return nearest_decomp(x)


def integer_range(lo: NearestIntDecomp, hi: NearestIntDecomp) -> Tuple[int, int, bool, bool]:
    """(n_lo, n_hi, lo_hit, hi_hit): the integers n_lo..n_hi between two
    decisions of ``nearest_integer`` and whether each end is one, the integer
    n_lo or n_hi itself."""
    # a non-integral value lies off its nearest integer by the signed offset
    return (lo.nearest + (lo.signed_frac > 0), hi.nearest - (hi.signed_frac < 0),
            lo.signed_frac == 0.0, hi.signed_frac == 0.0)


# ---------------------------------------------------------------------------
# e(x) = exp(2 pi i x)
# ---------------------------------------------------------------------------

# 8 192 doubles = 64 KiB: below glibc's 128 KiB mmap threshold (the phases, g
# and the kernel's few temporaries are reused, not mapped afresh), inside L2,
# and short of the 10 000 elements past which OpenBLAS splits a ddot over
# threads, so the direct sum's dot products reproduce.  The direct sum takes
# its terms in chunks of this many and ``cis_turns`` its values in blocks
CHUNK = 1 << 13


# e(k / 1024) for k = 0 ... 128, the first octant of the circle, one k a line:
# cos and sin of 2 pi k / 1024 correctly rounded, as float.hex (from 40-digit
# mpmath).  glibc's cos and sin of the rounded angle k * 2 pi / 1024 missed
# that value at 820 of the 1 024 nodes, so the table is literal, the same on
# every IEEE machine; one string compiles in a twentieth of the time of a
# tuple of 258 strings
_CIS_OCTANT = """
0x1.0000000000000p+0 0x0.0p+0
0x1.fffd8858e8a92p-1 0x1.921f0fe670071p-8
0x1.fff62169b92dbp-1 0x1.921d1fcdec784p-7
0x1.ffe9cb44b51a1p-1 0x1.2d936bbe30efdp-6
0x1.ffd886084cd0dp-1 0x1.92155f7a3667ep-6
0x1.ffc251df1d3f8p-1 0x1.f693731d1cf01p-6
0x1.ffa72effef75dp-1 0x1.2d865759455cdp-5
0x1.ff871dadb81dfp-1 0x1.5fc00d290cd43p-5
0x1.ff621e3796d7ep-1 0x1.91f65f10dd814p-5
0x1.ff3830f8d575cp-1 0x1.c428d12c0d7e3p-5
0x1.ff095658e71adp-1 0x1.f656e79f820e0p-5
0x1.fed58ecb673c4p-1 0x1.1440134d709b3p-4
0x1.fe9cdad01883ap-1 0x1.2d52092ce19f6p-4
0x1.fe5f3af2e3940p-1 0x1.4661179272096p-4
0x1.fe1cafcbd5b09p-1 0x1.5f6d00a9aa419p-4
0x1.fdd539ff1f456p-1 0x1.787586a5d5b21p-4
0x1.fd88da3d12526p-1 0x1.917a6bc29b42cp-4
0x1.fd37914220b84p-1 0x1.aa7b724495c03p-4
0x1.fce15fd6da67bp-1 0x1.c3785c79ec2d5p-4
0x1.fc8646cfeb721p-1 0x1.dc70ecbae9fc9p-4
0x1.fc26470e19fd3p-1 0x1.f564e56a9730ep-4
0x1.fbc1617e44186p-1 0x1.072a047ba831dp-3
0x1.fb5797195d741p-1 0x1.139f0cedaf577p-3
0x1.fae8e8e46cfbbp-1 0x1.20116d4ec7bcfp-3
0x1.fa7557f08a517p-1 0x1.2c8106e8e613ap-3
0x1.f9fce55adb2c8p-1 0x1.38edbb0cd8d14p-3
0x1.f97f924c9099bp-1 0x1.45576b1293e5ap-3
0x1.f8fd5ffae41dbp-1 0x1.51bdf8597c5f2p-3
0x1.f8764fa714ba9p-1 0x1.5e214448b3fc6p-3
0x1.f7ea629e63d6ep-1 0x1.6a81304f64ab2p-3
0x1.f7599a3a12077p-1 0x1.76dd9de50bf31p-3
0x1.f6c3f7df5bbb7p-1 0x1.83366e89c64c6p-3
0x1.f6297cff75cb0p-1 0x1.8f8b83c69a60bp-3
0x1.f58a2b1789e84p-1 0x1.9bdcbf2dc4366p-3
0x1.f4e603b0b2f2dp-1 0x1.a82a025b00451p-3
0x1.f43d085ff92ddp-1 0x1.b4732ef3d6722p-3
0x1.f38f3ac64e589p-1 0x1.c0b826a7e4f63p-3
0x1.f2dc9c9089a9dp-1 0x1.ccf8cb312b286p-3
0x1.f2252f7763adap-1 0x1.d934fe5454311p-3
0x1.f168f53f7205dp-1 0x1.e56ca1e101a1bp-3
0x1.f0a7efb9230d7p-1 0x1.f19f97b215f1bp-3
0x1.efe220c0b95ecp-1 0x1.fdcdc1adfedf9p-3
0x1.ef178a3e473c2p-1 0x1.04fb80e37fdaep-2
0x1.ee482e25a9dbcp-1 0x1.0b0d9cfdbdb90p-2
0x1.ed740e7684963p-1 0x1.111d262b1f677p-2
0x1.ec9b2d3c3bf84p-1 0x1.172a0d7765177p-2
0x1.ebbd8c8df0b74p-1 0x1.1d3443f4cdb3ep-2
0x1.eadb2e8e7a88ep-1 0x1.233bbabc3bb71p-2
0x1.e9f4156c62ddap-1 0x1.294062ed59f06p-2
0x1.e9084361df7f2p-1 0x1.2f422daec0387p-2
0x1.e817bab4cd10dp-1 0x1.35410c2e18152p-2
0x1.e7227db6a9744p-1 0x1.3b3cefa0414b7p-2
0x1.e6288ec48e112p-1 0x1.4135c94176601p-2
0x1.e529f04729ffcp-1 0x1.472b8a5571054p-2
0x1.e426a4b2bc17ep-1 0x1.4d1e24278e76ap-2
0x1.e31eae870ce25p-1 0x1.530d880af3c24p-2
0x1.e212104f686e5p-1 0x1.58f9a75ab1fddp-2
0x1.e100cca2980acp-1 0x1.5ee27379ea693p-2
0x1.dfeae622dbe2bp-1 0x1.64c7ddd3f27c6p-2
0x1.ded05f7de47dap-1 0x1.6aa9d7dc77e17p-2
0x1.ddb13b6ccc23cp-1 0x1.7088530fa459fp-2
0x1.dc8d7cb410260p-1 0x1.766340f2418f6p-2
0x1.db6526238a09bp-1 0x1.7c3a9311dcce7p-2
0x1.da383a9668988p-1 0x1.820e3b04eaac4p-2
0x1.d906bcf328d46p-1 0x1.87de2a6aea963p-2
0x1.d7d0b02b8ecf9p-1 0x1.8daa52ec8a4b0p-2
0x1.d696173c9e68bp-1 0x1.9372a63bc93d7p-2
0x1.d556f52e93eb1p-1 0x1.993716141bdffp-2
0x1.d4134d14dc93ap-1 0x1.9ef7943a8ed8ap-2
0x1.d2cb220e0ef9fp-1 0x1.a4b4127dea1e5p-2
0x1.d17e7743e35dcp-1 0x1.aa6c82b6d3fcap-2
0x1.d02d4feb2bd92p-1 0x1.b020d6c7f4009p-2
0x1.ced7af43cc773p-1 0x1.b5d1009e15cc0p-2
0x1.cd7d9898b32f6p-1 0x1.bb7cf2304bd01p-2
0x1.cc1f0f3fcfc5cp-1 0x1.c1249d8011ee7p-2
0x1.cabc169a0b900p-1 0x1.c6c7f4997000bp-2
0x1.c954b213411f5p-1 0x1.cc66e9931c45ep-2
0x1.c7e8e52233cf3p-1 0x1.d2016e8e9db5bp-2
0x1.c678b3488739bp-1 0x1.d79775b86e389p-2
0x1.c5042012b6907p-1 0x1.dd28f1481cc58p-2
0x1.c38b2f180bdb1p-1 0x1.e2b5d3806f63bp-2
0x1.c20de3fa971b0p-1 0x1.e83e0eaf85114p-2
0x1.c08c426725549p-1 0x1.edc1952ef78d6p-2
0x1.bf064e15377ddp-1 0x1.f3405963fd067p-2
0x1.bd7c0ac6f952ap-1 0x1.f8ba4dbf89abap-2
0x1.bbed7c49380eap-1 0x1.fe2f64be71210p-2
0x1.ba5aa673590d2p-1 0x1.01cfc874c3eb7p-1
0x1.b8c38d27504e9p-1 0x1.0485626ae221ap-1
0x1.b728345196e3ep-1 0x1.073879922ffeep-1
0x1.b5889fe921405p-1 0x1.09e907417c5e1p-1
0x1.b3e4d3ef55712p-1 0x1.0c9704d5d898fp-1
0x1.b23cd470013b4p-1 0x1.0f426bb2a8e7ep-1
0x1.b090a58150200p-1 0x1.11eb3541b4b23p-1
0x1.aee04b43c1474p-1 0x1.14915af336cebp-1
0x1.ad2bc9e21d511p-1 0x1.1734d63dedb49p-1
0x1.ab7325916c0d4p-1 0x1.19d5a09f2b9b8p-1
0x1.a9b66290ea1a3p-1 0x1.1c73b39ae68c8p-1
0x1.a7f58529fe69dp-1 0x1.1f0f08bbc861bp-1
0x1.a63091b02fae2p-1 0x1.21a799933eb59p-1
0x1.a4678c8119ac8p-1 0x1.243d5fb98ac1fp-1
0x1.a29a7a0462782p-1 0x1.26d054cdd12dfp-1
0x1.a0c95eabaf937p-1 0x1.2960727629ca8p-1
0x1.9ef43ef29af94p-1 0x1.2bedb25faf3eap-1
0x1.9d1b1f5ea80d5p-1 0x1.2e780e3e8ea17p-1
0x1.9b3e047f38741p-1 0x1.30ff7fce17035p-1
0x1.995cf2ed80d22p-1 0x1.338400d0c8e57p-1
0x1.9777ef4c7d742p-1 0x1.36058b10659f3p-1
0x1.958efe48e6dd7p-1 0x1.3884185dfeb22p-1
0x1.93a22499263fbp-1 0x1.3affa292050b9p-1
0x1.91b166fd49da2p-1 0x1.3d78238c58344p-1
0x1.8fbcca3ef940dp-1 0x1.3fed9534556d4p-1
0x1.8dc45331698ccp-1 0x1.425ff178e6bb1p-1
0x1.8bc806b151741p-1 0x1.44cf325091dd6p-1
0x1.89c7e9a4dd4aap-1 0x1.473b51b987347p-1
0x1.87c400fba2ebfp-1 0x1.49a449b9b0939p-1
0x1.85bc51ae958ccp-1 0x1.4c0a145ec0004p-1
0x1.83b0e0bff976ep-1 0x1.4e6cabbe3e5e9p-1
0x1.81a1b33b57accp-1 0x1.50cc09f59a09bp-1
0x1.7f8ece3571771p-1 0x1.5328292a35596p-1
0x1.7d7836cc33db2p-1 0x1.5581038975137p-1
0x1.7b5df226aafafp-1 0x1.57d69348ceca0p-1
0x1.79400574f55e5p-1 0x1.5a28d2a5d7250p-1
0x1.771e75f037261p-1 0x1.5c77bbe65018cp-1
0x1.74f948da8d28dp-1 0x1.5ec3495837074p-1
0x1.72d0837efff96p-1 0x1.610b7551d2cdfp-1
0x1.70a42b3176d7ap-1 0x1.63503a31c1be9p-1
0x1.6e74454eaa8afp-1 0x1.6591925f0783dp-1
0x1.6c40d73c18275p-1 0x1.67cf78491af10p-1
0x1.6a09e667f3bcdp-1 0x1.6a09e667f3bcdp-1
"""
_CIS_STEPS = 1024
_CIS_STEP_ANGLE = TWO_PI / _CIS_STEPS
# y + 1.5 * 2^52 rounds y (|y| < 2^51) to an integer, half to even, and holds
# that integer in the low bits of its significand
_RINT_SHIFT = 1.5 * 2.0 ** 52


def _cis_table() -> Tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of 2 pi k / 1024 for k = 0 ... 1023, from the octant by exact
    swaps and sign changes: e(1/4) = i and e(1/2) = -1 exactly, and no zero
    of the table is -0."""
    c8, s8 = np.array([float.fromhex(h) for h in _CIS_OCTANT.split()]).reshape(-1, 2).T
    # the rest of the first quadrant: e(k / 1024) = i conj(e((256 - k) / 1024))
    c = np.concatenate((c8, s8[127:0:-1]))
    s = np.concatenate((s8, c8[127:0:-1]))
    # the other three by multiplication with i, -1 and -i
    return np.concatenate((c, 0.0 - s, -c, s)), np.concatenate((s, c, 0.0 - s, -c))


_CIS_COS, _CIS_SIN = _cis_table()
# the same table as Python floats, for the scalar path
_CIS_COS_LIST, _CIS_SIN_LIST = _CIS_COS.tolist(), _CIS_SIN.tolist()


def _cis_block(f: np.ndarray, re: Optional[np.ndarray] = None,
               im: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """cis_turns of the 1-d f, into re and im where given, else into new
    arrays (one of them a temporary of the kernel)."""
    x = np.trunc(f)
    np.subtract(f, x, out=x)
    x *= _CIS_STEPS
    k = x + _RINT_SHIFT
    idx = k.view(np.int64) & (_CIS_STEPS - 1)
    k -= _RINT_SHIFT
    x -= k
    x *= _CIS_STEP_ANGLE
    x2 = np.multiply(x, x, out=k)
    sin_x = x2 * (1.0 / 120.0)
    sin_x -= 1.0 / 6.0
    sin_x *= x2
    sin_x *= x
    sin_x += x
    cos_m1 = np.multiply(x2, 1.0 / 24.0, out=x)
    cos_m1 -= 0.5
    cos_m1 *= x2
    c, s = np.take(_CIS_COS, idx), np.take(_CIS_SIN, idx)
    re = np.multiply(c, cos_m1, out=re)
    re -= np.multiply(s, sin_x, out=x2)
    re += c
    im = np.multiply(s, cos_m1, out=cos_m1 if im is None else im)
    im += np.multiply(c, sin_x, out=sin_x)
    im += s
    return re, im


def cis_turns(f) -> Tuple[np.ndarray, np.ndarray]:
    """(cos 2 pi {f}, sin 2 pi {f}), each part within 2^-52 of the exact value
    at the float f (about 2^-53 measured); new arrays, 0-d for a scalar.

    Tang's table method (ACM TOMS 15, 1989), in turns: u = f - trunc(f) is
    exact for every finite f (f - floor(f) rounds at a small negative f), and
    so is 1024 u = k + r with k = rint(1024 u), |r| <= 1/2.  e(k / 1024) =
    C + iS, k taken mod 1024, comes from the table and e(r / 1024) from short
    series in x = 2 pi r / 1024, |x| <= pi / 1024, truncated below 2^-60:
    cos = C + (C (cos x - 1) - S sin x), sin = S + (S (cos x - 1) + C sin x).
    Only IEEE +, -, *, trunc and a table lookup are used, elementwise, so the
    bits depend neither on the machine nor on the array's length.  The n
    values go through in round(n / CHUNK) blocks of equal length (one block
    up to 1.5 CHUNK values, so a direct-sum chunk is one), which keeps the
    temporaries in cache at any length.  A non-finite f has a nan remainder
    (and a table index from its nan's low bits, masked into range, with no
    cast), so it gives nan, with numpy's warning on inf - inf.
    """
    f = np.asarray(f, dtype=float)
    flat = f.reshape(-1)  # a 0-d input takes the array path, with its bits
    n = flat.size
    parts = max(1, round(n / CHUNK))
    if parts == 1:
        re, im = _cis_block(flat)
    else:
        re, im = np.empty_like(flat), np.empty_like(flat)
        for j in range(parts):
            block = slice(j * n // parts, (j + 1) * n // parts)
            _cis_block(flat[block], re[block], im[block])
    return re.reshape(f.shape), im.reshape(f.shape)


def _cis_scalar(f: float) -> Tuple[float, float]:
    """cis_turns of one float, bit for bit: the same IEEE operations in the
    same order on Python floats; nan for a non-finite f."""
    if not math.isfinite(f):
        return math.nan, math.nan
    x = (f - math.trunc(f)) * _CIS_STEPS
    k = (x + _RINT_SHIFT) - _RINT_SHIFT
    idx = int(k) & (_CIS_STEPS - 1)
    c, s = _CIS_COS_LIST[idx], _CIS_SIN_LIST[idx]
    x = (x - k) * _CIS_STEP_ANGLE
    x2 = x * x
    sin_x = ((x2 * (1.0 / 120.0) - 1.0 / 6.0) * x2) * x + x
    cos_m1 = (x2 * (1.0 / 24.0) - 0.5) * x2
    return (c * cos_m1 - s * sin_x) + c, (s * cos_m1 + c * sin_x) + s


def _is_0d(x) -> bool:
    """np.ndim(x) == 0 for a number or an array, without its cost on a float."""
    return isinstance(x, (int, float)) or getattr(x, "ndim", None) == 0


def amplitude_e(g, t):
    """g e(t) as g cos 2 pi {t} + i g sin 2 pi {t} from ``cis_turns``; 0-d
    inputs give a complex scalar.

    The parts are g times those of cis_turns(t), and the imaginary one gets
    + 0.0, which makes a -0 of g sin (a negative g at an integral t) +0, as
    g * exp(2j pi t) would.  A zero g gives a zero of either sign.  Two 0-d
    inputs take ``_cis_scalar``, with the same bits; a non-finite t gives nan
    there as well.
    """
    if _is_0d(g) and _is_0d(t):
        c, s = _cis_scalar(float(t))
        g = float(g)
        return np.complex128(complex(g * c, g * s + 0.0))
    c, s = cis_turns(t)
    g = np.asarray(g, dtype=float)
    out = np.empty(np.broadcast(g, c).shape, dtype=complex)
    np.multiply(g, c, out=out.real)
    np.multiply(g, s, out=out.imag)
    out.imag += 0.0
    return out if out.ndim else out[()]


# ---------------------------------------------------------------------------
# correctly rounded summation
# ---------------------------------------------------------------------------

# from this many values on, error-free extraction beats math.fsum.  On
# complex values on a 2-vCPU Intel Xeon VM, both took about 25 us at 500
# values; at 1 000, math.fsum took 48 us and the extraction 29 us
_EXTRACT_MIN = 600
# the extraction works through chunks of this many values, which stay in
# cache across its passes: on the same VM 9.1e6 values took 0.16 s this way
# and 0.52 s as one array
_EXTRACT_CHUNK = 1 << 16


def _extracted_sum(x: np.ndarray) -> Optional[float]:
    """math.fsum of the values of x, bit for bit, by a few array passes over
    each chunk of ``_EXTRACT_CHUNK`` values; None where a value is not finite
    or too close to overflow, or where the values sum to zero.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 2008):
    with max|y| <= 2^k and 2^m >= n + 2, q = (y + s) - s at s = 2^(k + m)
    keeps the bits of each value above s 2^-53, so sum(q) is exact in any
    order and so is the remainder y - q.  The nonzero remainders go through
    the same step until none are left, and math.fsum of the exact level totals
    is the correctly rounded total, as is math.fsum of the values.
    """
    levels = []
    for start in range(0, x.size, _EXTRACT_CHUNK):
        y = np.array(x[start:start + _EXTRACT_CHUNK], dtype=float)
        while y.size:
            big = max(y.max(), -y.min())
            e = math.frexp(big)[1] + (y.size + 1).bit_length()
            if not (math.isfinite(big) and e <= 1023):
                return None
            s = math.ldexp(1.0, e)
            q = y + s
            q -= s
            levels.append(float(q.sum()))
            y -= q
            y = y[y != 0.0]
    total = math.fsum(levels)
    # a zero total takes its sign by math.fsum's rule on the values themselves
    return total if total != 0.0 else None


def _correct_sum(x: np.ndarray) -> float:
    """math.fsum of the values of x; the plain IEEE sum where it raises."""
    if x.size >= _EXTRACT_MIN:
        total = _extracted_sum(x)
        if total is not None:
            return total
    values = x.tolist()
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return sum(values)


def csum(values: Sequence[complex]) -> complex:
    """Sum of complex values, correctly rounded in the real and the imaginary
    part: math.fsum of each part, bit for bit.

    The result does not depend on the order of the values.  From
    ``_EXTRACT_MIN`` values on, each part is summed by error-free extraction
    in a few array passes.  Parts that are not finite fall back to the plain
    IEEE sum (inf or nan) instead of raising.
    """
    z = np.asarray(values, dtype=np.complex128)
    return complex(_correct_sum(z.real), _correct_sum(z.imag))


# ---------------------------------------------------------------------------
# sign changes, bisected in one batch
# ---------------------------------------------------------------------------

# the width of a float bracket can halve at most 2 098 times (2^1024 to
# 2^-1074), so bisection reaches the float limit within this many steps
FLOAT_HALVINGS = 2100
# the levels of its bisection that a bracket can go down in one step, and the
# points a step evaluates at most, a scan's count: the jets' arrays then stay
# the size of the scans' (past malloc's 128 KB mmap threshold they are mapped
# and faulted in afresh on every call)
_LEVELS = 8
_STEP_POINTS = 4096


def _bisect_paths(fn, cmp, sgn, lo, hi, flo, fhi, k):
    """The last brackets of the bisections of the brackets (lo, hi), all in
    one loop that calls fn(x, parts) once per step: x the midpoints inside
    the live brackets, bracket by bracket, and parts the slice of each of
    the k components, the points of the brackets that read it.  Bracket j
    reads sgn[j] times component cmp[j], with the values flo[j] < 0 and
    fhi[j] (not negative) at its ends; the brackets come in order of cmp.

    A step takes a bracket down as many as 8 levels of its bisection: it
    evaluates the next midpoints on the path to the bracket's root estimate
    (8, or fewer where 8 for every live bracket would pass 4 096 points),
    follows them while their signs agree with that path, and at the first
    that does not, goes the way its sign says, as the bisection does.  So
    the path is the bisection's, bit for bit, whatever the function, and a
    bracket takes at most as many steps as its bisection; the estimate only
    sets how far a step gets.  It is regula falsi from the bracket's end
    values, or from their cube roots where those were nearer linear at the
    first midpoint: a triple zero (W_0's at a zero of f^(3) when g is
    constant) is a simple zero of the cube root.  The loop works on the
    live brackets, ids idx, and puts each in out when done.
    """
    ends, vals = np.array((lo, hi)), np.array((flo, fhi))
    out = ends.copy()
    cube, cubed = np.zeros(lo.shape, dtype=bool), False
    idx = np.arange(lo.size)
    bounds = np.searchsorted(cmp, np.arange(k + 1))
    for step in range(FLOAT_HALVINGS):
        mid = 0.5 * (ends[0] + ends[1])
        on = np.logical_and(*(mid != ends))
        if not on.all():
            out[:, idx[~on]] = ends[:, ~on]
            idx, ends, vals = idx[on], ends[:, on], vals[:, on]
            mid, cube, sgn, cmp = mid[on], cube[on], sgn[on], cmp[on]
            bounds = np.searchsorted(cmp, np.arange(k + 1))
        lo, hi = ends
        n = idx.size
        if not n:
            break
        with np.errstate(all="ignore"):
            ga, gb = vals.copy() if cubed else vals
            if cubed:
                ga[cube], gb[cube] = np.cbrt(vals[:, cube])
            est = lo + (hi - lo) * (ga / (ga - gb))
        est = np.where((lo <= est) & (est <= hi), est, mid)
        # the path to est: each level's midpoint, whether it differs from both
        # ends (so it is inside its bracket, not at the float limit, and the
        # levels inside come first) and which way the path goes there, moving
        # the ends ab; ms holds the midpoints by level, then hi and lo, and v
        # their values times sgn
        levels = min(_LEVELS, max(1, _STEP_POINTS // n))
        ms, v = mv = np.empty((2, levels + 2, n))
        ms[levels:], v[levels:] = ends[::-1], vals[::-1]
        neq, ways = np.empty((2, levels, 2, n), dtype=bool)
        a, b = ab = ends.copy()
        for t in range(levels):
            m, way = np.multiply(np.add(a, b, ms[t]), 0.5, ms[t]), ways[t]
            np.not_equal(m, ab, neq[t])
            np.logical_not(np.less_equal(m, est, way[0]), way[1])
            np.copyto(ab, m, where=way)
        inside = np.logical_and(neq[:, 0], neq[:, 1])
        # fn at the midpoints inside, bracket by bracket, so each component's
        # points are one slice of them, the points of its brackets
        cuts = np.concatenate(([0], np.cumsum(inside.sum(axis=0))))[bounds].tolist()
        mask = np.ascontiguousarray(inside.T)
        vb = np.full(mask.shape, np.nan)
        vb[mask] = np.concatenate(fn(np.ascontiguousarray(ms[:levels].T)[mask],
                                     [slice(*c) for c in zip(cuts, cuts[1:])]))
        below = np.multiply(vb.T, sgn, v[:levels]) < 0
        if not step:
            # nearer linear at the midpoint: the values or their cube roots
            with np.errstate(all="ignore"):
                lin, cub = 0.5 * (vals[0] + vals[1]), 0.5 * (np.cbrt(vals[0]) + np.cbrt(vals[1]))
                cube = np.abs(cub * cub * cub - v[0]) < np.abs(lin - v[0])
            cubed = bool(cube.any())
        # the levels taken: the first ones whose signs agree with the path,
        # and the next (a sentinel level disagrees); the new ends are the last
        # midpoints taken with a negative and with a nonnegative value, or lo
        # and hi (rows -1 and -2) where there is none.  A level past those
        # inside repeats an end of its bracket, with a nan value: taken as a
        # nonnegative end, it leaves the midpoint of the bracket, the root, as
        # it is, and the bracket at the float limit
        agree = np.zeros((levels + 1, n), dtype=bool)
        np.equal(below, ways[:, 0], agree[:levels])
        level = np.arange(levels)[:, None]
        taken = np.where(level <= agree.argmin(axis=0), level, -2)
        last = np.array((np.where(below, taken, -1).max(axis=0),
                         np.where(below, -2, taken).max(axis=0)))
        ends, vals = mv[:, last, np.arange(n)]
    out[:, idx] = ends
    return out[0], out[1]


def sign_change_roots(fn: Callable, xs, vals, use=None) -> list:
    """Roots of each component of fn in every gap of a scan where it
    changes sign, bisected to the float limit.

    xs is one scan, (n,), or one scan per row, (rows, n).  vals is the
    sequence of the k components' values there, each of xs's shape.
    fn(x, parts) maps a 1-d array of points and a list of k slices of it to
    the list of the components' values, component c at x[parts[c]] only.
    ``use`` flags the rows of each component that take part, one per row of
    xs; all do by default.  A gap with a zero value at either end is skipped;
    nan counts as nonnegative.  Returns, for each of the k components, the
    roots of each row in order of x: a list for one scan, a list of lists
    for one per row.

    A root is the midpoint of the last bracket of the gap's bisection: the
    bracket is halved, keeping a negative value at the end where the gap's
    is negative, until its midpoint equals an end.  ``_bisect_paths`` finds
    those brackets, the bisection's bit for bit, for all gaps in one loop
    that calls fn once per step, on points of every live bracket, with each
    component's slice the points of the brackets that read it; no bracket
    takes more steps than its bisection, which the float-halving bound caps.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[-1]
    X = xs.reshape(-1, n)
    rows = X.shape[0]
    # row key = c * rows + row of component c, one array for all components
    V = np.asarray(vals, dtype=float).reshape(-1, n)
    k = V.shape[0] // rows
    # the gaps (key, i) whose ends differ in sign, in order of key
    flat = (V < 0).ravel()
    j = np.flatnonzero(flat[1:] != flat[:-1])
    key, i = np.divmod(j[(j + 1) % n != 0], n)
    va, vb = V[key, i], V[key, i + 1]
    keep = (va != 0.0) & (vb != 0.0)
    if use is not None:
        keep &= np.asarray(use, dtype=bool).ravel()[key]
    key, i, va, vb = key[keep], i[keep], va[keep], vb[keep]
    roots = np.empty(0)
    if key.size:
        row, sgn = key % rows, np.where(va < 0, 1.0, -1.0)
        lo, hi = _bisect_paths(fn, key // rows, sgn, X[row, i], X[row, i + 1],
                               sgn * va, sgn * vb, k)
        roots = 0.5 * (lo + hi)
    ends = np.searchsorted(key, np.arange(k * rows + 1))
    lists = [roots[ends[r]:ends[r + 1]].tolist() for r in range(k * rows)]
    return [lists[c * rows:(c + 1) * rows] if xs.ndim > 1 else lists[c] for c in range(k)]


# ---------------------------------------------------------------------------
# the modified sawtooth psi(x, eps)
# ---------------------------------------------------------------------------

def _taylor(first: int, terms: int) -> Tuple[float, ...]:
    """(-1)^k / (first + 2k)! for k < terms, each correctly rounded."""
    return tuple((-1) ** k / math.factorial(first + 2 * k) for k in range(terms))


# sin(b)/b and (b - sin b)/b^3 in powers of b^2; on |b| <= pi/2 the first
# omitted terms are below 2^-66 of the sums
_SINC = _taylor(1, 12)
_SIN_DEFECT = _taylor(3, 11)


def _series(coef: Tuple[float, ...], b2: float) -> float:
    """sum_k coef[k] b2^k by Horner's rule."""
    acc = 0.0
    for c in reversed(coef):
        acc = acc * b2 + c
    return acc


def modified_sawtooth(x: float, eps: float) -> complex:
    """psi(x, eps) in closed form; x finite, |eps| <= 1/2.

    Off the integers, with b = pi eps and c = 1 - 2{x}, the partial-fraction
    expansion of pi/sin(pi eps) sums the bilateral series to

        psi(x, eps) = (i/2) [e^(i b c) / sin b - 1/b].

    At an integer x the symmetric limit leaves only the imaginary part at
    c = 1, (i/2)(cot b - 1/b); at eps = 0 the value is psi(x).  Both parts are
    formed without cancellation,

        Re psi = -c sinc(bc) / (2 sinc b)                    (0 at integer x)
        Im psi = b [(b - sin b)/b^3 - c^2 sinc(bc/2)^2 / 2] / (2 sinc b),

    with sinc and (b - sin b)/b^3 from their Taylor series on all of
    |b| <= pi/2: b - sin b formed directly loses about 6u/b^2, and b sin b
    underflows at a subnormal eps.
    """
    if not math.isfinite(x):
        raise ValueError(f"non-finite input {x!r}")
    if not abs(eps) <= 0.5:
        raise ValueError(f"eps must lie in [-1/2, 1/2], got {eps}")
    fx = floor_frac(x)
    c = 1.0 - 2.0 * fx
    b = math.pi * eps
    b2, bc = b * b, b * c
    sinc_b = _series(_SINC, b2)
    re = 0.0 if fx == 0.0 else -0.5 * c * _series(_SINC, bc * bc) / sinc_b
    h = c * _series(_SINC, 0.25 * bc * bc)
    im = 0.5 * b * (_series(_SIN_DEFECT, b2) - 0.5 * h * h) / sinc_b
    return complex(re, im)
