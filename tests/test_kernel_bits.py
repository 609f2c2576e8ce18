"""Kernel values pinned to the last bit.

Each value is the float.hex the binomial and Poisson term sums gave when the
table was recorded.  The points cover the normal range, the scaled leading
term with no, one, a few and many shrinks, the Chernoff underflow exits and
the counts just past them, p near 0 and near 1/2, and the counts 0 and
n - 1.  A change to one operation of the term loop, its order or its
summation moves some of these values, so the table fails on it.

The pins rest on the last bit of the host's libm too: each lead, q**n or
exp(-lam), enters every term.  test_libm_fingerprint pins those libm values
and runs first, so a host whose pow, exp or log differ fails it, with that
one named cause, beside the pins it explains.
"""

import math

import pytest

from dhtplan import binom_cdf, poisson_cdf
from dhtplan import _backend as pure

# (c, n, p, binom_cdf(c, n, p).hex())
BINOM = [
    # normal range, p near 0 and near 1/2, c = 0 and c = n - 1
    (0, 375, 0.02, '0x1.0cbff91495f00p-11'),
    (7, 375, 0.02, '0x1.0c3c97e90850fp-1'),
    (12, 383, 0.05, '0x1.ad439ff59e5e8p-5'),
    (128, 7360, 0.015, '0x1.e9850dce20af7p-1'),
    (374, 375, 0.02, '0x1.fffffffffffc7p-1'),
    (0, 1, 0.5, '0x1.0000000000000p-1'),
    (99, 100, 0.5, '0x1.0000000000000p+0'),
    (50, 100, 0.5, '0x1.145ff5d3b1071p-1'),
    (3, 10, 0.9, '0x1.3211f28720b98p-17'),
    (0, 1000, 1e-09, '0x1.ffffde7211e7bp-1'),
    (2, 1000000, 1e-07, '0x1.ffebbab862cf3p-1'),
    (13, 550, 0.02, '0x1.90fbf000c5cd6p-1'),
    (5, 12600, 0.0001, '0x1.ff05916eae501p-1'),
    (1000, 2000, 0.5 - 1e-12, '0x1.049118f1c5358p-1'),
    # leading term scaled: no shrink
    (100, 1100, 0.5, '0x1.033fd28177103p-621'),
    # one shrink
    (300, 1100, 0.5, '0x1.463ddb97c6a9cp-175'),
    (350, 1100, 0.5, '0x1.3217bcd97f327p-112'),
    # a few shrinks
    (380, 400, 0.95, '0x1.10663e2891398p-1'),
    (550, 1100, 0.5, '0x1.06283fdb87762p-1'),
    (662, 2085, 0.3, '0x1.ec008e6bcd989p-1'),
    (1099, 1100, 0.5, '0x1.0000000000000p+0'),
    (1200, 2000, 0.6, '0x1.0459aeee745f8p-1'),
    # many shrinks: 2**-20000 grows through about 39 of them
    (9900, 20000, 0.5, '0x1.466ad2a8a0d95p-4'),
    (19999, 20000, 0.5, '0x1.fffffffffffe5p-1'),
    (4100, 8000, 0.5, '0x1.f9b2a0b9f1a9bp-1'),
    # Chernoff underflow exits, and a small tail that is summed
    (127, 7360, 0.5, '0x0.0p+0'),
    (0, 2000, 0.5, '0x0.0p+0'),
    (1, 5000, 0.4, '0x0.0p+0'),
    (700, 2085, 0.5, '0x1.d197634d24300p-171'),
]

# (c, lam, poisson_cdf(c, lam).hex())
POISSON = [
    # normal range
    (0, 1.0, '0x1.78b56362cef38p-2'),
    (3, 1.0, '0x1.f6472f2e6944bp-1'),
    (2, 7.5, '0x1.4be2d22c56409p-6'),
    (12, 38.78, '0x1.0a271d21cfed0p-21'),
    (0, 0.02, '0x1.f5dc99badec5bp-1'),
    (40, 30.0, '0x1.ef751e973842bp-1'),
    (0, 700.0, '0x1.14f2b0fb9307fp-1010'),
    (800, 700.0, '0x1.fff2e254eda56p-1'),
    (1, 1e-12, '0x1.0000000000000p+0'),
    # exp(-lam) scaled, from one shrink to many
    (700, 700.5, '0x1.0149553fd8c00p-1'),
    (850, 800.0, '0x1.ec7bf53b3059dp-1'),
    (3000, 3000.0, '0x1.027c6db11253dp-1'),
    (4000, 3000.0, '0x1.ffffffffffbedp-1'),
    # the underflow exit ends at c = 69 for lam = 1000
    (69, 1000.0, '0x0.0p+0'),
    (70, 1000.0, '0x0.0p+0'),
    (71, 1000.0, '0x0.0000000000001p-1022'),
    (1000, 1000.0, '0x1.044e3b89eff9fp-1'),
    (1000000, 3000000.0, '0x0.0p+0'),
]

# (n, p, {k: binom_cdf(k, n, p)}), runs of counts of one sum
BINOM_PARTIALS = [
    (375, 0.02, {
        0: '0x1.0cbff91495f00p-11',
        1: '0x1.22b04c1b7d9b2p-8',
        7: '0x1.0c3c97e90850fp-1',
        20: '0x1.fffc043e2052dp-1',
    }),
    (1100, 0.5, {
        0: '0x0.0p+0',
        1: '0x0.0p+0',
        540: '0x1.222d3eebe1834p-2',
        1099: '0x1.0000000000000p+0',
    }),
    (20000, 0.5, {
        9000: '0x1.64fca538cd621p-150',
        9900: '0x1.466ad2a8a0d95p-4',
    }),
]

# (lam, {k: poisson_cdf(k, lam)})
POISSON_PARTIALS = [
    (7.5, {
        0: '0x1.21f9ba40f31d5p-11',
        1: '0x1.341955e5024f3p-8',
        5: '0x1.ee763be7d64e3p-3',
        30: '0x1.fffffffefdf42p-1',
    }),
    (800.0, {
        0: '0x0.0p+0',
        700: '0x1.5c514fbf614d3p-13',
        850: '0x1.ec7bf53b3059dp-1',
    }),
    (3000.0, {
        2500: '0x1.ca2e5bd3de3fep-69',
        3000: '0x1.027c6db11253dp-1',
    }),
]

# the libm values each lead of the tables above starts from, as float.hex.
# Binomial (n, p), with q = 1 - p: pow(q, n), log(q) and, where pow(q, n)
# lies below the normal range, the scaled lead exp(n log(q) - e log(2)) with
# e = int(n log(q) / log(2)).  Poisson lam: exp(-lam), or past lam = 700 the
# scaled lead exp(-lam - e log(2)) with e = int(-lam / log(2))
LIBM_LOG2 = '0x1.62e42fefa39efp-1'
LIBM_BINOM = {
    (1, 0.5): ('0x1.0000000000000p-1', '-0x1.62e42fefa39efp-1'),
    (10, 0.9): ('0x1.b7cdfd9d7bdaap-34', '-0x1.26bb1bbb55516p+1'),
    (100, 0.5): ('0x1.0000000000000p-100', '-0x1.62e42fefa39efp-1'),
    (375, 0.02): ('0x1.0cbff91495f00p-11', '-0x1.4b004bce0abf7p-6'),
    (383, 0.05): ('0x1.93e0e124fe2ccp-29', '-0x1.a431d5bcc193ep-5'),
    (400, 0.95): ('0x0.0p+0', '-0x1.7f7427b73e38fp+1', '0x1.2bfcfc0f92bd0p-1'),
    (550, 0.02): ('0x1.f54af92421efep-17', '-0x1.4b004bce0abf7p-6'),
    (1000, 1e-09): ('0x1.ffffde7211e7bp-1', '-0x1.12e0be024e4bcp-30'),
    (1100, 0.5): ('0x0.0p+0', '-0x1.62e42fefa39efp-1', '0x1.0000000000000p+0'),
    (2000, 0.5 - 1e-12): ('0x0.0p+0', '-0x1.62e42fef9f391p-1', '0x1.000000112dcf8p-1'),
    (2000, 0.5): ('0x0.0p+0', '-0x1.62e42fefa39efp-1', '0x1.00000000000f8p-1'),
    (2000, 0.6): ('0x0.0p+0', '-0x1.d5240f0e0e077p-1', '0x1.1ad56d712a920p-1'),
    (2085, 0.3): ('0x0.0000000000002p-1022', '-0x1.6d3c324e13f50p-2',
                  '0x1.153aa342e6bbfp-1'),
    (2085, 0.5): ('0x0.0p+0', '-0x1.62e42fefa39efp-1', '0x1.0000000000000p+0'),
    (5000, 0.4): ('0x0.0p+0', '-0x1.058aefa811452p-1', '0x1.206b9c4f054a0p-1'),
    (7360, 0.015): ('0x1.6f0ce88ff5c03p-161', '-0x1.ef3e620f124d2p-7'),
    (7360, 0.5): ('0x0.0p+0', '-0x1.62e42fefa39efp-1', '0x1.0000000000000p+0'),
    (8000, 0.5): ('0x0.0p+0', '-0x1.62e42fefa39efp-1', '0x1.0000000000cf8p-1'),
    (12600, 0.0001): ('0x1.22718432392f6p-2', '-0x1.a3738d2cf1cc2p-14'),
    (20000, 0.5): ('0x0.0p+0', '-0x1.62e42fefa39efp-1', '0x1.0000000000000p+0'),
    (1000000, 1e-07): ('0x1.cf46d976dea40p-1', '-0x1.ad7f2b1049b9fp-24'),
}
LIBM_POISSON = {
    1e-12: '0x1.fffffffffdcd1p-1',
    0.02: '0x1.f5dc99badec5bp-1',
    1.0: '0x1.78b56362cef38p-2',
    7.5: '0x1.21f9ba40f31d5p-11',
    30.0: '0x1.a56e0c2ac7f75p-44',
    38.78: '0x1.0972ba69b699bp-56',
    700.0: '0x1.14f2b0fb9307fp-1010',
    700.5: '0x1.4ff475c68c8dbp-1',
    800.0: '0x1.cb83c52522331p-1',
    1000.0: '0x1.3c4219e418874p-1',
    3000.0: '0x1.e2aa25f2049ecp-1',
    3000000.0: '0x1.d6441639c7774p-1',
}


def _binom_libm(n, p):
    q = 1.0 - p
    lead = pow(q, float(n))
    values = (lead, math.log(q))
    if lead < 2.0 ** -1022:
        x = n * math.log(q)
        e = int(x / math.log(2.0))
        values += (math.exp(x - e * math.log(2.0)),)
    return tuple(v.hex() for v in values)


def _poisson_libm(lam):
    if lam <= 700.0:
        return math.exp(-lam).hex()
    e = int(-lam / math.log(2.0))
    return math.exp(-lam - e * math.log(2.0)).hex()


def test_libm_fingerprint():
    # every lead the pins start from, and no other, is fingerprinted
    assert set(LIBM_BINOM) == ({(n, p) for c, n, p, _ in BINOM if 0 <= c < n and 0 < p < 1}
                               | {(n, p) for n, p, _ in BINOM_PARTIALS})
    assert set(LIBM_POISSON) == ({lam for c, lam, _ in POISSON if c >= 0 and lam > 0}
                                 | {lam for lam, _ in POISSON_PARTIALS})
    assert math.log(2.0).hex() == LIBM_LOG2
    assert {lead: _binom_libm(*lead) for lead in LIBM_BINOM} == LIBM_BINOM
    assert {lam: _poisson_libm(lam) for lam in LIBM_POISSON} == LIBM_POISSON


@pytest.mark.parametrize("c,n,p,bits", BINOM)
def test_binom_cdf_bits(c, n, p, bits):
    assert binom_cdf(c, n, p).hex() == bits


@pytest.mark.parametrize("c,lam,bits", POISSON)
def test_poisson_cdf_bits(c, lam, bits):
    assert poisson_cdf(c, lam).hex() == bits


@pytest.mark.parametrize("n,p,bits", BINOM_PARTIALS)
def test_binom_partials_bits(n, p, bits):
    assert {k: binom_cdf(k, n, p).hex() for k in bits} == bits


@pytest.mark.parametrize("lam,bits", POISSON_PARTIALS)
def test_poisson_partials_bits(lam, bits):
    assert {k: poisson_cdf(k, lam).hex() for k in bits} == bits
