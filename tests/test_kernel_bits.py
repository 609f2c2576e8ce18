"""Kernel values pinned to the last bit.

Each value is the float.hex the binomial and Poisson term sums gave when the
table was recorded.  The points cover the normal range, the scaled leading
term with no, one, a few and many shrinks, the Chernoff underflow exits and
the counts just past them, p near 0 and near 1/2, and the counts 0 and
n - 1.  A change to one operation of a term loop, its order or its
summation moves some of these values, so the table fails on it.
"""

from itertools import islice

import pytest

from dhtplan._backend import pure

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

# (n, p, {k: k-th value of _binom_partials(n, p)})
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

# (lam, {k: k-th value of _poisson_partials(lam)})
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


@pytest.mark.parametrize("c,n,p,bits", BINOM)
def test_binom_cdf_bits(c, n, p, bits):
    assert pure.binom_cdf(c, n, p).hex() == bits


@pytest.mark.parametrize("c,lam,bits", POISSON)
def test_poisson_cdf_bits(c, lam, bits):
    assert pure.poisson_cdf(c, lam).hex() == bits


@pytest.mark.parametrize("n,p,bits", BINOM_PARTIALS)
def test_binom_partials_bits(n, p, bits):
    values = list(islice(pure._binom_partials(n, p), max(bits) + 1))
    assert {k: values[k].hex() for k in bits} == bits


@pytest.mark.parametrize("lam,bits", POISSON_PARTIALS)
def test_poisson_partials_bits(lam, bits):
    values = list(islice(pure._poisson_partials(lam), max(bits) + 1))
    assert {k: values[k].hex() for k in bits} == bits
