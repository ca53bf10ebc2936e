"""Tests that need only the standard library: the float core, the integer
layer and the output of the commands that load no numpy, pinned to the bit.

The module imports nothing outside the standard library but `xpoincare`, so
it runs on an interpreter without numpy, scipy or pytest:

    PYTHONPATH=src python -m unittest tests.test_stdlib

and pytest collects it too.  The pins of compose, inverse, oplus and
xl_decompose, and the command outputs that print them, depend on glibc's
libm (sin, sinh, asinh, atan2 and the like): they show agreement across
Python versions on one libm, not across libms.  The theta_closed pins and
the integer layer are exact arithmetic.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import tempfile
import unittest

from xpoincare import _names, cli
from xpoincare.algebra import (_CASIMIR_LAMBDA, _CASIMIR_MU, STRUCTURE_CONSTANTS,
                               _invariance_residual, jacobi_check)
from xpoincare.poincare import (GroupParams, _from_vector, _oplus_entries,
                                _theta_closed_entries, _theta_numeric, _vector, compose,
                                element_doc, inverse)
from xpoincare.xlorentz import _xl_decompose

# Five elements as (theta, u, omega, a, alpha), three narrow and two wide:
# the draws of `sample_params(default_rng(94), wide=k >= 3)`, k = 0..4.
ELEMENTS = [
    ("0x1.145c0f8541c74p-2 -0x1.8d68ec4cb0c8cp-2 -0x1.8e0ba712eb2b2p-4 -0x1.061c0bb1fa0a4p-2 "
     "0x1.a6989679c6bf6p-5 -0x1.5e5a5ff9c4a67p-3 -0x1.519b262f369f0p-4 0x1.55325c98708bcp-2 "
     "-0x1.c7eed239a0563p-4 -0x1.5d3006bcc737bp-2 0x1.070bff56dc96bp+0 -0x1.53891543ebd74p+0 "
     "0x1.6d98922df4b56p-2 0x1.09d3365e4dca7p-1 0x1.032993bc73926p+1"),
    ("0x1.7b3762765a467p-2 0x1.3bd7224d84e6ep+0 0x1.597df13fe21b0p-7 0x1.80392a13dbe15p-2 "
     "-0x1.60d3e16c274c1p-2 0x1.da9f69554dc59p-3 0x1.f561043ef072ap-7 -0x1.b72a8bed29561p-6 "
     "-0x1.841ef9be52ed3p-2 -0x1.044bdba35f803p-3 -0x1.a6baed6a0b090p+0 0x1.d1610e0e84f91p+1 "
     "0x1.d8a7dfa9bb6ecp-3 -0x1.70a684a098560p-1 -0x1.0ca17260a5381p+1"),
    ("-0x1.5bd93126fb244p-3 -0x1.352ebaf08ec70p-3 -0x1.86796978f0503p-2 0x1.921651e8e1d9cp-2 "
     "-0x1.661281789e883p-2 0x1.17e6525af827dp-2 -0x1.f9b7208002fd2p-6 -0x1.28f2fc5f4c67bp-2 "
     "0x1.bcff939100256p-4 0x1.8dba357b77850p-3 0x1.aac11e8e09c8ep-2 0x1.0298c502afdbcp+0 "
     "0x1.857d28e255f7ap-1 0x1.155e7f535898ap+1 0x1.3dbdb1f2e4d87p-1"),
    ("-0x1.bf3de9a29375fp-2 0x1.d9814e8ccbdd1p-1 0x1.0cfd273d108c7p-1 0x1.f462ba4f65824p-4 "
     "-0x1.3f96fbef0ea33p-5 0x1.7c73b127d62d6p+0 -0x1.c2bfc0c2d474bp-2 0x1.3a513df3777efp+0 "
     "0x1.25fcafee968f8p-3 -0x1.bf15576f6699fp-2 -0x1.2d9b43fef6e1ep-1 -0x1.870b050de9a30p+1 "
     "0x1.a09d09e932c3dp-2 -0x1.0b3409e4214d9p+1 -0x1.76d50b32381c1p-1"),
    ("0x1.31294bf0c5861p-1 -0x1.034552b6eafeap-3 -0x1.bcbf3991a9378p-8 -0x1.95c3069785796p-4 "
     "0x1.ab43002ffac53p-2 -0x1.476433ad9e9afp+0 0x1.91d185b8a59d0p-1 -0x1.b009fa874e46cp-3 "
     "0x1.0061adb11f4eap-1 0x1.21ee8b606b4f2p-1 0x1.a4950e6a5c38ep-1 -0x1.b704670ad1263p+0 "
     "0x1.ede3eea260e08p-2 -0x1.2fd865e2d1980p+1 0x1.09bc93bad4f30p+1"),
]

# The bits of `_vector(compose(g, h))`, h the element before g in the list,
# and of `_vector(inverse(g))`, g in ELEMENTS.  The float kernels fix the
# order of every sum, so a sum written in another order changes last bits
# here: seed 94 was picked as the first that catches every rotation of the
# terms of each sum of `_matmul5` and `inverse` (and all but two of their
# 766 reorderings that are not a swap of the first two terms, which IEEE
# addition leaves exact).
COMPOSE_BITS = [
    ("0x1.c7c926f1f200cp-1 -0x1.38f36abeb0ec5p-1 -0x1.dcb1bb70853eep-4 -0x1.e8911780632a8p-1 "
     "0x1.674562d8fb900p-4 -0x1.a90f67131efa8p+0 0x1.91a9ae6c195e2p-1 0x1.dfbf36857146ep-2 "
     "0x1.f31a6dca14cfep-2 0x1.1c7075ec77bc6p-2 0x1.78a07c1bdeff8p+1 -0x1.c19e3a7bc74cep+1 "
     "-0x1.f8ad9c715a638p-5 -0x1.eba523ebc34bap+0 0x1.efc5a203042d9p+1"),
    ("0x1.4f98dd6086c00p-1 0x1.acea77f0c3598p-1 0x1.ff77da28ce725p-3 0x1.bd9fbd665ff0ep-2 "
     "-0x1.775fe4f704190p-2 -0x1.249b3b5068a7ap-4 -0x1.46bad6c63cb67p-2 0x1.b95a2e4f427bap-2 "
     "-0x1.372d6f67c5c2ap-1 0x1.1f5c115d6182cp-3 -0x1.2d6ccddd23cf0p+0 0x1.7f45b9a58f43bp+1 "
     "-0x1.35ba0cfdae1adp-1 -0x1.00561a7f0430dp+1 0x1.02e54bf542660p-2"),
    ("0x1.d926ef907a12fp-5 0x1.23120e9be05c6p+0 -0x1.64f07712e6166p-3 0x1.0328b77c9e9dcp+0 "
     "-0x1.689c85ba2cd8cp-1 0x1.cbe43b88d2ad6p-2 -0x1.d8d68cb6c652cp-4 -0x1.97a739dad36e4p-3 "
     "-0x1.f0049c5d44e1bp-3 0x1.b9ca769798fbfp-7 -0x1.3d5c50c60534ep+0 0x1.11cab28e88c42p+2 "
     "0x1.5a56d77bebbcep+1 0x1.946931962f1c0p-3 -0x1.2f3c54f37ff7ep+1"),
    ("-0x1.0179ee6b24c96p-4 0x1.d542da1303af9p-1 0x1.e9ec33c6353e6p-5 -0x1.23398f756fa60p-2 "
     "-0x1.71a5696be333bp-2 0x1.0ad5c29697dc4p+1 -0x1.b2d232ef96626p-2 0x1.f6bbe871a3737p-1 "
     "0x1.5f6e61bc737aap-2 -0x1.c5b8be30ed4d0p-2 0x1.3a15f766f65e8p+1 -0x1.9c960dabe4a16p+2 "
     "-0x1.c67d0d1bf3782p-3 0x1.a7660f24543cbp+1 -0x1.754604069c5ecp+2"),
    ("0x1.3e8502f979b2bp-7 0x1.10398d337551cp+0 -0x1.7bc56685ffc06p-3 -0x1.fb4213fd9abc8p-2 "
     "0x1.b1e7053d2accfp-1 0x1.27b968904bc59p-3 -0x1.1c9baa57941bfp-3 0x1.8ba0ad5995e70p-1 "
     "0x1.aeec4bbc0f0fap-1 -0x1.24bbe8973fd51p-1 0x1.2f0358e815b32p+1 -0x1.38c920ec928efp+2 "
     "-0x1.06ffff932b44dp-1 -0x1.219c0e7adbd40p+2 0x1.826764f5d182dp+0"),
]
INVERSE_BITS = [
    ("-0x1.145c0f8541c74p-2 0x1.8d68ec4cb0c8cp-2 0x1.8e0ba712eb2b2p-4 0x1.575df867c5532p-3 "
     "-0x1.05bf18aa59956p-3 0x1.d77d5837f1a58p-3 0x1.e796cb32304bcp-4 -0x1.cd520cf8bf0f7p-2 "
     "0x1.5e048444a24b4p-4 0x1.88f169a7cbd14p-3 -0x1.060254377c977p-1 0x1.30236de1ed109p+1 "
     "-0x1.03b1bc24a2a0cp-1 -0x1.88625cdeaf80dp-1 -0x1.84d347db6bbb2p+1"),
    ("-0x1.7b3762765a467p-2 -0x1.3bd7224d84e6ep+0 -0x1.597df13fe21b0p-7 -0x1.197020cb89d2cp-2 "
     "0x1.3ca617164367cp-2 0x1.81f3529bd5e48p-2 -0x1.bce5f1c9f38cep-4 0x1.75f392894bb7dp-3 "
     "0x1.61b9de19a9468p-2 0x1.1d78339fe4e7dp-3 0x1.9e6ca6e0e6fc8p+1 -0x1.a6b72cea7c395p-1 "
     "0x1.dd98d8d76ead4p-3 0x1.2566c4b3d3aadp+2 0x1.12d983d70ef9ap+1"),
    ("0x1.5bd93126fb244p-3 0x1.352ebaf08ec70p-3 0x1.86796978f0503p-2 -0x1.907b94ce1665ap-3 "
     "0x1.a0bb4ddec07fbp-2 -0x1.89076f58c925ep-2 0x1.13c57b715ba4bp-3 0x1.0bf9ecd37c4b8p-2 "
     "-0x1.15ba7a053d3a7p-2 -0x1.7f106ff5a4b47p-4 0x1.3def915d21ba1p-2 -0x1.17d4faee8af07p+0 "
     "-0x1.4882b8354036ep-1 -0x1.0da32768c2a75p+1 -0x1.d72c3c6a2f3f4p-2"),
    ("0x1.bf3de9a29375fp-2 -0x1.d9814e8ccbdd1p-1 -0x1.0cfd273d108c7p-1 -0x1.05a86eefd2422p+0 "
     "-0x1.ac2308f3fa192p-1 -0x1.632421cef2431p-1 0x1.4b82e02fa09cbp+0 0x1.8ea730a7ce7c5p-2 "
     "0x1.721c8e2d5c0eap-2 0x1.b56e45de1b20cp+0 -0x1.ca58660b6df7ep+0 0x1.c6961153ddecap+1 "
     "0x1.f31fd046475edp+0 -0x1.c8a6f771e00f0p+0 -0x1.d9390806fa831p+0"),
    ("-0x1.31294bf0c5861p-1 0x1.034552b6eafeap-3 0x1.bcbf3991a9378p-8 -0x1.65d79312fcee2p-5 "
     "-0x1.10a6a9a8ffe48p+0 0x1.a732bcab1f7dep-1 -0x1.a5966bc7dfc5cp-1 0x1.110ed3f4ec1f0p-2 "
     "-0x1.7e03c2093f7f8p-1 -0x1.cae17401f9330p-3 0x1.1d31a4f538dd0p-2 0x1.afab3f52ce8e0p-1 "
     "-0x1.64081d3efd220p-1 0x1.5ccd9f109dfbdp+1 -0x1.160e8432e8ebfp+1"),
]

# sha256 of the hex of the 225 entries of `_oplus_entries(g)` and of
# `_theta_closed_entries(g)`, g in ELEMENTS
OPLUS_SHA256 = [
    "82cd0660b1203bf3cc9ed9e45658ebe1292a651d54216944943c15038e46f79a",
    "132ec241e4c751fc1cbee8676a4b51f248b4d4ef1abf8a8eb34e8bec684490f9",
    "9d6af2ee09debd727dde9b4cc2014127f5141ca5d132c1d06aa05627cdad570e",
    "6c4bf5cf549f4f858fc01daaf9e19a3d51ae26da670000903a030f303cd17ec8",
    "d72b6373bcd9ddd8b03dde20af8a5dc4819d4de28a06ad1a6b19c2ce3a0c4d57",
]
THETA_CLOSED_SHA256 = [
    "f753d322b20e97415d1e203b9b6f760ef470a4a341ec2e8022a2c88f3ee316a8",
    "01a1d6c7b7f2176765b1a7ace7e0cf73e9144854ca24ae5b2363e44082b7539a",
    "64b738fe64d2873542b343b6272512cc12d60264fc7ce36ee354cb9aa0a296bf",
    "fde5ce1be5d6577051a646dd49c3aa01218f283d7bc8023ebd29bf51455ae4c3",
    "174a58fb575ec4458367c2ebd0ac74f09308a06409d48560434f0264736bd4ed",
]

# The 25 entries of two extended-Lorentz matrices, a narrow and a wide one
# (xl_matrix of ELEMENTS[0] and ELEMENTS[4]), and the bits of (omega, u,
# theta) of `_xl_decompose` of each
XL_MATRICES = [
    ("0x1.0ae71221666b1p+0 0x1.309989780751ap-3 -0x1.fcc935f504cbcp-4 0x1.e8000e30e4842p-3 "
     "0x1.5edd47e544ae5p-4 0x1.1ad09a5628570p-2 0x1.04dca754b9c46p+0 -0x1.6705ca1b200ebp-3 "
     "0x1.6d1733cd98e7ap-2 -0x1.629897a295bd2p-2 -0x1.ddee9972f9db5p-5 0x1.931659ea959bap-7 "
     "0x1.ef792262ac8c2p-1 0x1.21e76e22be1d4p-2 0x1.d9d68e173721fp-4 0x1.33f8fb19e6136p-3 "
     "-0x1.cd2ecc1dcbdf0p-2 -0x1.e5150ae42a114p-3 0x1.e2d279733f95ap-1 0x1.6ae697ec1bc8bp-2 "
     "-0x1.fabcc89250baep-4 -0x1.df6ff2f565f5ap-2 0x1.6bc36dbb0766dp-4 0x1.985fe049084fap-3 "
     "0x1.1e650486000b3p+0"),
    ("0x1.5b2338ad29351p+0 -0x1.2fc1bfa4c9d59p-3 -0x1.8b66306e64c7cp-1 0x1.d436e832c1e8ep-1 "
     "-0x1.91d185ba07ed5p-1 0x1.7cc1147bc4310p-3 0x1.04cae00bd394ep+0 -0x1.49c97f1dc263ap-3 "
     "0x1.fb64a73355b41p-4 0x1.b009fa88cb3cep-3 -0x1.3f2f520c6f65ep-1 -0x1.714c7c8256506p-4 "
     "0x1.2e3310515d16ep+0 0x1.f34d1e44332bcp-2 -0x1.0061adb20160dp-1 0x1.0bb53ecbfaa7dp+0 "
     "-0x1.bcdd951925a6cp-3 -0x1.b68c3d2f986f6p-1 0x1.472d89924572bp+0 -0x1.21ee8b616af6cp-1 "
     "0x1.a5966bc95384bp-1 0x1.110ed3f5dce5ap-2 -0x1.7e03c20a90597p-1 -0x1.cae174038dd44p-3 "
     "0x1.00000002a5344p+0"),
]
XL_DECOMPOSE_BITS = [
    ("-0x1.519b262f369f0p-4 0x1.55325c98708bcp-2 -0x1.c7eed239a0563p-4 -0x1.5d3006bcc737bp-2 "
     "-0x1.061c0bb1fa0a4p-2 0x1.a6989679c6bf6p-5 -0x1.5e5a5ff9c4a68p-3 0x1.145c0f8541c75p-2 "
     "-0x1.8d68ec4cb0c8ep-2 -0x1.8e0ba712eb2b2p-4"),
    ("0x1.91d185b8a59cfp-1 -0x1.b009fa874e46bp-3 0x1.0061adb11f4e9p-1 0x1.21ee8b606b4f1p-1 "
     "-0x1.95c3069785798p-4 0x1.ab43002ffac54p-2 -0x1.476433ad9e9aep+0 0x1.31294bf0c5860p-1 "
     "-0x1.034552b6eafe8p-3 -0x1.bcbf3991a9360p-8"),
]


def _floats(bits: str) -> list:
    return [float.fromhex(x) for x in bits.split()]


def _bits(xs) -> list:
    return [x.hex() for x in xs]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def element(k: int):
    return _from_vector(_floats(ELEMENTS[k]))


# The libm map of the pins, read with math.sin, math.sinh, math.asinh and
# math.atan2 made to raise.  A pin with none runs on arithmetic, sqrt
# (correctly rounded) and the series window of trig_s and trig_h alone, so it
# holds on any libm; the others may move with a libm's last bits.
#
#   pin                                              libm functions
#   FloatCorePins compose, k = 0 / k = 1..4          atan2 sin sinh / and asinh
#   FloatCorePins inverse and oplus, k = 0..3 / 4    sin sinh / sin
#   FloatCorePins theta_closed, k = 0..4             none
#   FloatCorePins xl_decompose, narrow / wide        asinh atan2 sinh / asinh atan2
#   COMMANDS invert e.json, oplus e.json (twice)     sin sinh
#   COMMANDS compose e.json e.json, theta e.json     asinh atan2 sin sinh
#   COMMANDS decompose --matrix m.json, compose      atan2
#            e2.json e1.json and z.json z.json
#   COMMANDS decompose --matrix w.json               atan2 sin
#   COMMANDS oplus overflow.json, the five rows of   sinh
#            omega1000.json and omega800.json, and
#            compose omega460.json omega460.json
#   COMMANDS decompose --matrix outside.json         asinh sinh
#   the other 60 COMMANDS                            none
class FloatCorePins(unittest.TestCase):

    def test_compose_and_inverse(self):
        for k in range(5):
            g, h = element(k), element(k - 1)
            self.assertEqual(_bits(_vector(compose(g, h))), COMPOSE_BITS[k].split(), k)
            self.assertEqual(_bits(_vector(inverse(g))), INVERSE_BITS[k].split(), k)

    def test_oplus_and_theta_closed_entries(self):
        for k in range(5):
            for entries, pins in ((_oplus_entries, OPLUS_SHA256),
                                  (_theta_closed_entries, THETA_CLOSED_SHA256)):
                self.assertEqual(_sha256(" ".join(_bits(entries(element(k))))), pins[k], k)

    def test_xl_decompose(self):
        for m, want in zip(XL_MATRICES, XL_DECOMPOSE_BITS):
            p = _xl_decompose(_floats(m))
            self.assertEqual(_bits(p._omega + p._u + p._theta), want.split())


# The one table of the commands that load no numpy, FILES and COMMANDS: the
# Tier-1 suite runs this module in an interpreter where any numpy import
# fails (tests/test_algebra.py), and the numpy-absent job of
# .github/workflows/tests.yml runs it where numpy is not installed.  FILES
# are the input files, error files included, as text or, for a file that is
# not UTF-8, as bytes: m2.json fails the B-form gate of decompose, and
# outside.json, an extended-Lorentz matrix beyond the reach of W L R, its
# block gate

_BIG = "1" + "0" * 399  # a 400-digit JSON integer, beyond the float range


def _eye5(entry: str) -> str:
    """The JSON rows of the 5x5 identity, with entry (2, 3) written as `entry`."""
    rows = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    rows[2][3] = entry
    return "[%s]" % ", ".join("[%s]" % ", ".join(r) for r in rows)


FILES = {
    "e.json": ('{"alpha": 0.5, "a": [1, -2, 0.3, 4], "omega": [0.3, 0.1, -0.4, 0.2], '
               '"u": [0.4, -0.3, 0.2], "theta": [0.5, 0.6, -0.7]}'),
    "overflow.json": '{"omega": [0, 400, 0, 0]}',
    "bool.json": '{"omega": [true, 0, 0, 0]}',
    "huge.json": '{"a": [1e308, 1e308, 0.0, 0.0]}',
    "infinities.json": '{"a": [Infinity, -Infinity, 0.0, 0.0]}',
    "str.json": '{"alpha": "1"}',
    "dict.json": '{"a": {"0": 1}}',
    "mstr.json": '{"matrix": %s}' % _eye5('"1"'),
    "m.json": '{"matrix": %s}' % _eye5("0"),
    "m2.json": ('{"matrix": [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0], '
                '[0, 0, 0, 2, 0], [0, 0, 0, 0, 2]]}'),
    "outside.json": ('{"matrix": [[-4.380000000000002, 9.259772730131644, 0.9840731680114039, '
                     '-1.3120975573485385, -8.381467115827013], [-3.936292672045615, '
                     '9.127349307143804, 0.7200000000000002, -0.9600000000000003, '
                     '-8.261604285767895], [-0.9840731680114038, 1.6937349229751393, '
                     '1.1800000000000002, -0.24000000000000007, -1.5330812076682694], '
                     '[1.3120975573485385, -2.258313230633519, -0.2400000000000001, 1.32, '
                     '2.044108276891026], [9.292174685833805e-16, 2.1292794550948155, '
                     '-1.6996616692943942e-16, 2.266215559059192e-16, -2.3524096152432463]]}'),
    "deep.json": "[" * 100000 + "]" * 100000,
    # element documents with one field malformed, or not JSON
    "alpha-big.json": '{"alpha": %s}' % _BIG,
    "a-big.json": '{"a": [%s, 0, 0, 0]}' % _BIG,
    "u-big.json": '{"u": [0, -%s, 0]}' % _BIG,
    "alpha-true.json": '{"alpha": true}',
    "theta-false.json": '{"theta": [0, false, 0]}',
    "omega-str.json": '{"omega": [0, 0, "1", 0]}',
    "alpha-nan.json": '{"alpha": NaN}',
    "a-inf.json": '{"a": [0, 0, Infinity, 0]}',
    "omega-3.json": '{"omega": [0, 0, 0]}',
    "theta-4.json": '{"theta": [0, 0, 0, 0]}',
    "u-nested.json": '{"u": [[0], [0], [0]]}',
    "a-2.json": '{"a": [1, 2]}',
    "bad.json": "{not json",
    # matrix documents, the matrix malformed, an unknown field, not UTF-8
    "m-big.json": '{"matrix": %s}' % _eye5(_BIG),
    "m-true.json": '{"matrix": %s}' % _eye5("true"),
    "m-nan.json": '{"matrix": %s}' % _eye5("NaN"),
    "m-neg-inf.json": '{"matrix": %s}' % _eye5("-Infinity"),
    "m-nested.json": '{"matrix": %s}' % _eye5("[1]"),
    "m-null.json": '{"matrix": %s}' % _eye5("null"),
    "m-2x2.json": '{"matrix": [[1, 0], [0, 1]]}',
    "m-ragged.json": '{"matrix": [%s, [1, 1, 1, 1]]}' % ", ".join(["[1, 1, 1, 1, 1]"] * 4),
    "m-flat.json": '{"matrix": [1, 2, 3, 4, 5]}',
    "m-empty.json": '{"matrix": []}',
    "m-eye.json": '{"matrix": "eye"}',
    "m-omega.json": '{"matrix": %s, "omega": [1, 2, 3, 4]}' % _eye5("0"),
    "m-latin1.json": b'{"matrix": "\xff"}',
    # elements whose factors or product overflow float64
    "omega1000.json": '{"omega": [0, 1000, 0, 0]}',
    "omega800.json": '{"omega": [0, 800, 0, 0]}',
    "u1e155.json": '{"u": [1e155, 0, 0]}',
    "omega460.json": '{"omega": [0, 460, 0, 0]}',
    # structure-constant tables that are not tables
    "c-no-entries.json": '{"order": []}',
    "c-list.json": "[]",
    "c-entry-1.json": '{"entries": [1]}',
    # success inputs: neg.json is sample_params(default_rng(35)) with alpha
    # made negative, which prints signed zeros, and w.json is W(0.3, 0.2, 0, 0.1)
    "z.json": "{}",
    "e2.json": '{"a": [1, 0, 0, 0], "alpha": 2.0}',
    "e1.json": '{"a": [0, 1, 0, 0], "alpha": -0.5}',
    "a5.json": '{"a": [0, 0, 5, 0]}',
    "neg.json": ('{"alpha": -2.2763553296667767, "a": [1.5424387242306865, 2.300176001011506, '
                 '1.4709884282170338, 2.8959295085646093], "omega": [0.0010446074842034574, '
                 '-0.44928941370716524, -0.018118062512078256, 0.1523753991308871], '
                 '"u": [-0.01212389023407763, -0.04156675549759525, 0.04227483477212253], '
                 '"theta": [0.7044761647746255, -0.9647646955578938, -1.2464242004240793]}'),
    "w.json": ('{"matrix": [[0.9551498001427937, 0.029900133238137547, 0.0, '
               '0.014950066619068773, -0.29800399619259177], [-0.029900133238137547, '
               '1.0199334221587584, 0.0, 0.009966711079379183, -0.19866933079506122], '
               '[-0.0, 0.0, 1.0, 0.0, -0.0], [-0.014950066619068773, 0.009966711079379183, '
               '0.0, 1.0049833555396896, -0.09933466539753061], [0.29800399619259177, '
               '-0.19866933079506122, -0.0, -0.09933466539753061, 0.9800665778412416]]}'),
}

# Tables made from t.json, the output of `dump-algebra`, by an edit of its
# entry 0, (J1, J2, J3, 1)
TABLE_EDITS = {
    "c-flipped.json": {"f": -1},
    "c-j9.json": {"a": "J9"},
    "c-c-list.json": {"c": ["J1"]},
    "c-f-true.json": {"f": True},
    "c-f-float.json": {"f": 1.0},
    "c-f-2.json": {"f": 2},
    "c-diagonal.json": {"b": "J1"},
}

# The numpy-free commands: exit code, arguments, and the sha256 of
# json.dumps([exit code, stdout, stderr]), which pins an error line byte for
# byte; t.json and tfull.json are the output of `dump-algebra` and
# `dump-algebra --full`, and the tables of TABLE_EDITS edits of t.json
COMMANDS = [
    (0, "invert e.json",
     "6f45d9b04e502a3c61f2f2b6782e6c5ffe21371e46ed530a1c8570b63842da4a"),
    (0, "compose e.json e.json",
     "d34e5d729c29b7fd80f929f10465cb2728f92284d11b314a1b502d347a6f7961"),
    (0, "decompose --matrix m.json",
     "d3b28000eacf371a8901bedac967cdc25a42257213ee205dc041a9f3ab9f10f9"),
    (0, "theta e.json",
     "9ab02584f88756211ed2ac1d11e91050fbf033219c9cd2c0effec85c6abff2c9"),
    (0, "theta e.json --closed",
     "ae2bb9c4a8c575639b96a86e76c4819c699b86debdda725b3dadf8d4fcfe615b"),
    (0, "oplus e.json",
     "a1103d2bd01931659283d275260d15fcbafebcd9da471b755849e87c04cf66d8"),
    (0, "oplus e.json --csv --labels",
     "1622104a6e4a3ffe3e1182fff64965f582992c720ac39a6813df04a3759bb4ee"),
    (0, "check --suite jacobi",
     "22611ff593777860874fe1a8f077d13266d6d7c93747f74736830ce6b827546a"),
    (0, "check --suite casimir",
     "28b25c5268d9f67e95848a5e3ad59aec7b834c959d763699b4b99b6875756b55"),
    (0, "check --suite jacobi --constants t.json",
     "22611ff593777860874fe1a8f077d13266d6d7c93747f74736830ce6b827546a"),
    (0, "check --suite jacobi --constants tfull.json",
     "22611ff593777860874fe1a8f077d13266d6d7c93747f74736830ce6b827546a"),
    (0, "check --suite casimir --constants t.json",
     "28b25c5268d9f67e95848a5e3ad59aec7b834c959d763699b4b99b6875756b55"),
    (0, "dump-algebra",
     "824f6af902ea7139a061cecc5a8701106cbba805cdbaca2015e9b6bc06f2654f"),
    (0, "dump-algebra --format csv --full",
     "ccdec12015ae9c978653869bf0902b1387959de5fa02a6118fea2d00bf7f6994"),
    (2, "oplus overflow.json",
     "56e738a25aefcf7945aa511e5c938d7b3e8da13293be8f8a69e361200ed2f3f7"),
    (3, "decompose --matrix m2.json",
     "173c0bae5a46c35e24f99d616a9cfc648a8b973f4efbe18efe47a6f0c8c86c0a"),
    (3, "decompose --matrix outside.json",
     "d7300e751be74bd52d66ce2f5d560b563df309467d2928ca4984ff27eccf2912"),
    (2, "invert bool.json",
     "83916222c2da3fc749d34da6552c2fc6e34ad6a612474f1f66f206c7d1635ae6"),
    (0, "invert huge.json",
     "2edd5a0a7884277731fdf8044ebb45530c12df84dec75f209b2efaf763028618"),
    (2, "invert infinities.json",
     "2df4c4dedb50b9477bb3f0fe9e1198a20999ed6f405a314fe2de3bcb5d119094"),
    (2, "invert str.json",
     "27207f96dc59acae69a14e1998c5f75f4e27c891b93727b1f23d046f43244633"),
    (2, "invert dict.json",
     "acd63fff0c82b53e34ca00fcd036d486350692f321a06cee5cebadcce3ed90ee"),
    (2, "decompose --matrix mstr.json",
     "e154c5832e71a101fdeaaf2eaa10c4951f2b9b2da879eeb9e221dcd7de789bf3"),
    (2, "invert deep.json",
     "2048df42cc49f974fc1dc5a9a679056e844205cb2adcf068f30800f727625ed9"),
    (2, "decompose --matrix deep.json",
     "2048df42cc49f974fc1dc5a9a679056e844205cb2adcf068f30800f727625ed9"),
    # one malformed field of an element document: an error naming the field
    (2, "invert alpha-big.json",
     "3eef0be424fc280fe438405b92c3309f4547f2f0872d3763f8b07f13cf7e0d90"),
    (2, "invert a-big.json",
     "2df4c4dedb50b9477bb3f0fe9e1198a20999ed6f405a314fe2de3bcb5d119094"),
    (2, "invert u-big.json",
     "95eaee0a01ad374dab686a908f9e8de38376e69e93d4297a8d28c1b7442eb50a"),
    (2, "invert alpha-true.json",
     "27207f96dc59acae69a14e1998c5f75f4e27c891b93727b1f23d046f43244633"),
    (2, "invert theta-false.json",
     "66d3e8ec28f96855ae0c22153f874b0dab454eeabf7a8e39c227f7e7bf04c622"),
    (2, "invert omega-str.json",
     "83916222c2da3fc749d34da6552c2fc6e34ad6a612474f1f66f206c7d1635ae6"),
    (2, "invert alpha-nan.json",
     "3eef0be424fc280fe438405b92c3309f4547f2f0872d3763f8b07f13cf7e0d90"),
    (2, "invert a-inf.json",
     "2df4c4dedb50b9477bb3f0fe9e1198a20999ed6f405a314fe2de3bcb5d119094"),
    (2, "invert omega-3.json",
     "9eb93dbdce36834e0df4744e39e254702363cac93aa6a8e4ed96cdfb4b4d022d"),
    (2, "invert theta-4.json",
     "eadc08fbc965b40d5a574446a10ced37f68058e308e99f13a32f655f3d16ce9f"),
    (2, "invert u-nested.json",
     "56408d3033aa169ec1ded24f24743702e5470e2466d9260a70907b85567b939a"),
    # a malformed matrix document: an error naming the matrix, the field or the file
    (2, "decompose --matrix m-big.json",
     "7c44fa54ea1d8091e545b23c1e9986e8135e409c7b8176fc63501e2e392d81e1"),
    (2, "decompose --matrix m-true.json",
     "e154c5832e71a101fdeaaf2eaa10c4951f2b9b2da879eeb9e221dcd7de789bf3"),
    (2, "decompose --matrix m-nan.json",
     "7c44fa54ea1d8091e545b23c1e9986e8135e409c7b8176fc63501e2e392d81e1"),
    (2, "decompose --matrix m-neg-inf.json",
     "7c44fa54ea1d8091e545b23c1e9986e8135e409c7b8176fc63501e2e392d81e1"),
    (2, "decompose --matrix m-nested.json",
     "e154c5832e71a101fdeaaf2eaa10c4951f2b9b2da879eeb9e221dcd7de789bf3"),
    (2, "decompose --matrix m-null.json",
     "e154c5832e71a101fdeaaf2eaa10c4951f2b9b2da879eeb9e221dcd7de789bf3"),
    (2, "decompose --matrix m-2x2.json",
     "46de087abdc1016348c1578a82ab387adba9319c1e0f0f622b7b0de067006d8c"),
    (2, "decompose --matrix m-ragged.json",
     "e154c5832e71a101fdeaaf2eaa10c4951f2b9b2da879eeb9e221dcd7de789bf3"),
    (2, "decompose --matrix m-flat.json",
     "d490ecbe0400444716e4a6a177ec9e36e600a4886bd463d610852cd4a631beaa"),
    (2, "decompose --matrix m-empty.json",
     "286b756436106a9f7963ecf380d18305407546a17b68d9b56fabe60306c6e521"),
    (2, "decompose --matrix m-eye.json",
     "e154c5832e71a101fdeaaf2eaa10c4951f2b9b2da879eeb9e221dcd7de789bf3"),
    (2, "decompose --matrix m-omega.json",
     "8384311d0d67dec8a03cbed218ac3306414de5edfacb8db72208c60f9094bbcb"),
    (2, "decompose --matrix m-latin1.json",
     "a355874c7e9d870fe18ba88f5e67778801d2caf31fb08307453a581be49fd3e0"),
    # a document that is not JSON, and a field of the wrong length
    (2, "invert bad.json",
     "a9f82d898412b1028c18b2f83e51b510a5cdd297a2afa7272a4d2f84c6a4619d"),
    (2, "invert a-2.json",
     "b3d8f5479c4e2f65b2fd3ad3395f8db523f29ad1a91f6edceea49d80a360a0d4"),
    # factors that overflow float64 (exit 2) and a product that does (exit 3)
    (2, "oplus omega1000.json",
     "3506abe27bc9aca6692b6d3b8facc624b5819e164942e5e99845c3c97c9c8b6e"),
    (2, "invert omega1000.json",
     "3506abe27bc9aca6692b6d3b8facc624b5819e164942e5e99845c3c97c9c8b6e"),
    (2, "invert omega800.json",
     "b0e29426e01fa905794dbf52eb4c7ab77684f50f6ff9e663f324032d38af6575"),
    (2, "oplus omega800.json",
     "b0e29426e01fa905794dbf52eb4c7ab77684f50f6ff9e663f324032d38af6575"),
    (2, "compose omega800.json omega800.json",
     "b0e29426e01fa905794dbf52eb4c7ab77684f50f6ff9e663f324032d38af6575"),
    (2, "invert u1e155.json",
     "df394b5d148c5093ab2c56573b2fa304191f2579c4e17c96da43aac402ee3a1b"),
    (2, "oplus u1e155.json",
     "df394b5d148c5093ab2c56573b2fa304191f2579c4e17c96da43aac402ee3a1b"),
    (2, "compose u1e155.json u1e155.json",
     "df394b5d148c5093ab2c56573b2fa304191f2579c4e17c96da43aac402ee3a1b"),
    (3, "compose omega460.json omega460.json",
     "df92cd6a892fc9546d2e2bd2952cdf93af5778da539f4eb3d2571bc1425fb4cf"),
    # a table that fails Jacobi (exit 4, with its counterexample), and malformed tables
    (4, "check --suite jacobi --constants c-flipped.json",
     "915dcacc7adec596fa984ef04ccd4661aeb841d73301a84053f9a9e40d61fbb6"),
    (2, "check --suite jacobi --constants c-no-entries.json",
     "bb18a48c8948f4881e41a567b51cd52481061a6c1b75fe4704e62f5be4be97a1"),
    (2, "check --suite jacobi --constants c-list.json",
     "bb18a48c8948f4881e41a567b51cd52481061a6c1b75fe4704e62f5be4be97a1"),
    (2, "check --suite jacobi --constants c-entry-1.json",
     "bce808cdcbfd21c137270c48198a04886654f67b0147c2514e2954b64627814d"),
    (2, "check --suite jacobi --constants c-j9.json",
     "cb0661511aef5f071bbe4a49bf43a543acd7983252f50aab8f90719f282ae9b1"),
    (2, "check --suite jacobi --constants c-c-list.json",
     "9c8c1b313fc8f007978d0d432e77e41a8feb8e408192445c8bcf55390c4cfc29"),
    (2, "check --suite jacobi --constants c-f-true.json",
     "67f488ea95c827b1cb844b91bad4970ce1c5811a8011ec7897199e66e55b5ee4"),
    (2, "check --suite jacobi --constants c-f-float.json",
     "6a4491a066e5b5c3f531407e50ffcf5d4ae1ec266e06efd6e828b7dd5f9bdf36"),
    (2, "check --suite jacobi --constants c-f-2.json",
     "b027008bc85f0f762a4415ab417a5dbfbfa2a8169c45d5605ebfb236ca2f70af"),
    (2, "check --suite jacobi --constants c-diagonal.json",
     "8c83ef19a833d5ce7d088ef02b8af615982291cb3775734c957b665f0c81f55e"),
    # success: compose, the identity, labels, signed zeros of a negative alpha, a W
    (0, "compose e2.json e1.json",
     "abdb9e8e60f2f6f70d7f2943ff35c92f51bbad03d47728a6d11b087cd921253e"),
    (0, "compose z.json z.json",
     "d3b28000eacf371a8901bedac967cdc25a42257213ee205dc041a9f3ab9f10f9"),
    (0, "oplus z.json",
     "5d9b1a0b8fda5b5f84225459c808dbab63c83176b9ad75dc673b940a398b177a"),
    (0, "oplus a5.json --labels",
     "5884d77dbdd69e89ce616c3f475288e1b8a607a562d4e18cbb92bad44600f3ab"),
    (0, "theta neg.json --closed --csv --labels",
     "ce96be27679279b209bf8ff4c5d5ccd733bf7114a761de92e82c78a4bc647462"),
    (0, "decompose --matrix w.json",
     "8449663736b9c580fface3063bccb239634b0341d137a41689fa74dcf22aca2f"),
    (0, "dump-algebra --format csv",
     "ef4ace6f13bdf81dcd1b9160e6d34c63e5494609b6da5dd11d34efe6ffe3a920"),
]


def _run(argv: list) -> tuple:
    """Exit code, stdout and stderr of `cli.main(argv)`, run in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _matrix_doc(entries, labels: bool = False) -> dict:
    """The document of the 15x15 matrix with `entries`, row by row; NaN, an
    entry without a claim, is None."""
    rows = [[None if math.isnan(x) else x for x in entries[i:i + 15]]
            for i in range(0, 225, 15)]
    return {"labels": list(_names.GENERATOR_NAMES), "matrix": rows} if labels \
        else {"matrix": rows}


def _csv_text(entries) -> str:
    """The labelled CSV of a matrix: NaN, an entry without a claim, is an
    empty cell, and + 0.0 turns -0.0 into 0."""
    lines = ["," + ",".join(_names.GENERATOR_NAMES)]
    for i, name in enumerate(_names.GENERATOR_NAMES):
        lines.append(name + "," + ",".join("" if math.isnan(x) else format(x + 0.0, ".17g")
                                           for x in entries[15 * i:15 * i + 15]))
    return "\n".join(lines) + "\n"


class CommandLinePins(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        """Run each command of COMMANDS once, in a directory of FILES."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # the error messages name the files as given
            try:
                table = _run(["dump-algebra"])[1]
                tables = {"t.json": table, "tfull.json": _run(["dump-algebra", "--full"])[1]}
                doc = json.loads(table)
                first, *rest = doc["entries"]
                for name, edit in TABLE_EDITS.items():
                    tables[name] = json.dumps({**doc, "entries": [{**first, **edit}, *rest]})
                for name, text in {**FILES, **tables}.items():
                    with open(name, "wb") as fh:
                        fh.write(text if isinstance(text, bytes) else text.encode())
                cls.outputs = {args: _run(args.split()) for _, args, _ in COMMANDS}
            finally:
                os.chdir(cwd)

    def test_numpy_free_commands(self):
        for want, args, digest in COMMANDS:
            out = self.outputs[args]
            self.assertEqual(out[0], want, args)
            self.assertEqual(_sha256(json.dumps(out)), digest, args)

    def test_element_commands_print_the_library_result(self):
        # a JSON row prints the library's document and reads back to it
        # exactly, so its numbers are the library's floats
        def element(name):
            return cli.parse_element_obj(json.loads(FILES[name]))

        def decomposed(name):
            m = [float(x) for row in json.loads(FILES[name])["matrix"] for x in row]
            return element_doc(GroupParams(xl=_xl_decompose(m)))

        g, z = element("e.json"), element("z.json")
        for args, doc in (
                ("invert e.json", element_doc(inverse(g))),
                ("invert huge.json", element_doc(inverse(element("huge.json")))),
                ("compose e.json e.json", element_doc(compose(g, g))),
                ("compose e2.json e1.json",
                 element_doc(compose(element("e2.json"), element("e1.json")))),
                ("compose z.json z.json", element_doc(compose(z, z))),
                ("decompose --matrix m.json", decomposed("m.json")),
                ("decompose --matrix w.json", decomposed("w.json")),
                ("theta e.json", _matrix_doc(_theta_numeric(g))),
                ("theta e.json --closed", _matrix_doc(_theta_closed_entries(g))),
                ("oplus e.json", _matrix_doc(_oplus_entries(g))),
                ("oplus z.json", _matrix_doc(_oplus_entries(z))),
                ("oplus a5.json --labels", _matrix_doc(_oplus_entries(element("a5.json")), True))):
            out = self.outputs[args][1]
            self.assertEqual(out, cli.canonical_json(doc) + "\n", args)
            self.assertEqual(json.loads(out), doc, args)
        for args, entries in (
                ("oplus e.json --csv --labels", _oplus_entries(g)),
                ("theta neg.json --closed --csv --labels",
                 _theta_closed_entries(element("neg.json")))):
            self.assertEqual(self.outputs[args][1], _csv_text(entries), args)


def _outcome(read, *args):
    """The entries a read returns, as (type, hex) pairs, or its message."""
    try:
        return [(type(x), x.hex()) for x in read(*args)]
    except ValueError as e:
        return str(e)


def _full_read(name, value, shape):
    """The number rule, the shape check and the finiteness check, with no
    fast path: what `_float_entries` must give on every value."""
    v = _names._real_entries(name, value, shape)
    if not all(map(math.isfinite, v)):
        raise ValueError(f"{name} must be finite")
    return v


class FloatEntries(unittest.TestCase):

    def test_fast_path_equals_the_full_read(self):
        rnd = random.Random(15)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 0, 7, True, False]
        values = [[1e308, 1e308, 0.0, 0.0]]
        for _ in range(2000):
            n = rnd.randint(3, 5)
            v = [rnd.gauss(0.0, 1.0) * 10.0 ** rnd.randint(-300, 300) for _ in range(n)]
            for _ in range(rnd.randint(0, 2)):
                v[rnd.randrange(n)] = rnd.choice(special)
            values.append(v)
        for v in values:
            for value, shape in ((v, (4,)), (tuple(v), (4,)), (v[0], ())):
                self.assertEqual(_outcome(_names._float_entries, "p", value, shape),
                                 _outcome(_full_read, "p", value, shape), value)


class IntegerLayer(unittest.TestCase):

    def test_jacobi_and_casimir_are_exact(self):
        rep = jacobi_check()
        self.assertEqual((rep.max_violation, rep.violations), (0, []))
        self.assertEqual(_invariance_residual(_CASIMIR_MU, STRUCTURE_CONSTANTS), [0] * 15)
        self.assertEqual(_invariance_residual(_CASIMIR_LAMBDA, STRUCTURE_CONSTANTS)[:10],
                         [0] * 10)
