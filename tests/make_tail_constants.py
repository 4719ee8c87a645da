"""Generate the constants of the chi-square tail's closed forms with mpmath.

Run ``python tests/make_tail_constants.py`` to print them as the hex-float
block that ``rankeffect.inference`` holds; the test suite reruns
:func:`constants` and compares, bit for bit.  Hex floats are exact, so the
tables are the same on every platform, whatever its ``long double``.

- ``_EXP2``: 2^(j/64) for j = 0..63 as double-doubles, hi then lo: hi is the
  value rounded to double, lo the rest rounded (Tang 1989, ACM TOMS 15:144).
  The module computes this one in integer arithmetic, not from hex floats;
  the test compares it all the same.
- ``_LN2_64``: ln 2 / 64 as (hi, lo), hi with 32 significant bits, so that
  ``N * hi`` is exact for every |N| < 2^21; ``_INV_LN2_64`` is 64 / ln 2.
- ``_ERFCX``: coefficients, highest degree first, of a degree-21 Chebyshev
  fit of ``(1 + 2z) e^(z^2) erfc(z)`` in ``w = (z - 3) / (z + 3)`` over
  z >= 1.2, the form of Weideman (1994, SIAM J. Numer. Anal. 31:1497).
- ``_TWO_OVER_SQRT_PI``: 2 / sqrt(pi).
"""

import mpmath as mp

DPS = 50
ERFCX_K = 3
ERFCX_FROM = mp.mpf("1.2")
ERFCX_TERMS = 22


def _scaled_erfc(w):
    if w >= 1:
        return 2 / mp.sqrt(mp.pi)
    z = ERFCX_K * (1 + w) / (1 - w)
    return (1 + 2 * z) * mp.erfc(z) * mp.exp(z * z)


def constants() -> dict[str, float | list[float]]:
    """Every generated constant, by its name in ``rankeffect.inference``."""
    with mp.workdps(DPS):
        exp2 = []
        for j in range(64):
            value = mp.power(2, mp.mpf(j) / 64)
            exp2 += [float(value), float(value - float(value))]
        step = mp.log(2) / 64
        scale = mp.mpf(2) ** 38  # ln2/64 is 1.39 * 2^-7: 32 significant bits
        hi = float(mp.nint(step * scale) / scale)
        start = (ERFCX_FROM - ERFCX_K) / (ERFCX_FROM + ERFCX_K)
        erfcx = mp.chebyfit(_scaled_erfc, [start, 1], ERFCX_TERMS)
        return {
            "_EXP2": exp2,
            "_LN2_64": [hi, float(step - hi)],
            "_INV_LN2_64": float(1 / step),
            "_ERFCX": [float(c) for c in erfcx],
            "_TWO_OVER_SQRT_PI": float(2 / mp.sqrt(mp.pi)),
        }


def source() -> str:
    """The hex-float constants as the module writes them, four a line."""
    out = []
    for name, values in constants().items():
        if name == "_EXP2":
            continue
        if isinstance(values, float):
            out.append(f'{name} = float.fromhex("{values.hex()}")')
            continue
        words = [v.hex() for v in values]
        lines = [" ".join(words[i:i + 4]) for i in range(0, len(words), 4)]
        if len(lines) == 1:
            out.append(f'{name} = _hex("{lines[0]}")')
            continue
        out.append(f'{name} = _hex("""\n' + "\n".join(lines) + '\n""")')
    return "\n".join(out)


if __name__ == "__main__":
    print(source())
