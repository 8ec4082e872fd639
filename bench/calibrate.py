"""Fixed reference work that does not use tmsvphase.

    python bench/calibrate.py

The benchmark times this script in a fresh interpreter next to every
operation. Its wall time tracks how fast the shared machine is at that
moment. The work resembles the program's: an interpreter start and a numpy
import, a Python loop over small complex vectors like the per-point
oracle, and dense complex products of matrices larger than one core's L2,
like the exponential in ``verify``.
"""

import numpy as np

VECTOR_LOOPS = 10000
MATRIX = 384
PRODUCTS = 70


def main() -> None:
    n = np.arange(378)
    coeffs = 0.9 ** n * np.exp(0.1j * n)
    total = 0.0
    for k in range(VECTOR_LOOPS):
        evolved = coeffs * np.exp(-1j * (n + n) * (k * 1e-3))
        total += float(np.sum((n + n) * np.abs(evolved) ** 2))
    rng = np.random.default_rng(0)
    # Powers of a unitary matrix stay well scaled: no overflow, no denormals.
    a, _ = np.linalg.qr(rng.standard_normal((MATRIX, MATRIX))
                        + 1j * rng.standard_normal((MATRIX, MATRIX)))
    b = a
    for _ in range(PRODUCTS):
        b = b @ a
    print(total, float(np.abs(b).sum()))


if __name__ == "__main__":
    main()
