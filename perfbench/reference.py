"""A fixed stdlib computation whose time tracks the machine's current speed.

run.py starts it as a child process between ops, the same way it starts a
qeuler op: a cold interpreter, then Fraction work like exactarith's and a
modular power sum like qintegral's Riemann levels.  Nothing here imports
qeuler, so a change to qeuler cannot move its time; only the machine can.

    python3 perfbench/reference.py
"""

from fractions import Fraction

import oracle


def main() -> None:
    oracle.euler_numbers_at(Fraction(3, 7), 120)
    modulus, acc, tp = 5 ** 12, 0, 1
    for xi in range(200_000):
        acc = (acc + pow(2 + xi, 8, modulus) * tp) % modulus
        tp = tp * 4 % modulus


if __name__ == "__main__":
    main()
