"""The prime field GF(p) for odd primes p: the modulus check every constructor runs."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GF:
    """The prime field GF(p).  The modulus must be an odd prime."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
