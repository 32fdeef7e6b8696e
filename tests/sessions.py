"""Seeded random sessions and the traffic they encrypt, for the tests."""

import warnings

from tentbreak import cipher
from tentbreak.backend import get_backend
from tentbreak.cipher import KeyMaterial, Message, WeakKeyWarning


def random_session(rng, n=2, r=8, backend=get_backend("fp62")):
    """A session of a random key (alpha, beta and gamma in [0.02, 0.98],
    weak keys allowed) at a random timestamp."""
    key = KeyMaterial(backend.from_float(rng.uniform(0.02, 0.98)),
                      backend.from_float(rng.uniform(0.02, 0.98)),
                      backend.from_float(rng.uniform(0.02, 0.98)),
                      rng.randrange(1 << (4 * n)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakKeyWarning)
        return cipher.init_session(key, rng.randrange(1, 10 ** 9), n, r, backend)


def encrypt_random(rng, s, count, length=None):
    """count (plaintext, ciphertext) block lists of random messages of
    `length` blocks (default r) under session s."""
    out = []
    for _ in range(count):
        p = [rng.randrange(1 << (4 * s.n)) for _ in range(length or s.r)]
        out.append((p, cipher.encrypt(s, Message(p, s.t)).blocks))
    return out
