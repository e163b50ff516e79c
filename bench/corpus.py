"""Seeded input generators for the benchmark workloads.

Instances are drawn the way the test suite's ``random_instance`` helper
draws them (sorted weight-descending groups, independent random profits),
but the generator lives here so that edits to the tests can never move the
benchmark's inputs.  Two things are fixed instead of random, because they
decide most of a task's cost and a run only measures a few hundred tasks:

* the group sizes, which cycle through a short list of *shapes*, so every
  run measures the same mix of problem sizes;
* the capacity, half the weight of the heaviest one-slot-per-group
  selection, so that the knapsack row always binds and no instance is
  answered by the trivial shortcut.

Everything else comes from one ``random.Random`` seeded by the caller; the
same seed gives the same inputs.
"""

from __future__ import annotations


def instance_data(rng, sizes, max_weight):
    """One instance as plain ints: ``(groups, capacity)``.

    ``groups`` holds one ``(weights, profits)`` pair of tuples per entry of
    ``sizes``, each sorted weight-descending with ties by profit, which is
    the order ``ckp.model.normalize`` produces.
    """
    groups = []
    for size in sizes:
        pairs = sorted(((rng.randint(1, max_weight), rng.randint(1, max_weight))
                        for _ in range(size)), key=lambda t: (-t[0], -t[1]))
        groups.append((tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)))
    heaviest = sum(weights[0] for weights, _ in groups)
    return groups, max(1, heaviest // 2)


def instance_stream(rng, shapes, max_weight, count):
    """``count`` instances whose group sizes cycle through ``shapes``."""
    return [instance_data(rng, shapes[n % len(shapes)], max_weight)
            for n in range(count)]


def partition_stream(rng, ks, max_alpha, count):
    """``count`` partition inputs ``(alphas, beta)``; ``len(alphas)`` cycles
    through ``ks`` and each alpha is drawn from 1..max_alpha, redrawing
    until the sum is even and at least 4."""
    out = []
    for n in range(count):
        k = ks[n % len(ks)]
        while True:
            alphas = tuple(rng.randint(1, max_alpha) for _ in range(k))
            total = sum(alphas)
            if total % 2 == 0 and total >= 4:
                break
        out.append((alphas, total // 2))
    return out
