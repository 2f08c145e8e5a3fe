"""Alternating rounds over named checkouts, and their summary: the part that
``bench_cold.py`` and ``bench_layers.py`` share."""

import statistics


def alternate(trees: dict[str, str], groups, rounds: int, sample) -> dict:
    """``samples[name][group]``: the value of ``sample(name, root, group,
    round)`` in each round, for every group and checkout.

    Within a round the checkouts take turns on each group, and the one that
    goes first rotates from round to round, so that a slow spell of the host
    falls on all of them.
    """
    samples = {name: {group: [] for group in groups} for name in trees}
    names = list(trees)
    for r in range(rounds):
        turn = names[r % len(names):] + names[:r % len(names)]
        for group in groups:
            for name in turn:
                samples[name][group].append(sample(name, trees[name], group, r))
    return samples


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def summarise(samples: dict) -> dict:
    """Per checkout, group and key of the sample dicts, the median and
    quartiles over the rounds.  For every checkout after the first it adds,
    under ``minus_<first checkout>``, the median and quartiles of each
    round's paired difference: its sample minus the first checkout's sample
    of the same group in the same round.  A slow spell of the host shifts
    both samples of a pair, so these settle a gap that the per-checkout
    quartiles, which spread with the host, do not."""
    first = next(iter(samples))
    result = {}
    for name, groups in samples.items():
        result[name] = {}
        for group, runs in groups.items():
            stats = {key: quartiles([s[key] for s in runs]) for key in runs[0]}
            if name != first:
                pairs = list(zip(runs, samples[first][group]))
                stats["minus_" + first] = {key: quartiles([s[key] - f[key] for s, f in pairs])
                                           for key in runs[0]}
            result[name][group] = stats
    return result
