"""Brute-force elevation constant, the oracle for exact.compute_elevation_m:
enumerates every simple path between every pair of ensembles (<= 16 states).
"""

import math

from replica_anneal.exact import SizeLimitError, energy_table_of, total_energy_table


def elevation_m_bruteforce(model, n: int, y: int) -> float:
    energy = energy_table_of(model, n)
    weight = total_energy_table(energy, n, y)
    size = weight.size
    if size > 16:
        raise SizeLimitError("brute force limited to 16 states")
    nbits = n * y
    neighbors = [[v ^ (1 << b) for b in range(nbits)] for v in range(size)]

    def min_elev(src, dst):
        best = [math.inf]

        def dfs(v, visited, peak):
            if peak >= best[0]:
                return
            if v == dst:
                best[0] = peak
                return
            for u in neighbors[v]:
                if not visited & (1 << u):
                    dfs(u, visited | (1 << u), max(peak, weight[u]))

        dfs(src, 1 << src, weight[src])
        return best[0]

    m_best = 0.0
    for s in range(size):
        for t in range(s + 1, size):
            h = min_elev(s, t)
            m_best = max(m_best, h - weight[s] - weight[t])
    return m_best
