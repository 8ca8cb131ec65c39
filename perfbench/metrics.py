"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same names; the benchmark's tests keep the two equal.
"""

WORKLOAD_NAMES = ("lp-bounds", "code-checks")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Enumeration rank buckets, split around the Python/numpy path switch at 16.
RANK_BUCKETS = ((0, 12), (13, 16), (17, 22), (23, 30))
PROBE_RANKS = (8, 12, 16, 20, 24, 28)
PROBE_ORTHOGONAL_N = (15, 32)

PER_LAYER_UNITS: dict[str, str] = {}
for _name in ("pauli.canonicalize", "pauli.orthogonal_group", "pauli.symplectic_gram_schmidt"):
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.s"] = "s"
for _name in ("codes.from_generators", "codes.dual"):
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "codes.min_distance.calls": "count",
    "codes.min_distance.s": "s",
    "codes.min_distance.elements": "count",  # computed upper bound: the walk can exit early
    "enumerator.weight_enumerator.calls": "count",
    "enumerator.weight_enumerator.s": "s",
    "enumerator.weight_enumerator.elements": "count",
})
for _lo, _hi in RANK_BUCKETS:
    PER_LAYER_UNITS[f"enumerator.weight_enumerator.elements_per_s.r{_lo}-{_hi}"] = "1/s"
PER_LAYER_UNITS.update({
    "enumerator.macwilliams_transform.calls": "count",
    "enumerator.macwilliams_transform.s": "s",
    "enumerator.eaqec_identities.calls": "count",
    "enumerator.eaqec_identities.self_s": "s",
    "enumerator.krawtchouk.hit_ratio": "ratio",
    "lpbound.lp_feasible.calls": "count",
    "lpbound.lp_feasible.feasible": "count",
    "lpbound.lp_feasible.infeasible": "count",
    "lpbound.lp_feasible.s": "s",
    "lpbound.lp_feasible.s_feasible": "s",
    "lpbound.lp_feasible.s_infeasible": "s",
    "lpbound.lp_feasible_general.calls": "count",
    "lpbound.lp_feasible_general.infeasible": "count",
    "lpbound.lp_feasible_general.s": "s",
    "lpbound.lp_upper_bound.calls": "count",
    "lpbound.lp_upper_bound.self_s": "s",
    "lpbound.build_table.self_s": "s",
    "lpbound.solves_per_cell": "ratio",
    "setup.import_s": "s",
    "setup.registry_s": "s",
})
for _rank in PROBE_RANKS:
    PER_LAYER_UNITS[f"enumerator.probe.r{_rank}.elements_per_s"] = "1/s"
for _n in PROBE_ORTHOGONAL_N:
    PER_LAYER_UNITS[f"pauli.probe.orthogonal_group.n{_n}.s"] = "s"
PER_LAYER_UNITS.update({
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
})
