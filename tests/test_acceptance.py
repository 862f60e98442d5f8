"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
from dataclasses import replace

import numpy as np

from detnet.cli import dispatch
from detnet.config import parse_config
from detnet.scaling import (
    ArchitectureSpec,
    ModelParams,
    detection_time,
    expansion_time,
    hub_count,
    hub_size,
    optimal_exponent,
    output_target,
    total_response_time,
)
from detnet.scenarios import scenario_table
from detnet.sim import simulate


def arch(a=0.5, n0=1.0, s0=1.0e6, d=2):
    return ArchitectureSpec(exponent=a, base_hub_count=n0, base_hub_size=s0, dimension=d)


def peers_contacted(M, spec, p):
    """Peer hubs contacted: serial t_recruit at one time unit per contact."""
    return total_response_time(M, spec, replace(p, contact_latency=1.0)).t_recruit


def _report(num, label, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# Regression fixture for criterion 8, pinned by a brute-force sweep over the
# default spatial parameters (d=2): the optimum is strictly interior with at
# least this margin from mass INTERIOR_MASS_THRESHOLD upward.
INTERIOR_MASS_THRESHOLD = 4.0
INTERIOR_MARGIN_FLOOR = 0.02
INTERIOR_FIXTURE_MASSES = [4.0, 5.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]


def test_criterion_01_linear_output_law():
    p = ModelParams()
    ratios = [output_target(25000.0 * M0, p) / output_target(M0, p)
              for M0 in (1.0, 2.5, 3.0)]
    _report(1, "output requirement scales linearly (25000x system, 25000x output)",
            all(r == 25000.0 for r in ratios), f"ratios={ratios}")


def test_criterion_02_expansion_log_law():
    ok = True
    details = []
    for tau in (1.0, 2.5):
        p = ModelParams(doubling_time=tau)
        fixed_pool = 1.0  # cognate cells of one baseline hub
        t_base = expansion_time(fixed_pool, output_target(1.0, p), tau)
        for M in (2.0, 4.0, 25000.0):
            t = expansion_time(fixed_pool, output_target(M, p), tau)
            want = tau * math.log2(M)
            ok &= abs((t - t_base) - want) <= 1e-9 * want
        # pool proportional to M: response time flat
        times = {expansion_time(p.bcrit_coefficient * M, output_target(M, p), tau)
                 for M in (1.0, 2.0, 10.0, 4096.0, 25000.0)}
        spread = max(times) - min(times)
        ok &= spread <= 1e-12 * max(times)
        details.append(f"tau={tau}: flat spread={spread:.2e}")
    _report(2, "fixed pool adds tau*log2(M); mass-tracking pool is flat",
            ok, "; ".join(details))


def test_criterion_03_two_month_bound():
    p = ModelParams(doubling_time=4.0)  # four-day baseline calibration
    fixed_pool = p.bcrit_coefficient * 1.0
    t = expansion_time(fixed_pool, output_target(25000.0, p), 4.0)
    _report(3, "fixed-pool response at 25000x baseline exceeds 60 time units",
            t > 60.0, f"t={t:.2f}")


def test_criterion_04_conservation():
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for _ in range(1000):
        M = 10.0 ** rng.uniform(-2, 6)
        a = rng.uniform(0.0, 1.0)
        spec = arch(a=a, n0=rng.uniform(1.0, 64.0), s0=10.0 ** rng.uniform(3, 8))
        continuous, _ = hub_count(M, spec)
        expected = spec.base_hub_count * spec.base_hub_size * M
        worst = max(worst, abs(continuous * hub_size(M, spec) - expected) / expected)
    _report(4, "hub count x hub size conserves total tissue within 1e-12",
            worst <= 1e-12, f"worst rel err={worst:.2e}")


def test_criterion_05_architecture_limit_behaviors():
    masses = (1.0, 10.0, 100.0, 1000.0, 10000.0)
    p = ModelParams()
    flat_detect = {detection_time(M, arch(a=1.0), p, "spatial") for M in masses}
    exact_flat = len(flat_detect) == 1

    trivial = {peers_contacted(M, arch(a=0.0), p) for M in masses}
    rich = ModelParams(bcrit_coefficient=7.3)
    demands = [peers_contacted(M, arch(a=0.0, n0=8.0), rich) for M in masses]
    demand_flat = trivial == {0} and max(demands) - min(demands) <= 1
    _report(5, "a=1 detection exactly flat; a=0 demand flat within one contact",
            exact_flat and demand_flat,
            f"detect values={sorted(flat_detect)}, demands={demands}")


def test_criterion_06_demand_scaling_exponent():
    p = ModelParams(bcrit_coefficient=100.0)
    masses = [10.0, 100.0, 1000.0, 10000.0]
    ok = True
    fits = []
    for a in (0.25, 0.5, 0.75, 1.0):
        ks = [peers_contacted(M, arch(a=a, n0=256.0), p) for M in masses]
        slope = float(np.polyfit(np.log(masses), np.log(ks), 1)[0])
        fits.append(f"a={a}: {slope:.3f}")
        ok &= abs(slope - a) < 0.05
    _report(6, "recruitment demand scales as M^a (log-log slope within 0.05)",
            ok, "; ".join(fits))


def test_criterion_07_optimizer_matches_exhaustive_scan():
    rng = np.random.default_rng(7321)
    base = ArchitectureSpec()
    mismatches = 0
    for _ in range(100):
        n0 = float(rng.uniform(1.0, 32.0))
        s0 = float(10.0 ** rng.uniform(4, 7))
        f = float(10.0 ** rng.uniform(-7, -5))
        beta = f * n0 * s0 * float(rng.uniform(0.05, 1.0))
        rng.uniform(0.5, 2.0)  # drawn and unused, so the 100 cases keep their random stream
        p = ModelParams(
            cognate_frequency=f,
            bcrit_coefficient=beta,
            antibody_coefficient=float(beta * 2.0 ** rng.uniform(0.5, 6.0)),
            doubling_time=float(rng.uniform(0.25, 4.0)),
            detector_speed=float(rng.uniform(0.1, 10.0)),
            contact_latency=float(rng.choice([0.0, rng.uniform(0.01, 1.0)])),
            contention_coefficient=float(rng.choice([0.0, rng.uniform(0.01, 1.0)])),
        )
        rng.uniform(0.1, 10.0)  # drawn and unused, so the 100 cases keep their random stream
        spec = ArchitectureSpec(0.0, n0, s0, int(rng.integers(1, 4)))
        M = float(10.0 ** rng.uniform(0.0, 5.0))
        mode = "spatial" if rng.random() < 0.5 else "contention"
        resolution = float(rng.choice([0.01, 0.02, 0.05]))

        got_a, got_bd = optimal_exponent(M, p, mode, resolution, spec)

        # independent exhaustive scan over the documented grid
        n = round(1.0 / resolution)
        grid = [i / n for i in range(n + 1)]
        best_a, best_bd = None, None
        for a in grid:
            bd = total_response_time(M, spec.with_exponent(a), p, mode)
            if best_bd is None or bd.t_total < best_bd.t_total:
                best_a, best_bd = a, bd
        if (got_a, got_bd) != (best_a, best_bd):
            mismatches += 1
    _report(7, "optimizer equals the exhaustive grid scan on 100 random parameter sets",
            mismatches == 0, f"mismatches={mismatches}")


def test_criterion_08_interior_optimum():
    p = ModelParams()  # default spatial parameters: contact_latency 0.2 > 0, d=2
    ok = True
    margins = []
    for M in INTERIOR_FIXTURE_MASSES:
        a_star, bd = optimal_exponent(M, p, "spatial", 0.01)
        t0 = total_response_time(M, arch(a=0.0), p).t_total
        t1 = total_response_time(M, arch(a=1.0), p).t_total
        margin = min(t0, t1) - bd.t_total
        margins.append(margin)
        ok &= 0.0 < a_star < 1.0 and margin > 0.0
    ok &= margins[0] >= INTERIOR_MARGIN_FLOOR
    a_big, _ = optimal_exponent(1e6, p, "spatial", 0.01)
    balance = 1.0 / (1.0 + 2.0)  # exponent balance (1-a)/d = a at d=2
    ok &= abs(a_big - balance) <= 0.05
    _report(8, f"interior optimum for all masses >= {INTERIOR_MASS_THRESHOLD:g}; "
               f"a*(1e6) within 0.05 of 1/(1+d)",
            ok, f"margins[0]={margins[0]:.4f}, a*(1e6)={a_big:.2f}")


def test_criterion_09_sublinear_optimal_architecture():
    p = ModelParams()
    masses = [10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    counts, sizes = [], []
    interior = True
    for M in masses:
        a_star, _ = optimal_exponent(M, p, "spatial", 0.01)
        interior &= 0.0 < a_star < 1.0
        spec = arch(a=a_star)
        counts.append(hub_count(M, spec)[0])
        sizes.append(hub_size(M, spec))
    count_slope = float(np.polyfit(np.log(masses), np.log(counts), 1)[0])
    size_slope = float(np.polyfit(np.log(masses), np.log(sizes), 1)[0])
    ok = interior and 0.0 < count_slope < 1.0 and 0.0 < size_slope < 1.0
    _report(9, "optimal hub count and size both grow sublinearly",
            ok, f"count slope={count_slope:.3f}, size slope={size_slope:.3f}")


def test_criterion_10_simulator_matches_analytic_model():
    M, spec, p = 256.0, arch(a=0.5), ModelParams()
    trials = 1000
    detect, recruit, expand = [], [], []
    for seed in range(trials):
        bd, _ = simulate(M, spec, p, seed=seed, movement="straight")
        detect.append(bd.t_detect)
        recruit.append(bd.t_recruit)
        expand.append(bd.t_expand)

    predicted = detection_time(M, spec, p, "spatial")
    stderr = float(np.std(detect, ddof=1)) / math.sqrt(trials)
    detect_ok = abs(float(np.mean(detect)) - predicted) < 3.0 * stderr

    analytic = total_response_time(M, spec, p)
    recruit_ok = set(recruit) == {analytic.t_recruit}

    analytic_expand = analytic.t_expand
    expand_ok = all(abs(t - analytic_expand) <= p.doubling_time for t in expand)

    _report(10, "1000-seed simulation matches analytics "
                "(detect 3-sigma, recruit exact, expand within one doubling)",
            detect_ok and recruit_ok and expand_ok,
            f"mean detect={np.mean(detect):.4f} vs {predicted:.4f} (3se={3 * stderr:.4f})")


def test_criterion_11_scenario_table():
    table = scenario_table(ModelParams(), [10.0, 100.0, 1000.0, 10000.0])
    want = [
        ("unlimited-unlimited", "tie"),
        ("limited-unlimited", "model1"),
        ("unlimited-limited", "model2"),
        ("limited-limited", "model3"),
    ]
    _report(11, "four bandwidth regimes rank (tie, model1, model2, model3)",
            table == want, f"table={table}")


def test_criterion_12_byte_deterministic_outputs(tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(
            f"masses = 16 64\ntrials = 5\nseed = 99\nmovement = random_walk\noutput = {out}\n")
        assert dispatch(["simulate", "--config", str(cfg)]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{name}.csv.events").read_bytes()))
    same = outputs[0] == outputs[1]
    _report(12, "identical config and seed give byte-identical CSV and event log",
            same, f"csv bytes={len(outputs[0][0])}, event bytes={len(outputs[0][1])}")
