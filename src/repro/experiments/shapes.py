"""Qualitative shape checks: what "reproduced" means for each figure.

The reproduction targets the paper's *shapes* — who wins, where the
minimum falls, which curve overtakes which — not its absolute seconds
(the substrate is a simulator, not the 1995 prototype).  Each checker
returns a list of human-readable violations (empty = shape holds), so
tests can assert emptiness and :mod:`~repro.experiments.results` can
record each as a verdict.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = [
    "check_fig6_minimum",
    "check_efficiency_bands",
    "check_fig8_components",
    "check_fig9_orderings",
]


def check_fig6_minimum(
    curve: dict[int, float],
    optimum: tuple[int, int] = (2, 6),
    require_rise: bool = True,
) -> list[str]:
    """Fig. 6 shape: the minimum lies at a small thread count.

    The paper: "the best communication performance occurs when the
    number of threads is two to four", and larger thread counts make it
    worse again.  We accept a minimum anywhere in ``optimum`` (default
    2..6 — one sweep step of slack) and, when ``require_rise``, demand
    the largest thread count is worse than the minimum.
    """
    if 1 not in curve or len(curve) < 3:
        raise ConfigError("Fig. 6 curve needs h=1 and at least three points")
    problems = []
    best_h = min(curve, key=curve.__getitem__)
    if not (optimum[0] <= best_h <= optimum[1]):
        problems.append(f"minimum at h={best_h}, expected within {optimum}")
    if curve[best_h] >= curve[1]:
        problems.append(f"no improvement over one thread (min {curve[best_h]} >= {curve[1]})")
    if require_rise:
        h_max = max(curve)
        if curve[h_max] <= curve[best_h]:
            problems.append(
                f"communication time does not rise toward h={h_max} "
                f"({curve[h_max]} <= minimum {curve[best_h]})"
            )
    return problems


def check_efficiency_bands(
    sort_eff: dict[int, float],
    fft_eff: dict[int, float],
    fft_floor: float = 0.90,
    collapse_gap: float = 0.25,
) -> list[str]:
    """Fig. 7 shape: FFT overlaps almost everything at every thread
    count; sorting's overlap is destroyed by synchronisation as threads
    grow.

    Paper reference points: FFT > 95 % at two to four threads and
    roughly flat; sorting peaks at small h and *falls off* toward 16
    threads ("larger numbers of threads have adversely affected the
    amount of overlapping").  The checker asserts: (1) FFT above
    ``fft_floor`` somewhere in h = 2..4, (2) at the largest common
    thread count FFT leads sorting by at least ``collapse_gap``, (3)
    sorting declines from its peak to the largest thread count, and
    (4) E(1) ≡ 0.  Absolute sorting amplitude is a documented deviation
    (EXPERIMENTS.md): the prototype's communication bucket absorbed
    stalls an exact busy-accounting simulator does not generate.
    """
    problems = []
    fft_best_small_h = max(fft_eff.get(h, 0.0) for h in (2, 3, 4))
    if fft_best_small_h < fft_floor:
        problems.append(
            f"FFT efficiency at h=2..4 is {fft_best_small_h:.2f}, below {fft_floor}"
        )
    common = sorted(set(sort_eff) & set(fft_eff))
    h_max = common[-1]
    if fft_eff[h_max] - sort_eff[h_max] < collapse_gap:
        problems.append(
            f"no high-thread collapse separation at h={h_max} "
            f"(FFT {fft_eff[h_max]:.2f} vs sorting {sort_eff[h_max]:.2f})"
        )
    sort_peak = max(v for h, v in sort_eff.items() if h > 1)
    if sort_eff[h_max] >= sort_peak:
        problems.append(
            f"sorting efficiency does not decline toward h={h_max} "
            f"(peak {sort_peak:.2f}, end {sort_eff[h_max]:.2f})"
        )
    if abs(sort_eff.get(1, 0.0)) > 1e-12 or abs(fft_eff.get(1, 0.0)) > 1e-12:
        problems.append("efficiency at one thread must be zero by definition")
    return problems


def check_fig8_components(panel: dict[int, dict[str, float]], app: str) -> list[str]:
    """Fig. 8 shape: stacking sums to 100; switching grows with h;
    the one-thread run shows relatively more communication; FFT is
    computation-dominated while sorting is not."""
    problems = []
    for h, comps in panel.items():
        total = sum(comps.values())
        if abs(total - 100.0) > 1e-6:
            problems.append(f"h={h}: components sum to {total}, not 100")
    hs = sorted(panel)
    h1, hN = hs[0], hs[-1]
    if panel[hN]["switching"] <= panel[h1]["switching"]:
        problems.append(
            f"switching share does not grow with threads "
            f"({panel[h1]['switching']:.1f} -> {panel[hN]['switching']:.1f})"
        )
    mid = [h for h in hs if 2 <= h <= 4]
    if h1 == 1 and mid:
        if not any(panel[1]["communication"] > panel[h]["communication"] for h in mid):
            problems.append("one-thread run should show relatively more communication")
    comp_large_h = panel[hs[len(hs) // 2]]["computation"]
    if app == "fft" and comp_large_h < 60.0:
        problems.append(f"FFT should be computation-dominated, got {comp_large_h:.1f}%")
    if app == "sort" and comp_large_h > 90.0:
        problems.append(f"sorting unexpectedly computation-dominated ({comp_large_h:.1f}%)")
    return problems


def check_fig9_orderings(panel: dict[int, dict[str, float]], app: str, small_problem: bool) -> list[str]:
    """Fig. 9 shape: remote-read switches are flat in h; iteration-sync
    switches grow with h (and rival remote reads at 16 threads on small
    problems); thread-sync stays below iteration-sync, with FFT showing
    (nearly) none."""
    problems = []
    hs = sorted(panel)
    rr = [panel[h]["remote_read"] for h in hs]
    if max(rr) > 1.05 * min(rr):
        problems.append(f"remote-read switches vary with h: {min(rr):.0f}..{max(rr):.0f}")
    it1, itN = panel[hs[0]]["iter_sync"], panel[hs[-1]]["iter_sync"]
    if itN <= it1:
        problems.append(f"iteration-sync switches do not grow with h ({it1:.0f} -> {itN:.0f})")
    for h in hs:
        if panel[h]["thread_sync"] > panel[h]["iter_sync"] and panel[h]["thread_sync"] > 10:
            problems.append(f"h={h}: thread-sync exceeds iteration-sync")
    if app == "fft":
        if any(panel[h]["thread_sync"] > 0.05 * max(panel[h]["iter_sync"], 1.0) for h in hs):
            problems.append("FFT should show (nearly) no thread-sync switches")
    else:
        if all(panel[h]["thread_sync"] == 0 for h in hs if h > 1):
            problems.append("sorting should show thread-sync switches")
    if small_problem:
        h16 = hs[-1]
        if panel[h16]["iter_sync"] < 0.25 * panel[h16]["remote_read"]:
            problems.append(
                "on the small problem, iteration-sync at 16 threads should "
                "rival remote-read switching "
                f"({panel[h16]['iter_sync']:.0f} vs {panel[h16]['remote_read']:.0f})"
            )
    return problems
