"""Sweep records, scaling fits, profile extraction, and report assembly.

Most tests plant a known law (power law, exponential decay, multiplier
limit) and check that the analysis recovers it, so the expected values are
computed from closed forms and never from the code under test.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from fermivar.asymptotics import (
    DecayRates,
    PeakTieWarning,
    ProfileExtract,
    ResolutionWarning,
    SweepFormatError,
    SweepRecord,
    WindowError,
    build_report,
    energy_constant_check,
    find_peak,
    fit_decay_rate,
    fit_power_law,
    multiplier_limits,
    radial_shell_profile,
    read_sweep_csv,
    rescale_extract,
    shell_decay_rate,
    track_concentration,
    usable_records,
    write_json,
    write_plot_tables,
    write_sweep_csv,
)
from fermivar.frames import OrbitalPair, loewdin
from fermivar.grid import (
    BoxGrid,
    ScalarField,
    integrate,
    kinetic_energy,
    norm,
    resample_scaled,
    sample,
)
from fermivar.model import TrapPotential, Well

from helpers import gaussian, normalize, p_gaussian, sp_pair, traced_peak_mb


HARMONIC = TrapPotential(wells=(Well(center=(0.0, 0.0, 0.0), power=2.0),))


def synthetic_records(a_hat=9.5, p=2.0, n=7, lam1=-16.0, lam2=-9.0,
                      well=(0.0, 0.0, 0.0), xbar=(0.05, 0.0, 0.0),
                      c_E=1.3, c_P=0.8):
    """Records following the exact near-threshold laws.

    eps = (a_hat - a)^{1/(p+2)}, E = c_E * eps^p, P = c_P * eps^{-2},
    mu_i = lam_i / eps^2, peak = well + eps * xbar.
    """
    recs = []
    for k in range(n):
        gap = 0.1 * (0.5 ** k)
        a = a_hat - gap
        eps = gap ** (1.0 / (p + 2.0))
        E = c_E * gap ** (p / (p + 2.0))
        P = c_P * gap ** (-2.0 / (p + 2.0))
        peak = tuple(w + eps * x for w, x in zip(well, xbar))
        recs.append(SweepRecord(
            a=a, eps=eps, E=E, T=0.6 * E, W=0.4 * E, P=P,
            mu1=lam1 / eps**2, mu2=lam2 / eps**2,
            peak=peak, defect=1e-12, converged=True,
        ))
    return recs


# ---------------------------------------------------------------------------
# records and CSV round-trip
# ---------------------------------------------------------------------------


def test_record_validation_and_usable():
    with pytest.raises(ValueError):
        SweepRecord(a=1, eps=0.0, E=1, T=1, W=0, P=1, mu1=-1, mu2=-1,
                    peak=(0, 0, 0), defect=0, converged=True)
    r = SweepRecord(a=1, eps=0.5, E=1, T=1, W=0, P=1, mu1=-1, mu2=-1,
                    peak=(0, 0, 0), defect=0, converged=True)
    assert r.usable
    bad = SweepRecord(a=1, eps=0.5, E=1, T=1, W=0, P=1, mu1=-1, mu2=-1,
                      peak=(0, 0, 0), defect=0, converged=False)
    flagged = SweepRecord(a=1, eps=0.5, E=1, T=1, W=0, P=1, mu1=-1, mu2=-1,
                          peak=(0, 0, 0), defect=0, converged=True,
                          under_resolved=True)
    assert not bad.usable and not flagged.usable
    assert usable_records([r, bad, flagged]) == [r]


def test_csv_round_trip_is_exact(tmp_path):
    # awkward floats: fractions with no finite binary expansion
    recs = synthetic_records(a_hat=1.0 / 3.0 + 9.0, n=5)
    recs[2] = SweepRecord(
        a=recs[2].a, eps=math.pi / 30.0, E=recs[2].E, T=recs[2].T,
        W=recs[2].W, P=recs[2].P, mu1=-1.0 / 7.0, mu2=-0.1,
        peak=(0.1, -0.2, 1e-17), defect=3e-16, converged=False,
        under_resolved=True, stop_reason="max_iters+scf",
    )
    recs[3] = dataclasses.replace(recs[3], stop_reason="tolerance")
    path = tmp_path / "records.csv"
    write_sweep_csv(recs, path)
    back = read_sweep_csv(path)
    assert len(back) == len(recs)
    for x, y in zip(recs, back):
        assert x == y  # dataclass equality: bitwise float round-trip
    # rewriting the parsed records reproduces the file byte for byte
    path2 = tmp_path / "records2.csv"
    write_sweep_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_carries_under_resolved_and_stop_reason(tmp_path):
    # the whole record lives in the CSV: no flag list rides beside it
    flags = [False, True, False, True]
    reasons = ["tolerance", None, "line_search+scf", "breach"]
    recs = [dataclasses.replace(r, under_resolved=f, stop_reason=s)
            for r, f, s in zip(synthetic_records(n=4), flags, reasons)]
    path = tmp_path / "r.csv"
    write_sweep_csv(recs, path)
    assert path.read_text().splitlines()[0].endswith(
        ",converged,under_resolved,stop_reason")
    back = read_sweep_csv(path)
    assert [r.under_resolved for r in back] == flags
    assert [r.stop_reason for r in back] == reasons
    assert back == recs


def test_csv_format_errors(tmp_path):
    recs = synthetic_records(n=3)
    path = tmp_path / "r.csv"
    with pytest.raises(SweepFormatError):
        write_sweep_csv(list(reversed(recs)), path)  # descending a
    write_sweep_csv(recs, path)
    lines = path.read_text().splitlines()
    (tmp_path / "h.csv").write_text("\n".join(["a,b,c"] + lines[1:]) + "\n")
    with pytest.raises(SweepFormatError):
        read_sweep_csv(tmp_path / "h.csv")
    for col in (12, 13):  # converged, under_resolved
        cells = lines[1].split(",")
        cells[col] = "maybe"
        (tmp_path / "c.csv").write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
        with pytest.raises(SweepFormatError):
            read_sweep_csv(tmp_path / "c.csv")
    (tmp_path / "n.csv").write_text(
        "\n".join([lines[0], lines[1] + ",1.0"]) + "\n")
    with pytest.raises(SweepFormatError):
        read_sweep_csv(tmp_path / "n.csv")


# ---------------------------------------------------------------------------
# peak location
# ---------------------------------------------------------------------------


def test_find_peak_recovers_quadratic_maximum():
    g = BoxGrid(21, 1.0)
    x0 = np.array([0.031, -0.042, 0.017])  # all inside half a spacing

    def f(X, Y, Z):
        return 3.0 - (X - x0[0])**2 - (Y - x0[1])**2 - (Z - x0[2])**2

    rho = sample(g, f)
    peak = find_peak(rho)
    # parabola through exact quadratic samples: exact up to roundoff
    assert np.allclose(peak, x0, atol=1e-12)


def test_find_peak_warns_on_tie_and_rejects_nonpositive():
    g = BoxGrid(12, 1.0)
    v = np.zeros((12, 12, 12))
    v[3, 3, 3] = 1.0
    v[8, 8, 8] = 1.0
    with pytest.warns(PeakTieWarning):
        find_peak(ScalarField(g, v))
    with pytest.raises(ValueError):
        find_peak(ScalarField(g, np.zeros((12, 12, 12))))


def test_find_peak_accepts_a_mirror_symmetric_tie():
    # even n: a density symmetric under y -> -y and z -> -z peaks on four
    # tied nodes (i, 5|6, 5|6) around the axis, one node apart
    g = BoxGrid(12, 1.0)
    rho = sample(g, lambda X, Y, Z: np.exp(-4.0 * ((X - 0.3)**2 + Y**2 + Z**2)))
    v = rho.values
    i = int(np.argmax(v[:, 5, 5]))
    assert v[i, 5, 5] == pytest.approx(v[i, 6, 6], rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PeakTieWarning)
        peak = find_peak(rho)
    # a parabola through two equal samples has its vertex midway
    assert np.allclose(peak[1:], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# profile extraction
# ---------------------------------------------------------------------------


def test_rescale_extract_mass_and_multiplier_scaling():
    src = BoxGrid(48, 3.0)
    pair = sp_pair(src, 0.35)
    ref = BoxGrid(40, 4.0)
    # eps spans 3.9 source spacings, below the promised 8: the call warns
    with pytest.warns(ResolutionWarning):
        ex = rescale_extract(pair, 0.5, (0.0, 0.0, 0.0), ref, mu1=-8.0, mu2=-4.0)
    assert abs(ex.raw_mass - 2.0) < 1e-4
    assert ex.lambda1 == pytest.approx(0.25 * -8.0)
    assert ex.lambda2 == pytest.approx(0.25 * -4.0)
    assert ex.rescaled_pair.defect() <= 1e-10
    # blow-up rescaling at eps=0.5 doubles the length scale: kinetic / 4
    T_src = kinetic_energy(pair.u1) + kinetic_energy(pair.u2)
    T_ref = (kinetic_energy(ex.rescaled_pair.u1)
             + kinetic_energy(ex.rescaled_pair.u2))
    assert abs(T_ref / T_src - 0.25) < 0.02


def test_rescale_extract_holds_two_reference_fields():
    # the decay extraction's shape: an n = 32 pair onto a 96^3 window
    pair = sp_pair(BoxGrid(32, 2.2), 0.35)
    ref = BoxGrid(96, 3.5)
    eps, c = 0.45, np.array([0.1, -0.05, 0.02])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        peak = traced_peak_mb(rescale_extract, pair, eps, c, ref)
        ex = rescale_extract(pair, eps, c, ref)
    field_mb = 8 * 96 ** 3 / 1e6
    assert peak < 3 * field_mb  # whole-field Gram and loewdin: 5 fields
    # the whole-array formulation on the same resampled fields
    w = []
    for u in pair:
        v = resample_scaled(u, eps, center=c, out_grid=ref, order=5)
        v *= eps ** 1.5
        w.append(ScalarField(ref, v))
    q = ref.quad_weights_1d()
    assert ex.raw_mass == sum(float((((f.values * f.values) @ q) @ q) @ q) for f in w)
    old = loewdin(*w)
    for got, want in zip(ex.rescaled_pair, old):
        assert np.abs(got.values - want.values).max() <= 1e-15


def test_rescale_extract_window_error():
    src = BoxGrid(32, 2.0)
    pair = sp_pair(src, 0.35)
    ref = BoxGrid(32, 5.0)
    with pytest.raises(WindowError):
        rescale_extract(pair, 0.5, (0.0, 0.0, 0.0), ref)  # reach 2.5 > 2.0
    with pytest.raises(WindowError):
        rescale_extract(pair, 0.2, (1.5, 0.0, 0.0), ref)  # offset pushes out
    with pytest.raises(ValueError):
        rescale_extract(pair, -0.1, (0.0, 0.0, 0.0), ref)


# ---------------------------------------------------------------------------
# power-law fits
# ---------------------------------------------------------------------------


def test_fit_power_law_recovers_planted_exponent():
    rng = np.random.default_rng(13)
    for _ in range(5):
        expo = rng.uniform(-2.0, 2.0)
        const = rng.uniform(0.5, 3.0)
        xs = np.geomspace(1e-3, 1e-1, 9)
        ys = const * xs ** expo
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(expo, abs=1e-12)
        assert fit.log_constant == pytest.approx(math.log(const), abs=1e-10)
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.n_points == 9
        assert fit.window == (pytest.approx(1e-3), pytest.approx(1e-1))


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])


# ---------------------------------------------------------------------------
# concentration tracking and multiplier limits
# ---------------------------------------------------------------------------


def test_track_concentration_identifies_well():
    trap = TrapPotential(wells=(
        Well(center=(-0.8, 0.0, 0.0), power=2.0),
        Well(center=(0.8, 0.0, 0.0), power=4.0),
    ))
    recs = synthetic_records(well=(0.8, 0.0, 0.0), xbar=(0.1, -0.05, 0.0))
    out = track_concentration(recs, trap)
    assert out["well"] == [0.8, 0.0, 0.0]
    assert out["bounded"] and out["dist_trend_ok"]
    assert out["verdict"] == "ok"
    assert np.allclose(out["xbar"], [0.1, -0.05, 0.0], atol=1e-9)
    # rescaled offsets are eps-invariant for the planted family
    assert np.allclose(out["xbar_norms"], out["xbar_norms"][0])


def test_track_concentration_flags_drift():
    recs = synthetic_records(n=6)
    drifted = []
    for k, r in enumerate(recs):
        peak = (r.peak[0] + 0.12 * k, r.peak[1], r.peak[2])  # walks away
        drifted.append(SweepRecord(
            a=r.a, eps=r.eps, E=r.E, T=r.T, W=r.W, P=r.P, mu1=r.mu1,
            mu2=r.mu2, peak=peak, defect=r.defect, converged=True,
        ))
    out = track_concentration(drifted, HARMONIC)
    assert not out["dist_trend_ok"]
    assert out["verdict"] == "failed"


def test_track_concentration_needs_four_usable():
    recs = synthetic_records(n=3)
    with pytest.raises(ValueError):
        track_concentration(recs, HARMONIC)


def test_multiplier_limits_recover_planted_limits():
    lam1, lam2 = -16.0, -9.0
    recs = synthetic_records(lam1=lam1, lam2=lam2)
    out = multiplier_limits(recs)
    # planted eps^2 mu_i is exactly constant: extrapolation is exact
    assert out["lambda1"] == pytest.approx(lam1, rel=1e-9)
    assert out["lambda2"] == pytest.approx(lam2, rel=1e-9)
    assert out["ordered_ok"] and out["negative_ok"]
    assert all(row["ordered_negative"] for row in out["per_record"])


def test_multiplier_limits_sum_rule():
    # build records satisfying the exact finite-a trace identity
    a_hat, p = 9.5, 2.0
    recs = []
    for k in range(5):
        gap = 0.1 * (0.5 ** k)
        a = a_hat - gap
        eps = gap ** (1.0 / (p + 2.0))
        E = 1.3 * gap ** 0.5
        P = 0.8 / math.sqrt(gap)
        mu1 = -16.0 / eps**2
        mu2 = E - (2.0 * a / 3.0) * P - mu1  # forces the identity
        recs.append(SweepRecord(
            a=a, eps=eps, E=E, T=E, W=0.0, P=P, mu1=mu1, mu2=mu2,
            peak=(0, 0, 0), defect=0.0, converged=True,
        ))
    out = multiplier_limits(recs, a_hat=a_hat)
    for row in out["per_record"]:
        assert row["sum_rule_rel_residual"] < 1e-12
    sr = out["sum_rule_limit"]
    assert sr["rel_dev"] < 0.05  # extrapolation error only
    assert out["eps2_E_limit"] == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------


def _exp_field(grid, rate, odd_axis=None):
    X, Y, Z = grid.meshgrid()
    r = np.sqrt(X * X + Y * Y + Z * Z)
    v = np.exp(-rate * r)
    if odd_axis is not None:
        v = v * (X, Y, Z)[odd_axis]
    return normalize(ScalarField(grid, v))


def test_shell_profile_and_decay_rate_on_planted_exponential():
    g = BoxGrid(64, 4.5)
    f = _exp_field(g, 2.0)
    centers, means, counts = radial_shell_profile(f)
    assert np.all(centers < g.half_width)
    assert np.all(counts > 0)
    rate = shell_decay_rate(f, 1.0, 2.5)
    assert rate == pytest.approx(2.0, rel=0.05)
    with pytest.raises(WindowError):
        shell_decay_rate(f, 2.0, 1.0)
    with pytest.raises(WindowError):
        shell_decay_rate(f, 4.4, 4.45)  # too few shells


def test_fit_decay_rate_on_planted_profile():
    g = BoxGrid(64, 4.5)
    u1 = _exp_field(g, 2.0)
    u2 = _exp_field(g, 2.0, odd_axis=0)
    pair = loewdin(u1, u2)
    ex = ProfileExtract(
        rescaled_pair=pair,
        lambda1=-16.0, lambda2=-16.0,
        eps=0.1, center=(0.0, 0.0, 0.0), raw_mass=2.0,
    )
    rates = fit_decay_rate(ex)
    # orbital windows use ell = 2/4 = 0.5 -> [1.0, 2.5]; rho decays twice
    # as fast over [0.5, 1.25]
    assert rates.rate_w1 == pytest.approx(2.0, rel=0.1)
    assert rates.rate_w2 == pytest.approx(2.0, rel=0.15)
    assert rates.rate_rho == pytest.approx(4.0, rel=0.1)
    assert rates.window_w1 == (pytest.approx(1.0), pytest.approx(2.5))


def test_fit_decay_rate_validation():
    g = BoxGrid(32, 2.0)
    pair = sp_pair(g, 0.4)
    base = dict(rescaled_pair=pair, eps=0.1, center=(0.0, 0.0, 0.0),
                raw_mass=2.0)
    with pytest.raises(ValueError):
        fit_decay_rate(ProfileExtract(lambda1=None, lambda2=None, **base))
    with pytest.raises(WindowError):
        fit_decay_rate(ProfileExtract(lambda1=1.0, lambda2=-1.0, **base))
    with pytest.raises(WindowError):  # box far smaller than 4 decay lengths
        fit_decay_rate(ProfileExtract(lambda1=-0.04, lambda2=-0.04, **base))


# ---------------------------------------------------------------------------
# energy constant and full report
# ---------------------------------------------------------------------------


def _small_extract(lam1=-16.0, lam2=-16.0):
    g = BoxGrid(48, 4.5)
    u1 = _exp_field(g, 2.0)
    u2 = _exp_field(g, 2.0, odd_axis=0)
    pair = loewdin(u1, u2)
    return ProfileExtract(
        rescaled_pair=pair,
        lambda1=lam1, lambda2=lam2,
        eps=0.1, center=(0.0, 0.0, 0.0), raw_mass=2.0,
    )


def test_energy_constant_lhs_recovers_planted_constant():
    recs = synthetic_records(c_E=1.3)
    out = energy_constant_check(recs, _small_extract(), HARMONIC,
                                xbar=(0.0, 0.0, 0.0))
    # records follow E = 1.3 * (a_hat - a)^{1/2} exactly
    assert out["lhs_fit_constant"] == pytest.approx(1.3, rel=1e-9)
    assert out["theta"] == pytest.approx(0.5)
    assert out["a_hat"] == pytest.approx(9.5, rel=1e-12)
    # rhs is an independent quadrature on the profile: finite and positive
    assert out["rhs_profile_constant"] > 0
    pair = _small_extract().rescaled_pair
    T = kinetic_energy(pair.u1) + kinetic_energy(pair.u2)
    g = pair.grid
    rho = ScalarField(g, pair.u1.values**2 + pair.u2.values**2)
    P = integrate(ScalarField(g, np.cbrt(rho.values)**5))
    assert out["kinetic_identity"]["profile_quotient"] == pytest.approx(
        T / P, rel=1e-12)


def test_build_report_structure_and_planted_laws(tmp_path):
    recs = synthetic_records(a_hat=9.5, p=2.0, lam1=-16.0, lam2=-9.0)
    extracts = [_small_extract(), _small_extract(), _small_extract()]
    decay = _small_extract(lam1=-16.0, lam2=-16.0)
    rep = build_report(recs, HARMONIC, 9.5, extracts, decay_extract=decay,
                       metadata={"seed": 0})
    by_q = {f["quantity"]: f for f in rep["fits"]}
    assert by_q["E"]["exponent"] == pytest.approx(0.5, abs=1e-9)
    assert by_q["E"]["expected_exponent"] == pytest.approx(0.5)
    assert by_q["E"]["r_squared"] > 1.0 - 1e-12
    assert by_q["P"]["exponent"] == pytest.approx(-0.5, abs=1e-9)
    assert by_q["P"]["expected_exponent"] == pytest.approx(-0.5)
    assert rep["multipliers"]["lambda1"] == pytest.approx(-16.0, rel=1e-9)
    assert rep["concentration"]["verdict"] == "ok"
    assert rep["profile"]["max_mass_error"] == pytest.approx(0.0, abs=1e-12)
    # identical consecutive extracts: distances all zero, trend test false
    assert rep["profile"]["consecutive_density_distances"] == [0.0, 0.0]
    dec = rep["decay"]
    # planted rates 2.0 (orbitals) and 4.0 (density); bounds from the
    # record multipliers: sqrt(9) = 3 for rho, 2 and 1.5 for the orbitals
    assert dec["bound_rho"] == pytest.approx(3.0)
    assert dec["bound_w1"] == pytest.approx(2.0)
    assert dec["bound_w2"] == pytest.approx(1.5)
    assert dec["ok_rho"] and dec["ok_w1"] and dec["ok_w2"]
    assert rep["run"] == {"seed": 0}

    # the density is read off the pair, not stored beside it
    u1, u2 = extracts[0].rescaled_pair
    assert np.array_equal(extracts[0].rescaled_density.values,
                          u1.values**2 + u2.values**2)

    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_json(rep, p1)
    rep2 = build_report(recs, HARMONIC, 9.5, extracts, decay_extract=decay,
                        metadata={"seed": 0})
    write_json(rep2, p2)
    assert p1.read_bytes() == p2.read_bytes()  # bitwise reproducible
    assert json.loads(p1.read_text())["a_hat"] == 9.5


def test_build_report_records_a_skipped_decay_fit():
    # positive scaled multipliers leave no decay window: the report keeps
    # every other verdict and says why the decay fit was skipped
    recs = synthetic_records(a_hat=9.5, p=2.0)
    rep = build_report(recs, HARMONIC, 9.5, [_small_extract()],
                       decay_extract=_small_extract(lam1=2.4, lam2=8.3))
    assert rep["decay"] == {
        "skipped": "scaled multipliers must be negative for decay fits"}
    assert rep["concentration"]["verdict"] == "ok"
    assert "profile" in rep and "energy_constant" in rep


def test_write_plot_tables(tmp_path):
    recs = synthetic_records(n=5)
    paths = write_plot_tables(recs, 9.5, tmp_path, decay_extract=_small_extract())
    names = {p.split("/")[-1] for p in map(str, paths)}
    assert names == {"loglog_E.csv", "loglog_P.csv", "radial_profile.csv"}
    lines = (tmp_path / "loglog_E.csv").read_text().splitlines()
    assert lines[0] == "a_hat_minus_a,E"
    gap, E = lines[1].split(",")
    assert float(gap) == pytest.approx(9.5 - recs[0].a, rel=1e-15)
    assert float(E) == recs[0].E
    prof = (tmp_path / "radial_profile.csv").read_text().splitlines()
    assert prof[0] == "r,rho_shell_mean"
    assert len(prof) > 10
