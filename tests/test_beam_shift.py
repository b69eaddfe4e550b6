import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rydshe import (BeamSpec, DomainError, Layer, LayerStack,
                    PropagationError, RydsheError, WindowError,
                    analytic_gaussian_shift, intensity_maps_2d,
                    intensity_profiles, medium_index, shifts_from_coefficients,
                    canonical_atom, canonical_drive,
                    RunConfig, stack_fresnel, susceptibility)
from rydshe.oracle import (centroid, incident_spectrum, reflected_field,
                           reflected_spin_spectra, spectral_shifts)

TWO_PI = 2.0 * math.pi
GRID_N = 2048      # the oracle's default spectral grid


@pytest.fixture(scope="module")
def beam():
    return BeamSpec(w0=50.0, theta_i=math.radians(33.87), lambda_p=0.78)


# ---------------------------------------------------------------- validation

def test_beamspec_validation():
    with pytest.raises(DomainError):
        BeamSpec(w0=-1.0, theta_i=0.6, lambda_p=0.78)
    beam = BeamSpec(w0=50.0, theta_i=0.6, lambda_p=0.78)
    with pytest.raises(DomainError):
        incident_spectrum(beam, grid_n=1000)
    with pytest.raises(DomainError):
        incident_spectrum(beam, grid_span=4.0)
    with pytest.raises(DomainError):
        BeamSpec(w0=50.0, theta_i=math.radians(2.0), lambda_p=0.78)
    with pytest.raises(DomainError):
        BeamSpec(w0=50.0, theta_i=math.radians(89.0), lambda_p=0.78)


# ------------------------------------------------------------------ spectrum

def test_incident_spectrum_peak_and_width(beam):
    ky, amp = incident_spectrum(beam)
    i0 = GRID_N // 2
    assert len(ky) == GRID_N + 1
    assert ky[i0] == 0.0
    assert amp.max() == amp[i0]
    # Gaussian width identity amp(2/w0) = e^-1 * peak, checked on the grid
    i = np.argmin(np.abs(ky - 2.0 / beam.w0))
    assert amp[i] / amp.max() == pytest.approx(
        math.exp(-(ky[i] * beam.w0) ** 2 / 4), rel=1e-12)
    assert math.exp(-(ky[i] * beam.w0) ** 2 / 4) == pytest.approx(
        math.exp(-1.0), rel=5e-3)


def test_incident_spectrum_power_is_analytic(beam):
    # int |A|^2 dk for A = w0 sqrt(pi) exp(-k^2 w0^2 / 4) is pi w0 sqrt(2 pi)
    ky, amp = incident_spectrum(beam)
    num = np.trapezoid(amp**2, ky)
    assert num == pytest.approx(math.pi * beam.w0 * math.sqrt(2 * math.pi),
                                rel=1e-10)


def test_spin_spectra_cancellation_and_axis(beam):
    rp = 0.1 + 0.02j
    ky, ep, em = reflected_spin_spectra(beam, rp, -rp)   # rs = -rp
    assert np.allclose(ep, em)                           # cross term vanishes
    i0 = GRID_N // 2
    assert ep[i0] == pytest.approx(em[i0])               # no on-axis splitting
    # swapping the spin labels is the same as reversing ky
    _, ep2, em2 = reflected_spin_spectra(beam, rp, 0.3 + 0j)
    assert np.allclose(ep2, em2[::-1], rtol=1e-12, atol=1e-15)


# --------------------------------------------------------------------- field

def test_reflected_field_unshifted_gaussian(beam):
    ky, ep, em = reflected_spin_spectra(beam, 1.0, -1.0)  # no mixing
    f = reflected_field(beam, ky, ep, em)
    assert abs(centroid(f.y_samples, f.e_plus)) < 1e-9
    assert abs(centroid(f.y_samples, f.e_minus)) < 1e-9


def test_reflected_field_parseval(beam):
    rp, rs = 0.12 + 0.05j, -0.4 + 0.02j
    ky, ep, em = reflected_spin_spectra(beam, rp, rs)
    f = reflected_field(beam, ky, ep, em)
    dy = f.y_samples[1] - f.y_samples[0]
    dk = ky[1] - ky[0]
    p_y = np.sum(np.abs(f.e_plus) ** 2) * dy
    p_k = np.sum(np.abs(ep) ** 2) * dk / (2 * math.pi)
    assert p_y == pytest.approx(p_k, rel=1e-10)


def test_reflected_field_translation_covariance(beam):
    # displacing the input Gaussian by +3 um shifts the centroid by +3 um
    ky, amp = incident_spectrum(beam)
    shifted = amp * np.exp(-1j * ky * 3.0)
    f = reflected_field(beam, ky, shifted, shifted)
    assert centroid(f.y_samples, f.e_plus) == pytest.approx(3.0, abs=1e-9)


def test_reflected_field_window_guard(beam):
    ky, ep, em = reflected_spin_spectra(beam, 0.3, 0.1)
    with pytest.raises(WindowError):
        reflected_field(beam, ky, ep, em,
                        y=np.linspace(-beam.w0, beam.w0, 257))


def test_reflected_field_window_guard_per_column(beam):
    # a field pushed to the window edge trips the guard inside a batch
    ky, amp = incident_spectrum(beam)
    edge = amp * np.exp(-1j * ky * 7.5 * beam.w0)
    reflected_field(beam, ky, amp, amp)
    with pytest.raises(WindowError, match="sigma-"):
        reflected_field(beam, ky, np.stack([amp, amp]), np.stack([amp, edge]))


def test_spectral_shifts_batch_matches_pairs(beam, rng):
    rp = rng.normal(size=5) * 0.2 + 1j * rng.normal(size=5) * 0.2
    rs = rng.normal(size=5) * 0.4 + 1j * rng.normal(size=5) * 0.4
    batch = spectral_shifts(beam, rp, rs)
    for i in range(5):
        one = spectral_shifts(beam, rp[i], rs[i])
        for field in ("delta_plus", "delta_minus", "power_plus", "power_minus"):
            want = getattr(one, field)
            assert getattr(batch, field)[i] == pytest.approx(want, rel=1e-12,
                                                             abs=1e-12)


def test_centroid_zero_power(beam):
    with pytest.raises(DomainError):
        centroid(np.linspace(-1, 1, 11), np.zeros(11, dtype=complex))


# ------------------------------------------------ closed form against oracle

def test_analytic_shift_null_cases(beam):
    dp, dm = analytic_gaussian_shift(0.3 + 0.1j, -(0.3 + 0.1j),
                                     beam.theta_i, beam)   # a = 0
    assert dp == 0 and dm == 0
    dp, dm = analytic_gaussian_shift(0.0, 0.5, beam.theta_i, beam)  # rp = 0
    assert dp == 0 and dm == 0


def test_shift_typed_errors(beam):
    # a non-finite coefficient names itself instead of giving nan shifts
    for rp, rs in ((math.nan, 0.3), (0.01, math.inf),
                   (complex(0.01, math.nan), 0.3)):
        with pytest.raises(PropagationError):
            shifts_from_coefficients(beam, rp, rs)
    with pytest.raises(DomainError):           # rp = 0 and rs = -rp
        shifts_from_coefficients(beam, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(thetas=st.lists(st.floats(5.0, 85.0), min_size=1, max_size=8),
       chi_re=st.lists(st.floats(-0.5, 3.0), min_size=8, max_size=8),
       chi_im=st.lists(st.floats(-0.3, 0.5), min_size=8, max_size=8),
       d=st.floats(0.0, 200.0),
       n_io=st.tuples(st.floats(1.0, 1.6), st.floats(1.0, 1.6)))
# the strongly active index chi = -0.3j (Im n = -0.148)
@example(thetas=[30.0, 60.0], chi_re=[0.2] + [0.0] * 7,
         chi_im=[0.01, -0.3] + [0.0] * 6, d=10.0, n_io=(1.49, 1.49))
# the critical angle of 1.5 | n = 1, where the s impedance is exactly 0
@example(thetas=[41.810314895778596, 30.0], chi_re=[0.0] * 8,
         chi_im=[0.0] * 8, d=10.0, n_io=(1.5, 1.49))
# the exit medium's critical angle, where the p impedance n3 / cos is
# infinite and p is still finite
@example(thetas=[83.3803722047161, 30.0], chi_re=[0.0] * 8,
         chi_im=[0.0] * 8, d=10.0, n_io=(1.5, 1.49))
def test_array_optics_and_shifts_match_scalar_calls(thetas, chi_re, chi_im,
                                                    d, n_io):
    # one index per angle: the array stack_fresnel and shift calls equal
    # scalar calls at each angle bit for bit, failures included
    theta = np.radians(thetas)
    chi = (np.array(chi_re) + 1j * np.array(chi_im))[:len(thetas)]
    n1 = medium_index(chi)
    k0 = TWO_PI / 0.78
    stack = LayerStack(n_in=n_io[0], layers=(Layer(n=n1, d=d),),
                       n_out=n_io[1])
    arrays = {pol: stack_fresnel(stack, theta, k0, pol) for pol in "ps"}
    shifts = shifts_from_coefficients(
        BeamSpec(w0=50.0, theta_i=theta, lambda_p=0.78, n_in=n_io[0]),
        arrays["p"][0], arrays["s"][0])
    for i, th in enumerate(theta.tolist()):
        assert n1[i] == medium_index(complex(chi[i]))
        one = LayerStack(n_in=n_io[0], layers=(Layer(n=n1[i], d=d),),
                         n_out=n_io[1])
        want = {}
        for pol, (r, t, errors) in arrays.items():
            try:
                want[pol] = stack_fresnel(one, th, k0, pol)
            except RydsheError as exc:
                got = errors[i]
                assert (type(got), str(got)) == (type(exc), str(exc))
                assert np.isnan([r[i], t[i]]).all()
                continue
            assert i not in errors
            assert r[i] == want[pol][0] and t[i] == want[pol][1]
        if len(want) < 2:
            continue
        beam = BeamSpec(w0=50.0, theta_i=th, lambda_p=0.78, n_in=n_io[0])
        try:
            one = shifts_from_coefficients(beam, want["p"][0], want["s"][0])
        except RydsheError as exc:
            got = shifts.errors[i]
            assert (type(got), str(got)) == (type(exc), str(exc))
            continue
        assert i not in shifts.errors
        for field in ("delta_plus", "delta_minus", "power_plus",
                      "power_minus"):
            assert getattr(shifts, field)[i] == getattr(one, field)


def test_array_shift_errors_per_row(beam):
    # a non-finite and a zero-power row fail alone, with the scalar texts
    rp = np.array([0.01 + 0.02j, complex(math.nan, 0.0), 0.0, 0.03j])
    rs = np.array([0.3, 0.2 - 0.1j, 0.0, 0.4 + 0.0j])
    s = shifts_from_coefficients(beam, rp, rs)
    for i in range(4):
        try:
            want = shifts_from_coefficients(beam, complex(rp[i]),
                                            complex(rs[i]))
        except RydsheError as exc:
            assert (type(s.errors[i]), str(s.errors[i])) == (type(exc),
                                                             str(exc))
            assert math.isnan(s.delta_plus[i]) and math.isnan(s.power_plus[i])
            continue
        assert i not in s.errors
        assert s.delta_plus[i] == want.delta_plus
        assert s.power_minus[i] == want.power_minus
    assert {i: type(e) for i, e in s.errors.items()} == {
        1: PropagationError, 2: DomainError}
    assert str(s.errors[1]) == ("non-finite Fresnel coefficients "
                                "rp=(nan+0j), rs=(0.2-0.1j)")
    # at a w0 whose square underflows every power is non-finite, so the
    # nan row fails the coefficient check and the power check: the
    # earlier one's error is reported, as a scalar call raises it
    narrow = BeamSpec(w0=1e-300, theta_i=beam.theta_i, lambda_p=0.78)
    s = shifts_from_coefficients(narrow, rp, rs)
    assert {i: type(e) for i, e in s.errors.items()} == dict(enumerate(
        [DomainError, PropagationError, DomainError, DomainError]))
    for i in range(4):
        with pytest.raises(RydsheError) as exc:
            shifts_from_coefficients(narrow, complex(rp[i]), complex(rs[i]))
        assert (type(exc.value), str(exc.value)) == (type(s.errors[i]),
                                                     str(s.errors[i]))


@pytest.mark.parametrize("w0", [1e300, 1e-300])
def test_beam_width_past_the_float_range(w0):
    # w0^2 overflows (|a|^2 / w0^2 -> 0: a finite shift) or underflows
    # (a non-finite beam power, named as such): no OverflowError, no warning
    beam = BeamSpec(w0=w0, theta_i=math.radians(33.87), lambda_p=0.78)
    rp, rs = np.array([0.01 + 0.003j]), np.array([0.49 + 0.12j])
    s = shifts_from_coefficients(beam, rp, rs)
    if w0 > 1:
        assert s.errors == {} and np.isfinite(s.delta_plus).all()
        return
    assert type(s.errors[0]) is DomainError
    assert str(s.errors[0]) == ("beam power |rp|^2 + |a|^2 / w0^2 is not "
                                "finite at w0 = 1e-300 um")


def test_pipeline_matches_analytic(beam, rng):
    # the closed-form pipeline against the spectral-synthesis oracle
    worst = 0.0
    for _ in range(50):
        rp = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
        rs = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
        if abs(rp) <= 0.05:
            continue
        s = shifts_from_coefficients(beam, rp, rs)
        o = spectral_shifts(beam, rp, rs)
        scale = max(abs(o.delta_plus), 1e-3 * beam.w0)
        worst = max(worst, abs(s.delta_plus - o.delta_plus) / scale,
                    abs(s.delta_minus - o.delta_minus) / scale)
    assert worst < 0.02


def test_oracle_agreement_brewster_region(rng):
    # |rp| down to 1e-5, where the shifts approach w0/2, with the power
    # normalization checked as well
    for theta_deg in (20.0, 33.87, 60.0):
        for n_in in (1.0, 1.49):
            beam = BeamSpec(w0=50.0, theta_i=math.radians(theta_deg),
                            lambda_p=0.78, n_in=n_in)
            for log_rp in rng.uniform(-5.0, math.log10(0.5), 4):
                rp = 10**log_rp * np.exp(1j * rng.uniform(0, 2 * math.pi))
                rs = rng.normal() * 0.4 + 1j * rng.normal() * 0.4
                s = shifts_from_coefficients(beam, rp, rs)
                o = spectral_shifts(beam, rp, rs)
                scale = max(abs(o.delta_plus), beam.lambda_p)
                assert abs(s.delta_plus - o.delta_plus) <= 1e-9 * scale
                assert abs(s.delta_minus - o.delta_minus) <= 1e-9 * scale
                assert s.power_plus == pytest.approx(o.power_plus, rel=1e-9)
                assert s.power_minus == pytest.approx(o.power_minus, rel=1e-9)


def test_mirror_antisymmetry(beam, rng):
    for _ in range(20):
        rp = rng.normal() * 0.2 + 1j * rng.normal() * 0.2
        rs = rng.normal() * 0.5 + 1j * rng.normal() * 0.5
        for s in (shifts_from_coefficients(beam, rp, rs),
                  spectral_shifts(beam, rp, rs)):
            assert abs(s.delta_plus + s.delta_minus) < 1e-9
            assert s.power_plus == pytest.approx(s.power_minus, rel=1e-12)


def test_shift_bound_near_brewster(beam):
    # |delta| <= w0/2 up to numerical headroom, scanned across the zero of rp
    for rp_mag in np.logspace(-5, -1, 21):
        s = shifts_from_coefficients(beam, rp_mag, 0.4)
        assert abs(s.delta_plus) <= 0.525 * beam.w0


def test_grid_independence(beam):
    rp, rs = 3e-3 + 1e-3j, 0.38 - 0.01j   # near-Brewster, large shift
    s1 = spectral_shifts(beam, rp, rs)
    s2 = spectral_shifts(beam, rp, rs, grid_n=2 * GRID_N)
    assert abs(s2.delta_plus - s1.delta_plus) < 1e-3 * abs(s1.delta_plus)


def test_zero_mixing_null(beam):
    # forcing the cross term to zero (rs = -rp) nulls the shifts
    s = shifts_from_coefficients(beam, 0.25 + 0.1j, -(0.25 + 0.1j))
    assert abs(s.delta_plus) < 1e-9 and abs(s.delta_minus) < 1e-9


def test_shifts_far_from_brewster_subwavelength():
    # away from the Brewster region the shift stays at sub-wavelength level
    atom, drive = canonical_atom(), canonical_drive(0.0)
    chi = susceptibility(drive, atom).total
    beam20 = BeamSpec(w0=50.0, theta_i=math.radians(20.0), lambda_p=0.78,
                      n_in=1.49)
    stack = RunConfig().layer_stack(chi)
    rp, rs = (stack_fresnel(stack, beam20.theta_i, beam20.k0, pol)[0]
              for pol in "ps")
    s = shifts_from_coefficients(beam20, rp, rs)
    assert abs(s.delta_plus) < beam20.lambda_p
    assert s.delta_plus == pytest.approx(-s.delta_minus, abs=1e-9)


# ---------------------------------------------------------------- profiles

def test_intensity_profiles_normalized(beam):
    y, i_in, ip, im = intensity_profiles(beam, 0.01 + 0.002j, 0.4)
    assert i_in.max() == pytest.approx(1.0)
    assert ip.max() == pytest.approx(1.0)
    assert y[np.argmax(i_in)] == pytest.approx(0.0, abs=y[1] - y[0])
    # opposite spin profiles are mirror images
    assert np.allclose(ip, im[::-1], rtol=1e-9, atol=1e-12)


def test_intensity_profiles_match_oracle_fields(beam):
    # pointwise, the default grid_span = 8 leaves a ringing of ~1e-7 from
    # the spectrum cut at exp(-16); grid_span = 12 cuts at exp(-36)
    rp, rs = 0.01 + 0.002j, 0.4
    y, i_in, ip, im = intensity_profiles(beam, rp, rs)
    ky, ep_s, em_s = reflected_spin_spectra(beam, rp, rs, grid_span=12.0)
    f = reflected_field(beam, ky, ep_s, em_s)
    assert np.allclose(y, f.y_samples, rtol=0, atol=1e-12)
    for got, field in ((ip, f.e_plus), (im, f.e_minus)):
        want = np.abs(field) ** 2
        assert np.allclose(got, want / want.max(), rtol=0, atol=1e-9)


def test_intensity_maps_2d_separable(beam):
    rp, rs = 0.02 + 0.01j, 0.35 + 0j
    x, y, i_in, ip, im = intensity_maps_2d(beam, rp, rs)
    # the x = 0 cut reproduces the 1-D profile shape
    _, _, ip1d, im1d = intensity_profiles(beam, rp, rs, y=y)
    i0 = np.argmin(np.abs(x))
    cut = ip[i0, :] / ip[i0, :].max()
    assert np.allclose(cut, ip1d / ip1d.max(), atol=1e-9)
    assert i_in.shape == (len(x), len(y))


@pytest.mark.parametrize("w0", [1e300, 1e-300])
def test_profiles_past_the_float_range_name_w0(w0):
    # y^2 / w0^2 leaves the float range: a DomainError naming w0, not an
    # OverflowError from w0^2 or profiles of nan under warnings
    beam = BeamSpec(w0=w0, theta_i=math.radians(33.87), lambda_p=0.78)
    rp, rs = 0.01 + 0.002j, 0.4
    message = re.escape(f"intensity profile is not finite at w0 = {w0:g} um")
    with pytest.raises(DomainError, match=message):
        intensity_profiles(beam, rp, rs)
    with pytest.raises(DomainError, match=message):
        intensity_maps_2d(beam, rp, rs)
    if w0 > 1:
        # a y grid near 0 keeps the y profile finite, not the x one
        y = np.linspace(-1.0, 1.0, 5)
        assert np.isfinite(intensity_profiles(beam, rp, rs, y)).all()
        with pytest.raises(DomainError, match=message):
            intensity_maps_2d(beam, rp, rs, y=y)


def test_mutated_cross_term_sign_flips_orientation(beam):
    # a sign flip of the spin-mixing term keeps mirror antisymmetry but
    # inverts the shift direction: the orientation check is what detects it
    rp, rs = 4e-3 + 1e-3j, 0.4 + 0.02j
    ky, amp = incident_spectrum(beam)
    a = (rp + rs) / math.tan(beam.theta_i) / beam.k_medium
    ep_bad = (rp - 1j * a * ky) * amp / math.sqrt(2)   # flipped
    em_bad = (rp + 1j * a * ky) * amp / math.sqrt(2)
    f = reflected_field(beam, ky, ep_bad, em_bad)
    d_bad = centroid(f.y_samples, f.e_plus)
    s_good = shifts_from_coefficients(beam, rp, rs)
    assert d_bad == pytest.approx(-s_good.delta_plus, rel=1e-6)
    assert abs(d_bad + centroid(f.y_samples, f.e_minus)) < 1e-9
