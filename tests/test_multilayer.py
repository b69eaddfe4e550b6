import math

import numpy as np
import pytest

from rydshe import (DomainError, Layer, LayerStack, PropagationError,
                    RydsheError, SearchError, SingularityError, medium_index,
                    multilayer, stack_fresnel)
from rydshe.multilayer import refraction_cosine
from rydshe.oracle import _airy_two_interface, brewster_angle
from rydshe import (susceptibility, canonical_atom, canonical_drive,
                    RunConfig)

TWO_PI = 2.0 * math.pi
K0 = TWO_PI / 0.78
GLASS = 1.49
BREWSTER_GLASS_VAC = math.atan(1.0 / GLASS)


# -------------------------------------------------------- refraction cosine

def test_refraction_cosine_normal_incidence():
    assert refraction_cosine(1.49, 0.0, 1.0 + 0j) == pytest.approx(1.0)


def test_refraction_cosine_total_internal_reflection():
    # glass -> vacuum beyond the 42.2 deg critical angle
    c = refraction_cosine(1.49, math.radians(45.0), 1.0 + 0j)
    ncos = 1.0 * c
    assert abs(ncos.real) < 1e-14
    assert ncos.imag > 0


def test_refraction_cosine_highprec_reference():
    import mpmath as mp
    mp.mp.dps = 40
    n_in, theta = mp.mpf("1.49"), mp.radians(mp.mpf("33.8"))
    n_j = mp.mpc(1, "1e-6")
    s = n_in * mp.sin(theta) / n_j
    ref = mp.sqrt(1 - s * s)
    if mp.im(n_j * ref) < 0:
        ref = -ref
    got = refraction_cosine(1.49, math.radians(33.8), 1 + 1e-6j)
    assert complex(got) == pytest.approx(complex(ref), rel=1e-12)


def test_refraction_cosine_branch_decaying():
    # absorbing layer: forward wave must decay, Im(n cos) >= 0
    for nj in (0.9 + 0.3j, 1.6 + 0.01j, 0.5 + 1e-9j):
        c = refraction_cosine(1.49, math.radians(70.0), nj)
        assert (nj * c).imag >= 0


# ------------------------------------------------- closed-form limit cases

def _impedances(pol, theta, *indices):
    """p_j of each medium at incidence theta in the first one."""
    cos = [refraction_cosine(indices[0], theta, n + 0j) for n in indices]
    return [complex(n / c if pol == "p" else n * c)
            for n, c in zip(indices, cos)]


@pytest.mark.parametrize("pol", ["p", "s"])
def test_zero_thickness_is_the_bare_interface(pol):
    th = math.radians(20.0)
    p1, p3 = _impedances(pol, th, GLASS, 1.2)
    for layers in ((), (Layer(n=1.3 + 0.01j, d=0.0),)):
        stk = LayerStack(n_in=GLASS, layers=layers, n_out=1.2)
        r, t = stack_fresnel(stk, th, K0, pol)
        assert r == pytest.approx((p1 - p3) / (p1 + p3), rel=1e-15)
        assert t == pytest.approx(2 * p1 / (p1 + p3), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pol", ["p", "s"])
def test_bare_interface_at_grazing_entry_fails_by_name(pol):
    # at exactly 90 deg the entry wave grazes in the entry medium, which
    # is also the bare interface's slab: z1 = z2 = 0 give 0/0, refused
    # as a vanishing denominator with no numpy warning
    with pytest.raises(SingularityError, match="vanishing denominator"):
        stack_fresnel(LayerStack(GLASS, (), 1.2), math.pi / 2, K0, pol)


@pytest.mark.parametrize("pol", ["p", "s"])
def test_quarter_wave_film_at_normal_incidence(pol):
    # delta = pi/2, and p_j = n_j for both polarizations at theta = 0
    n1, n2, n3 = GLASS, 2.1, 1.2
    stk = LayerStack(n_in=n1, layers=(Layer(n=n2 + 0j, d=0.78 / (4 * n2)),),
                     n_out=n3)
    r, _ = stack_fresnel(stk, 0.0, K0, pol)
    assert r == pytest.approx((n1 * n3 - n2**2) / (n1 * n3 + n2**2),
                              abs=1e-15)


@pytest.mark.parametrize("pol", ["p", "s"])
def test_opaque_film_reflects_as_its_front_interface(pol):
    # Im delta ~ 1600 is past the clamp; unclamped, cos and sin of delta
    # overflow and r is nan
    th, n2, d = math.radians(30.0), 1.5 + 2j, 100.0
    assert (K0 * n2 * d * refraction_cosine(GLASS, th, n2)).imag > 710
    stk = LayerStack(n_in=GLASS, layers=(Layer(n=n2, d=d),), n_out=1.2)
    r, _ = stack_fresnel(stk, th, K0, pol)
    p1, p2 = _impedances(pol, th, GLASS, n2)
    assert r == pytest.approx((p1 - p2) / (p1 + p2), rel=1e-14)


# ------------------------------------------------------------ stack fresnel

def test_trivial_stack_no_contrast():
    stk = LayerStack(n_in=1.49, layers=(Layer(n=1.49 + 0j, d=0.0),), n_out=1.49)
    for pol in ("p", "s"):
        r, t = stack_fresnel(stk, math.radians(30.0), K0, pol)
        assert r == 0
        assert abs(t) == pytest.approx(1.0, rel=1e-14)


def test_brewster_zero_of_vacuum_interior():
    # at arctan(1/n_glass) both glass|vac interfaces are simultaneously
    # reflectionless for p polarization, so the full stack r_p vanishes
    stk = RunConfig().layer_stack(chi=0.0)
    r, _ = stack_fresnel(stk, BREWSTER_GLASS_VAC, K0, "p")
    assert abs(r) < 1e-6


def test_airy_equivalence_random_stacks(rng):
    worst = 0.0
    for _ in range(100):
        stk = LayerStack(n_in=rng.uniform(1.2, 1.8),
                         layers=(Layer(n=rng.uniform(0.8, 2.0)
                                       + 1j * rng.uniform(0, 0.05),
                                       d=rng.uniform(0.5, 30.0)),),
                         n_out=rng.uniform(1.2, 1.8))
        th = rng.uniform(math.radians(5), math.radians(80))
        for pol in ("p", "s"):
            r, _ = stack_fresnel(stk, th, K0, pol)
            worst = max(worst, abs(r - _airy_two_interface(stk, th, K0, pol)))
    assert worst < 1e-12


def test_energy_conservation_real_stacks(rng):
    worst = 0.0
    for _ in range(100):
        stk = LayerStack(n_in=rng.uniform(1.0, 2.0),
                         layers=(Layer(n=rng.uniform(1.0, 2.5) + 0j,
                                       d=rng.uniform(0.1, 5.0)),),
                         n_out=rng.uniform(1.0, 2.0))
        th = rng.uniform(math.radians(5), math.radians(60))
        n_min = min(stk.layers[0].n.real, stk.n_out)
        if stk.n_in * math.sin(th) >= 0.98 * n_min:
            continue
        cos_out = math.sqrt(1 - (stk.n_in * math.sin(th) / stk.n_out) ** 2)
        for pol in ("p", "s"):
            r, t = stack_fresnel(stk, th, K0, pol)
            if pol == "p":
                p1, p3 = stk.n_in / math.cos(th), stk.n_out / cos_out
            else:
                p1, p3 = stk.n_in * math.cos(th), stk.n_out * cos_out
            worst = max(worst, abs(abs(r) ** 2 + (p3 / p1) * abs(t) ** 2 - 1))
    assert worst < 1e-10


def test_normal_incidence_polarization_degeneracy():
    stk = LayerStack(n_in=1.3, layers=(Layer(n=1.7 + 0.002j, d=2.5),),
                     n_out=1.1)
    rp, _ = stack_fresnel(stk, 0.0, K0, "p")
    rs, _ = stack_fresnel(stk, 0.0, K0, "s")
    assert abs(rp) == pytest.approx(abs(rs), abs=1e-12)


def test_stack_fresnel_vectorized_matches_scalar():
    stk = RunConfig().layer_stack(chi=1e-3 + 2e-4j)
    thetas = np.radians(np.linspace(25, 45, 7))
    rp_vec, tp_vec, _ = stack_fresnel(stk, thetas, K0, "p")
    for i, th in enumerate(thetas):
        rp, tp = stack_fresnel(stk, float(th), K0, "p")
        assert rp == rp_vec[i] and tp == tp_vec[i]       # bit for bit


# ---------------------------------------------------------------- brewster

def test_brewster_single_interface_identity():
    stk = LayerStack(n_in=1.49, layers=(), n_out=1.0)
    th = brewster_angle(stk, K0)
    assert math.degrees(th) == pytest.approx(math.degrees(BREWSTER_GLASS_VAC),
                                             abs=1e-3)


def test_brewster_small_absorption_perturbation():
    lossless = LayerStack(n_in=1.49, layers=(), n_out=1.0)
    th0 = brewster_angle(lossless, K0)
    lossy = LayerStack(n_in=1.49, layers=(Layer(n=1 + 1e-6j, d=50.0),),
                       n_out=1.0)
    th1 = brewster_angle(lossy, K0)
    rmin, _ = stack_fresnel(lossy, th1, K0, "p")
    assert abs(rmin) > 0
    assert abs(th1 - th0) < 1e-3


def test_brewster_canonical_stack_at_resonance():
    atom, drive = canonical_atom(), canonical_drive(0.0)
    chi = susceptibility(drive, atom).total
    th = brewster_angle(RunConfig().layer_stack(chi), K0)
    assert math.degrees(th) == pytest.approx(33.8, abs=0.15)


def test_brewster_no_interior_minimum():
    # below the Brewster angle |r_p| of a bare interface falls
    # monotonically, so a scan window ending there has its minimum on the
    # edge and the search must report failure
    stk = LayerStack(n_in=1.49, layers=(), n_out=1.0)
    with pytest.raises(SearchError):
        brewster_angle(stk, K0, theta_min=math.radians(5.0),
                       theta_max=math.radians(20.0))


# -------------------------------------------------------------- validation

def test_layer_validation():
    def slab(n):
        return LayerStack(n_in=GLASS, layers=(Layer(n=n, d=1.0),),
                          n_out=GLASS)
    # the conjugated-chi signature is rejected where the index is used;
    # weak truncation-induced gain is admitted
    with pytest.raises(DomainError,
                       match=r"strongly active \(Im n << 0\)"):
        stack_fresnel(slab(1.0 - 0.2j), 0.5, K0, "p")
    stack_fresnel(slab(1.0 - 1e-3j), 0.5, K0, "p")
    with pytest.raises(DomainError, match="polarization must be 'p' or 's'"):
        stack_fresnel(slab(1.0 + 0j), 0.5, K0, "x")
    with pytest.raises(DomainError):
        Layer(n=1.0 + 0j, d=-1.0)
    with pytest.raises(DomainError):
        LayerStack(n_in=0.0, layers=(), n_out=1.0)


def test_stack_holds_at_most_one_layer():
    film = Layer(n=1.3 + 0j, d=1.0)
    with pytest.raises(DomainError, match="at most one layer"):
        LayerStack(n_in=GLASS, layers=(film, film), n_out=GLASS)


def test_grazing_impedance_singularity():
    # exactly at the critical angle the s impedance n cos(theta_j) vanishes
    theta_c = math.asin(1.0 / 1.49)
    stk = LayerStack(n_in=1.49, layers=(Layer(n=1.0 + 0j, d=5.0),),
                     n_out=1.49)
    with pytest.raises(SingularityError,
                       match="vanishing layer impedance"):
        stack_fresnel(stk, theta_c, K0, "s")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pol", ["p", "s"])
def test_zero_slab_index_is_refused_by_name(pol):
    # a zero index has no refraction cosine: refused as the first check,
    # before anything divides by it, with no numpy warning; an array call
    # reports it per element and keeps the other elements' values
    zero = LayerStack(GLASS, (Layer(0j, 100.0),), GLASS)
    with pytest.raises(DomainError, match="^layer index is zero$"):
        stack_fresnel(zero, 0.5, K0, pol)
    n = np.array([0j, 1.2 + 0.01j, 0j])
    r, t, errors = stack_fresnel(LayerStack(GLASS, (Layer(n, 100.0),), GLASS),
                                 0.5, K0, pol)
    assert {i: str(e) for i, e in errors.items()} == dict.fromkeys(
        (0, 2), "layer index is zero")
    assert all(type(e) is DomainError for e in errors.values())
    assert np.isnan([r[::2], t[::2]]).all()
    one = LayerStack(GLASS, (Layer(n[1], 100.0),), GLASS)
    assert (r[1], t[1]) == stack_fresnel(one, 0.5, K0, pol)


@pytest.mark.parametrize("pol", ["p", "s"])
def test_critical_angle_faults_both_polarizations(pol):
    # at the slab's critical angle cos(theta_2) is exactly 0: the s
    # impedance n cos vanishes and the p impedance n / cos diverges, and
    # both are faulted before anything divides by that zero
    stk = LayerStack(1.5, (Layer(1 + 0j, 10.0),), 1.49)
    theta_c = np.radians(41.810314895778596)
    assert refraction_cosine(1.5, theta_c, 1 + 0j) == 0
    with np.errstate(all="raise"):
        r, t, errors = stack_fresnel(stk, [theta_c], K0, pol)
        assert np.isnan([r, t]).all()
        with pytest.raises(SingularityError,
                           match="vanishing layer impedance") as exc:
            stack_fresnel(stk, theta_c, K0, pol)
    assert len(errors) == 1
    assert (type(errors[0]), str(errors[0])) == (type(exc.value),
                                                 str(exc.value))


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_raising_call_gives_the_earliest_check_any_element_fails(order,
                                                                 monkeypatch):
    # an active index and a grazing slab wave in one array call, in either
    # order: each element reports the error a scalar call on it raises
    n = np.array([medium_index(-0.5j), 1 + 0j])[list(order)]
    theta = np.radians([30.0, 41.810314895778596])[list(order)]
    stk = LayerStack(1.5, (Layer(n, 10.0),), 1.49)
    _, _, errors = stack_fresnel(stk, theta, K0, "p")
    kinds = [type(errors[i]) for i in order]
    assert kinds == [DomainError, SingularityError]
    assert str(errors[order[1]]) == ("vanishing layer impedance "
                                     "(grazing pathology)")
    for i in range(2):
        with pytest.raises(RydsheError) as exc:
            stack_fresnel(LayerStack(1.5, (Layer(n[i], 10.0),), 1.49),
                          theta[i], K0, "p")
        assert (type(exc.value), str(exc.value)) == (type(errors[i]),
                                                     str(errors[i]))
    # with every Im n < 1 taken as active, the grazing element fails the
    # active-index check as well: the earlier check's error is reported,
    # by the array call and by a scalar call alike
    monkeypatch.setattr(multilayer, "_PASSIVITY_TOL", -1.0)
    _, _, errors = stack_fresnel(stk, theta, K0, "p")
    assert {i: type(e) for i, e in errors.items()} == dict.fromkeys(
        range(2), DomainError)
    with pytest.raises(DomainError, match=r"strongly active \(Im n << 0\)"):
        stack_fresnel(LayerStack(1.5, (Layer(n[order[1]], 10.0),), 1.49),
                      theta[order[1]], K0, "p")


def test_exit_critical_angle_is_the_infinite_impedance_limit():
    # where the exit wave grazes, p3 = n3 / cos(theta_3) is infinite; the
    # impedance formula divided through by p3 gives the finite limit
    #   r = [-cos(delta) - i sin(delta) p1 / p2]
    #       / [cos(delta) - i sin(delta) p1 / p2],   t = 0
    n2 = medium_index(0.02 + 0.01j)
    stk = LayerStack(1.5, (Layer(n2, 10.0),), 1.49)
    theta = np.radians(83.3803722047161)
    assert refraction_cosine(1.5, theta, 1.49 + 0j) == 0
    with np.errstate(all="raise"):
        r, t = stack_fresnel(stk, theta, K0, "p")
    cos_in = refraction_cosine(1.5, theta, 1.5 + 0j)
    cos_2 = refraction_cosine(1.5, theta, n2)
    ratio = (1.5 / cos_in) / (n2 / cos_2)
    delta = K0 * n2 * 10.0 * cos_2
    cd, sd = np.cos(delta), np.sin(delta)
    want = (-cd - 1j * sd * ratio) / (cd - 1j * sd * ratio)
    assert abs(r - want) < 1e-13 and t == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_in", [1e160, 1e300])
@pytest.mark.parametrize("pol", ["p", "s"])
def test_entry_index_past_the_float_range_fails_by_name(n_in, pol):
    # n_in sin(theta) squared overflows: a non-finite r or t is the last
    # check, reported per element by an array call and raised by a
    # scalar one, with no numpy warning
    stk = LayerStack(n_in, (Layer(medium_index(1e-3 + 2e-4j), 100.0),), 1.49)
    theta = np.radians([20.0, 33.87, 50.0])
    r, t, errors = stack_fresnel(stk, theta, K0, pol)
    assert np.isnan([r, t]).all()
    assert {i: str(e) for i, e in errors.items()} == dict.fromkeys(
        range(3), "non-finite r or t")
    with pytest.raises(PropagationError, match="^non-finite r or t$"):
        stack_fresnel(stk, theta[1], K0, pol)
