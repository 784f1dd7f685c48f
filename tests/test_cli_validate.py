"""``nfcrb validate`` output pinned in full, digits included.

The derivative errors and closed-form deviations it prints are rounding-level
differences, so any change to how the steering, covariances, derivative
stacks or information matrices are computed shows here, not only a change of
verdict.
"""

import json
import warnings
from unittest import mock

import numpy as np
import pytest

from nfcrb import fim_crb
from nfcrb.cli import main


def seeded_polar_doc(seed, m=5, n=2):
    """A polar scenario file of ``m`` sensors and ``n`` sources drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    sensors = [
        {"radius_m": round(float(r), 3), "azimuth_deg": round(float(a), 3)}
        for r, a in zip(rng.uniform(2.0, 50.0, m), rng.uniform(0.0, 360.0, m))
    ]
    sources = [
        {"range_m": round(float(r), 3), "bearing_deg": round(float(b), 3)}
        for r, b in zip(rng.uniform(100.0, 400.0, n), rng.uniform(0.0, 360.0, n))
    ]
    signals = [
        {"freq_hz": round(float(f), 1), "amplitude": [round(float(x), 3), round(float(y), 3)]}
        for f, x, y in zip(rng.uniform(1e5, 2e6, n), rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
    ]
    return {
        "name": f"seeded{seed}",
        "velocity_mps": 3e8,
        "signals": signals,
        "noise_variance": 0.75,
        "snapshots": 3,
        "geometry": {"polar": {"sources": sources, "sensors": sensors}},
    }


# seeded polar scenario files: (seed, sensors, sources); one source has a single covariance entry,
# five sources have P = 36 parameters
SEEDED = {"seeded7": (7, 5, 2), "seeded11": (11, 3, 1), "seeded5": (5, 8, 5)}

POWER = "PASS  per-element power bound: power_k <= max|amp|^2 * phase objective, all elements\n"

EXPECTED = {
    "scenario_a": (
        "PASS  steering derivatives (bearing): max rel err 3.540e-09 (tol 1e-06)\n"
        "PASS  steering derivatives (range): max rel err 2.610e-09 (tol 1e-06)\n"
        "PASS  array covariance derivatives: max rel err 1.584e-08 (tol 1e-05)\n"
        "PASS  closed-form information matrix (bearing/range/noise blocks): max rel deviation 1.021e-14 (tol 1e-08)\n"
        "INFO  covariance-entry block deviations: bearing-cov=5.703e-15, cov-cov=1.036e-15, "
        "cov-noise=9.719e-16, range-cov=7.370e-15\n" + POWER + "\nOK: 0 failing check(s) on scenario_a\n"
    ),
    "scenario_b": (
        "PASS  steering derivatives (bearing): max rel err 1.779e-10 (tol 1e-06)\n"
        "PASS  steering derivatives (range): max rel err 1.410e-10 (tol 1e-06)\n"
        "PASS  array covariance derivatives: max rel err 1.028e-09 (tol 1e-05)\n"
        "PASS  closed-form information matrix (bearing/range/noise blocks): max rel deviation 5.566e-15 (tol 1e-08)\n"
        "INFO  covariance-entry block deviations: bearing-cov=1.942e-14, cov-cov=8.313e-15, "
        "cov-noise=1.347e-14, range-cov=4.569e-15\n" + POWER + "\nOK: 0 failing check(s) on scenario_b\n"
    ),
    "seeded7": (
        "PASS  steering derivatives (bearing): max rel err 1.424e-09 (tol 1e-06)\n"
        "PASS  steering derivatives (range): max rel err 2.258e-10 (tol 1e-06)\n"
        "PASS  array covariance derivatives: max rel err 2.525e-09 (tol 1e-05)\n"
        "PASS  closed-form information matrix (bearing/range/noise blocks): max rel deviation 2.297e-14 (tol 1e-08)\n"
        "INFO  covariance-entry block deviations: bearing-cov=2.364e-14, cov-cov=1.728e-15, "
        "cov-noise=1.272e-15, range-cov=3.436e-15\n\nOK: 0 failing check(s) on seeded7\n"
    ),
    "seeded11": (
        "PASS  steering derivatives (bearing): max rel err 2.860e-10 (tol 1e-06)\n"
        "PASS  steering derivatives (range): max rel err 5.649e-11 (tol 1e-06)\n"
        "PASS  array covariance derivatives: max rel err 2.572e-09 (tol 1e-05)\n"
        "PASS  closed-form information matrix (bearing/range/noise blocks): max rel deviation 1.817e-13 (tol 1e-08)\n"
        "INFO  covariance-entry block deviations: bearing-cov=3.838e-11, cov-cov=2.910e-16, "
        "cov-noise=2.183e-16, range-cov=2.793e-12\n\nOK: 0 failing check(s) on seeded11\n"
    ),
    "seeded5": (
        "PASS  steering derivatives (bearing): max rel err 2.006e-09 (tol 1e-06)\n"
        "PASS  steering derivatives (range): max rel err 2.296e-10 (tol 1e-06)\n"
        "PASS  array covariance derivatives: max rel err 4.831e-09 (tol 1e-05)\n"
        "PASS  closed-form information matrix (bearing/range/noise blocks): max rel deviation 1.115e-14 (tol 1e-08)\n"
        "INFO  covariance-entry block deviations: bearing-cov=2.035e-14, cov-cov=4.287e-16, "
        "cov-noise=5.181e-16, range-cov=2.165e-14\n\nOK: 0 failing check(s) on seeded5\n"
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_validate_stdout_is_pinned(name, tmp_path, capsys):
    scenario = name
    if name in SEEDED:
        scenario = tmp_path / f"{name}.json"
        scenario.write_text(json.dumps(seeded_polar_doc(*SEEDED[name])))
    assert main(["validate", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out == EXPECTED[name]


@pytest.mark.parametrize("name", ["scenario_a", "scenario_b"])
def test_validate_factors_the_array_covariance_once(name, capsys):
    # the closed form reuses the singularity check and inverse of the generic matrix's trace form
    with (mock.patch.object(fim_crb, "_eigenvalues", wraps=fim_crb._eigenvalues) as checks,
          mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inverses):
        assert main(["validate", "--scenario", name]) == 0
    assert (checks.call_count, inverses.call_count) == (1, 1)
    assert capsys.readouterr().out == EXPECTED[name]


def test_an_underflowed_noise_step_fails_its_check(capsys):
    # the noise step 1e-6 eta underflows to 0, so that difference is 0/0: the check reads nan and
    # fails, with no numpy warning, before the singular covariance stops the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--scenario", "scenario_b", "--eta", "1e-320"]) == 2
    out, err = capsys.readouterr()
    assert out == (
        "PASS  steering derivatives (bearing): max rel err 1.779e-10 (tol 1e-06)\n"
        "PASS  steering derivatives (range): max rel err 1.410e-10 (tol 1e-06)\n"
        "FAIL  array covariance derivatives: max rel err nan (tol 1e-05)\n"
    )
    assert err == "error: array covariance is numerically singular; smallest eigenvalue -1.555140e-14\n"
