import json
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec
from gaussmanin import critical, cyclic_symmetric_spec
from gaussmanin.critical import (
    CriticalReport,
    check_singular_equation,
    critical_values,
)
from gaussmanin.errors import LambdaZero


def test_e2_lambda_one(e2):
    report = critical_values(e2, 1.0, n_starts=60)
    assert report.found_values
    target = -1.0 / 432.0
    assert any(abs(v - target) < 1e-10 for v, _ in report.found_values)
    assert report.max_mismatch < 1e-9


def test_e2_lambda_two_scales_by_lambda_six(e2):
    report = critical_values(e2, 2.0, n_starts=80)
    target = -(2.0 ** 6) / 432.0
    assert any(abs(v - target) < 1e-9 * max(1.0, abs(target))
               for v, _ in report.found_values)


def test_residuals_below_threshold(e2):
    report = critical_values(e2, 1.0, n_starts=60)
    assert all(res < 1e-9 for _, res in report.found_values)


def test_check_singular_equation_e2(e2):
    assert check_singular_equation(e2, 1.0, tol=1e-9, n_starts=60)


def test_check_singular_equation_e61(e61):
    assert check_singular_equation(e61, 1.0, tol=1e-6, n_starts=200)


def test_check_singular_equation_quintic():
    spec = cyclic_symmetric_spec((5, 0, 0, 0))
    report = critical_values(spec, 1.0, n_starts=80)
    assert any(abs(v - 1.0 / 3125.0) < 1e-10 for v, _ in report.found_values)
    assert check_singular_equation(spec, 1.0, tol=1e-9, n_starts=80)


def test_complex_lambda(e2):
    lam = 1.0 + 0.5j
    assert check_singular_equation(e2, lam, tol=1e-8, n_starts=80)


def test_lambda_zero_rejected(e2):
    with pytest.raises(LambdaZero):
        critical_values(e2, 0.0)


def test_report_json_roundtrip(e2):
    report = critical_values(e2, 1.0, n_starts=40)
    back = CriticalReport.from_json(report.to_json())
    assert back.found_values == report.found_values
    assert back.predicted == report.predicted
    assert back.max_mismatch == report.max_mismatch


def test_predicted_root_count(e61):
    report = critical_values(e61, 1.0, n_starts=20)
    assert len(report.predicted) == 15


# The Newton search as it ran on numpy scalars: the reference that the
# power-table search must match bit for bit
def _eval_terms(term_list, x):
    out = 0.0 + 0.0j
    for c, e in term_list:
        v = c
        for xi, ei in zip(x, e):
            if ei:
                v *= xi ** ei
        out += v
    return out


def _reference_search(terms, n, n_starts, keep, seed):
    grad = critical._gradient_terms(terms, n)
    hess = [critical._gradient_terms(g, n) for g in grad]
    max_deg = max(sum(e) for _, e in terms)
    rng = np.random.default_rng(seed)
    scales = (0.5, 1.0, 2.0, 4.0)
    raw_values = []
    n_converged = 0
    for start in range(n_starts):
        radius = scales[start % len(scales)]
        x = radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        ok = False
        for _ in range(80):
            g = np.array([_eval_terms(gi, x) for gi in grad])
            scale = max(1.0, float(np.max(np.abs(x))) ** max(1, max_deg - 1))
            if np.max(np.abs(g)) <= 1e-13 * scale:
                ok = True
                break
            H = np.array([[_eval_terms(hess[i][k], x) for k in range(n)]
                          for i in range(n)])
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            x = x + step
            if not np.all(np.isfinite(x.view(float))) or np.max(np.abs(x)) > 1e8:
                break
        if not ok:
            continue
        residual = float(np.max(np.abs(g))) / scale
        if residual < keep:
            n_converged += 1
            raw_values.append((complex(_eval_terms(terms, x)), residual))
    return raw_values, n_converged


@settings(max_examples=30, deadline=None)
@given(spec_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1),
       lam=st.sampled_from([1, -2, 1.5, 1 + 0.5j]), n_starts=st.integers(1, 40))
def test_power_table_search_matches_the_numpy_scalar_loop(spec_seed, seed, lam, n_starts):
    spec = random_spec(random.Random(spec_seed), max_vars=4, max_entry=5)
    report = critical_values(spec, lam, n_starts=n_starts, seed=seed)
    with mock.patch.object(critical, "_newton_search", _reference_search):
        expected = critical_values(spec, lam, n_starts=n_starts, seed=seed)
    # json.dumps prints each float by its shortest round-trip repr
    assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
