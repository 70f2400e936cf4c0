"""The acceptance registry (``gptshape.acceptance``), one test per check.

Tests are named ``test_cNN_<check>`` by registry position, so the ids stay
stable as checks are appended.  Each prints the line ``gptshape verify``
prints (shown with ``pytest -s`` or on failure), then asserts.
"""

import numpy as np

from gptshape import acceptance
from gptshape.geometry import ShapeSpec, discretize
from oracles import npo_matrix_oracle


def _test(check):
    def test():
        ok, line = acceptance.run(check)
        print(line)
        assert ok, line
    return test


for _i, _check in enumerate(acceptance.CHECKS, start=1):
    globals()[f"test_c{_i:02d}_{_check.name.replace('-', '_')}"] = _test(_check)


def test_run_fails_a_check_over_its_budget():
    ok, line = acceptance.run(acceptance.Check("slow", False, 0.0, lambda: (True, "fine")))
    assert not ok and line.startswith("FAIL slow") and "(budget 0s)" in line


def test_operator_checks_print_the_products_of_the_c_ordered_matrix():
    # numpy's A @ x and w @ A sum in an order that follows A's layout, and the
    # printed errors are those of the C-ordered matrix the oracle builds
    checks = {c.name: c.fn for c in acceptance.CHECKS}
    b = discretize(ShapeSpec.disk(), 128)
    A = npo_matrix_oracle(b)
    const_err = float(np.max(np.abs(A @ np.ones(b.n) - 0.5)))
    mode_err = float(np.max(np.abs(A @ b.nodes[:, 0])))
    assert checks["circle-operator-spectral-identities"]() == (True, (
        f"|A 1 - 1/2| {const_err:.2e} (<=1e-10), |A cos| {mode_err:.2e} (<=1e-8)"))
    b = discretize(ShapeSpec.ellipse(2.0, 1.0), 128)
    err = float(np.max(np.abs(b.weights @ npo_matrix_oracle(b) - 0.5 * b.weights)))
    assert checks["gauss-weighted-row"]() == (True, f"weighted-row err {err:.2e} (<=1e-8)")
