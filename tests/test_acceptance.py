"""The acceptance registry (``gptshape.acceptance``), one test per check.

Tests are named ``test_cNN_<check>`` by registry position, so the ids stay
stable as checks are appended.  Each prints the line ``gptshape verify``
prints (shown with ``pytest -s`` or on failure), then asserts.
"""

from gptshape import acceptance


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
