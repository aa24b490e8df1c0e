"""Property-based fuzzing of the CLI's input parsers.

The property: whatever a scenario file, ``--grid`` or ``--fixed`` holds, the
command either succeeds or prints ``error: ...`` on stderr and exits 1; it
never ends in a traceback. Runs are derandomized (the same examples every
run) and keep no example database, so the suite stays reproducible.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandalloc import cli

# The function-scoped fixtures are safe to share between examples: the shipped
# scenario file is only read, and each scenario example rewrites its own file.
FUZZ = settings(
    max_examples=75, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
numbers = st.one_of(
    st.floats(), st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([0, 0.0, -0.0, 1e-300, 1e300, 0.5, 1.0, 2.0, -1.0, 10**400, -(10**400)]),
)


def base_doc(mode: str) -> dict:
    if mode == "abstract":
        return {
            "mode": "abstract",
            "bands": [{"availability_pi": 0.25}, {"availability_pi": 0.875}],
            "users": [
                {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.7, 0.8]},
                {"arrival_rate_lambda_s": 0.0, "out_complement_row": [0.85, 0.9]},
            ],
        }
    return {
        "mode": "physical",
        "slot": {"T": 1.0, "tau": 0.1, "b": 100.0},
        "bands": [{"bandwidth_W": 100.0, "arrival_rate_lambda_p": 0.2, "gamma_p": 10.0, "sigma2_p": 1.0}],
        "users": [{"arrival_rate_lambda_s": 0.1, "gamma_s": 10.0, "sigma2_s": 1.0}],
    }


def _slots(doc):
    """Every (container, key) pair inside ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def scenario_docs(draw):
    """A valid document with a few fields replaced, removed or added."""
    doc = base_doc(draw(st.sampled_from(["abstract", "physical"])))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        numeric = [(c, k) for c, k in slots if isinstance(c[k], (int, float))]
        action = draw(st.sampled_from(["number", "number", "value", "delete", "add"]))  # numbers 2x
        if action == "number" and numeric:
            container, key = draw(st.sampled_from(numeric))
            container[key] = draw(numbers)
        elif action == "value":
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(json_values)
        elif action == "delete":
            container, key = draw(st.sampled_from(slots))
            del container[key]
        else:
            container = draw(st.sampled_from([doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]))
            container[draw(st.text(max_size=6))] = draw(json_values)
    return doc


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err):
    """Success, or ``error: ...`` on stderr with exit status 1."""
    if code == 0:
        assert err == ""
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ")


@FUZZ
@given(doc=scenario_docs())
def test_scenario_documents(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert_clean(*run("rates", "--scenario", str(path)))


@FUZZ
@given(doc=json_values)
def test_arbitrary_json_documents(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("rates", "--scenario", str(path))
    assert_clean(code, out, err)
    assert code == 1  # keys of at most 6 characters cannot name a band's or user's fields


grid_numbers = st.one_of(
    st.floats(),
    st.sampled_from(["0", "-0", "1", "3e-6", "1e-320", "1e308", "nan", "-inf", "0x1p3", "1_0", "", " 1"]),
).map(str)
grid_specs = st.one_of(
    st.text(alphabet="0123456789.:-+eEinfa_x ", max_size=16),
    st.tuples(grid_numbers, grid_numbers, grid_numbers).map(":".join),
    # well-formed grids of 1 to 10x the point cap intervals, some with negative starts
    st.builds(lambda start, span, n: f"{start}:{start + span}:{span / n}",
              st.floats(-1, 2), st.floats(0.1, 2), st.integers(1, 10 * cli._MAX_GRID_POINTS)),
)


@FUZZ
@given(spec=grid_specs)
def test_grid_specs(ref_2x2_file, spec):
    try:
        grid = cli._parse_grid(spec)
    except cli.CliError:
        assert_clean(*run("envelope", "--scenario", ref_2x2_file, "--system", "S", f"--grid={spec}"))
        return
    assert 1 <= len(grid) <= cli._MAX_GRID_POINTS + 1
    assert all(math.isfinite(g) and g >= 0 for g in grid)
    assert grid == sorted(grid)


fixed_items = st.one_of(
    st.text(alphabet="0123456789.=-+eEinfa_ ", max_size=8),
    st.tuples(st.integers(-3, 4).map(str), grid_numbers).map("=".join),
)


@FUZZ
@given(spec=st.lists(fixed_items, min_size=1, max_size=3).map(",".join))
def test_fixed_specs(ref_2x2_file, spec):
    try:
        fixed = cli._parse_fixed(spec, 2)
    except cli.CliError:
        assert_clean(*run("decompose", "--scenario", ref_2x2_file, f"--fixed={spec}"))
        return
    assert set(fixed) <= {0, 1}
    assert all(math.isfinite(r) and r >= 0 for r in fixed.values())
    assert_clean(*run("decompose", "--scenario", ref_2x2_file, f"--fixed={spec}"))
