import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import report_json_text
from paircomp.design import Alternative, TestFamily
from paircomp.estimators import DiffKind, PairedDifference, SEMethod
from paircomp.hypotests import TestReport as Report  # not a test class
from paircomp.reporting import write_report_json

# text the splice must not be fooled by: JSON escapes, raw newlines,
# non-ASCII, and the very text of the empty list it replaces
AWKWARD = ['"per_instance": []', '\n  "per_instance": []', 'say "hi"',
           "back\\slash", "two\nlines", "tab\there", "café ☃ \U0001F600",
           " ", "\x00", "},\n      {", ""]
texts = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=12))
floats = st.one_of(st.floats(),
                   st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308, -1.7976931348623157e308,
                                    1e16, 1e-7, math.inf, -math.inf]))
records = st.builds(
    PairedDifference,
    instance_id=texts,
    phi_hat=floats,
    se_hat=floats.filter(lambda x: not x < 0.0),
    n1=st.integers(0, 2**40),
    n2=st.integers(0, 2**40),
    diff_kind=st.sampled_from(DiffKind),
    se_method=st.sampled_from(SEMethod),
    budget_exhausted=st.booleans())
reports = st.builds(
    Report,
    test_family=st.sampled_from(TestFamily),
    statistic=floats,
    df=st.none() | st.integers(0, 10**6),
    p_value=floats,
    estimate=floats,
    ci=st.tuples(floats, floats),
    alpha=floats,
    alternative=st.sampled_from(Alternative),
    n_instances_used=st.integers(0, 10**6),
    one_sided_bound=st.none() | floats,
    per_instance=st.one_of(st.just([]), st.lists(records, min_size=1, max_size=1),
                           st.lists(records, min_size=2, max_size=40)),
    warnings=st.lists(texts, max_size=4))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report")


@settings(max_examples=100, deadline=None)
@given(report=reports)
@example(report=Report(TestFamily.T_TEST, 0.0, None, 1.0, 0.0, (0.0, 0.0), 0.05,
                      Alternative.TWO_SIDED, 0, None, [], ['"per_instance": []']))
def test_report_json_is_the_indenting_encoders_text(out_dir, report):
    path = out_dir / "report.json"
    write_report_json(path, report)
    assert path.read_bytes() == report_json_text(report).encode()
