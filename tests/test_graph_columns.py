"""The column pass of build_graph against its per-record rules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relcentral.graph import _intern_columns, _intern_records


_label = st.sampled_from("abcdefgh") | st.text(min_size=1, max_size=3)
_record = st.one_of(
    st.tuples(_label, _label),
    st.tuples(_label, _label, st.floats(0.5, 4.0) | st.none() | st.just("2.5")),
    st.tuples(_label),
    st.tuples(_label, st.none()),
    st.tuples(_label, st.none(), st.floats()),
    st.lists(_label, min_size=2, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_record, max_size=30), st.lists(_label, max_size=3))
def test_column_pass_matches_the_per_record_rules(records, vertices):
    seeded = dict.fromkeys(vertices)
    seeded = dict(zip(seeded, range(len(seeded))))
    fast = _intern_columns(records, seeded)
    assert fast is not None  # valid labels and shapes never need the per-record pass
    (index, ia, ib, w, pos), fault = _intern_records(records, seeded, None)
    assert fault is None
    assert list(fast[0].items()) == list(index.items())
    for got, want in zip(fast[1:], (ia, ib, w, pos)):
        np.testing.assert_array_equal(got, want)
