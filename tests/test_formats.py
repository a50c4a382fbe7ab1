import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plotting_solver.engine import ColShot, Grid, Instance, RowShot
from plotting_solver.formats import (
    FormatError,
    parse_instance,
    parse_plan,
    write_instance,
    write_plan,
)


@st.composite
def instances(draw):
    height = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    rows = [
        [draw(st.integers(1, 5)) for _ in range(width)] for _ in range(height)
    ]
    goal = draw(st.one_of(st.none(), st.integers(0, height * width)))
    return Instance(Grid.from_rows(rows), goal)


@st.composite
def plans(draw):
    hand = draw(st.integers(1, 9))
    shots = draw(
        st.lists(
            st.one_of(
                st.builds(RowShot, st.integers(1, 9)),
                st.builds(ColShot, st.integers(1, 9)),
            ),
            max_size=6,
        )
    )
    return hand, shots


@settings(max_examples=60)
@given(instances())
def test_instance_round_trip(instance):
    assert parse_instance(write_instance(instance)) == instance


@settings(max_examples=60)
@given(plans())
def test_plan_round_trip(plan):
    hand, shots = plan
    assert parse_plan(write_plan(hand, shots)) == (hand, shots)


def test_instance_file_shape():
    text = write_instance(Instance(Grid.from_rows([[1, 2], [2, 1]]), 3))
    assert text == (
        "plotting-instance v1\nsize 2 2\ngoal 3\ngrid\n1 2\n2 1\n"
    )


def test_plan_file_shape():
    text = write_plan(2, [RowShot(1), ColShot(2)])
    assert text == "plotting-plan v1\nhand 2\nrow 1\ncol 2\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "plotting-instance v2\nsize 1 1\ngrid\n1\n",
        "plotting-instance v1\nsize 1 1\n1\n",
        "plotting-instance v1\nsize 2 1\ngrid\n1\n",
        "plotting-instance v1\nsize 1 2\ngrid\n1\n",
        "plotting-instance v1\nsize 1 1\ngrid\n0\n",
        "plotting-instance v1\nsize 1 1\ngoal 5\ngrid\n1\n",
        "plotting-instance v1\nsize 1 1\ngrid\nx\n",
    ],
)
def test_bad_instances_rejected(text):
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "plotting-plan v1\n",
        "plotting-plan v1\nhand zero\n",
        "plotting-plan v1\nhand 1\ndiagonal 2\n",
        "plotting-plan v1\nhand 1\nrow 0\n",
        "plotting-plan v1\nhand 1\nrow\n",
    ],
)
def test_bad_plans_rejected(text):
    with pytest.raises(FormatError):
        parse_plan(text)


# Written files with a few words or lines replaced, dropped or inserted
# reach every parser branch; arbitrary text rarely gets past the header.
_WORDS = st.one_of(
    st.sampled_from(
        ["plotting-instance", "plotting-plan", "v1", "size", "goal", "grid",
         "hand", "row", "col", "0", "1", "2", "-1", "10", "1.5", "x", ""]
    ),
    st.text(max_size=4),
)


@st.composite
def damaged_files(draw):
    text = draw(
        st.one_of(
            st.builds(write_instance, instances()),
            plans().map(lambda plan: write_plan(*plan)),
        )
    )
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        # edit the words of line ``at``, or of a new line inserted there;
        # a line left with no words is dropped by the parsers
        at = draw(st.integers(0, len(lines)))
        insert = at == len(lines) or draw(st.booleans())
        words = [] if insert else lines[at].split()
        k = draw(st.integers(0, len(words)))
        words[k : k + draw(st.integers(0, 1))] = draw(st.lists(_WORDS, max_size=3))
        lines[at : at if insert else at + 1] = [" ".join(words)]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.one_of(damaged_files(), st.text()))
def test_parsers_return_a_value_or_raise_format_error(text):
    try:
        assert isinstance(parse_instance(text), Instance)
    except FormatError:
        pass
    try:
        hand, shots = parse_plan(text)
        assert hand >= 1
        assert all(isinstance(shot, (RowShot, ColShot)) for shot in shots)
    except FormatError:
        pass
