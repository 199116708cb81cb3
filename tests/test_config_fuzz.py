"""Seeded property test: parse_config accepts a config or raises ConfigError."""

from hypothesis import given, settings, strategies as st

from thermalpair.cli import ConfigError, RunConfig, parse_config

# what json.loads can hand over once NaN and Infinity are rejected, with an
# in-range branch so that examples often get past the early checks
in_range = st.floats(min_value=0.1, max_value=10.0)
numbers = st.one_of(
    in_range,
    st.integers(),
    st.integers(min_value=-10**400, max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["inf", "-1", "1e3", "2.5", "abc", ""]),
    st.booleans(),
)
scalars = st.one_of(st.none(), numbers, st.text(max_size=8))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12,
)
vec3 = st.lists(numbers, min_size=3, max_size=3)
counts = st.one_of(st.integers(min_value=-3, max_value=3000), numbers)
axis = st.tuples(numbers, numbers, counts).map(list)

KNOWN = {
    "omega": st.one_of(in_range, numbers),
    "beta": st.one_of(in_range, numbers),
    "ell": st.one_of(in_range, numbers),
    "n": st.one_of(st.sampled_from([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]), vec3, values),
    "include_hs": st.one_of(st.booleans(), values),
    "initial_state": st.one_of(
        st.fixed_dictionaries({"named": st.sampled_from(["singlet", "canonical", "ghz"])}),
        st.fixed_dictionaries({"product": st.fixed_dictionaries(
            {"bloch1": vec3, "bloch2": vec3})}),
        st.fixed_dictionaries({"matrix": st.lists(st.lists(numbers, min_size=2, max_size=2),
                                                  min_size=16, max_size=16)}),
        values,
    ),
    "time_grid": st.one_of(
        st.fixed_dictionaries({"t_max": numbers}, optional={"n_samples": counts}),
        st.lists(numbers, max_size=6),
        values,
    ),
    "sweep": st.one_of(
        st.fixed_dictionaries({"beta_omega": axis, "omega_ell": axis}),
        values,
    ),
}

# a valid config with every known key; one_faulty_key replaces one of them,
# so each key's parser is reached past the checks that run before it
VALID = {"omega": 1.0, "beta": 1.0, "ell": 0.5, "n": [0.0, 0.0, 1.0], "include_hs": False,
         "initial_state": {"named": "canonical"},
         "time_grid": {"t_max": 1.0, "n_samples": 3},
         "sweep": {"beta_omega": [1.0, 2.0, 2], "omega_ell": [0.0, 1.0, 2]}}
one_faulty_key = st.sampled_from(sorted(KNOWN)).flatmap(
    lambda key: KNOWN[key].map(lambda value: {**VALID, key: value}))

configs = st.one_of(
    one_faulty_key,
    st.fixed_dictionaries({}, optional=KNOWN),
    st.dictionaries(st.sampled_from(sorted(KNOWN) + ["mystery_knob"]), values, max_size=4),
    values,
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(configs)
def test_parse_config_accepts_or_raises_config_error(doc):
    try:
        config = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
