"""Round trips and input validation for the JSON layer."""

import pytest
from hypothesis import given, settings, strategies as st

from ncpbound.arith import QZ
from ncpbound.brauer import construct_class, make_class
from ncpbound.errors import ValidationError
from ncpbound.fields import (
    QQ,
    fqt_from_factors,
    infinite_place,
    poly_place,
    prime_place,
    rational_function_field,
    real_place,
)
from ncpbound.groupext import ext_build
from ncpbound.jsonio import (
    base_from_json,
    central_from_json,
    class_from_json,
    ext_from_json,
    load_json,
    parse_fqt_text,
    parse_place_text,
    parse_poly_text,
    place_from_json,
    to_json,
)
from helpers import q_ext, ff7_cubic

F7 = rational_function_field(7)


class TestRoundTrips:
    def test_extension_over_q(self):
        M = q_ext(-1, 2)
        assert ext_from_json(to_json(M)) == M

    def test_extension_over_function_field(self):
        M = ff7_cubic()
        assert ext_from_json(to_json(M)) == M

    def test_extension_from_text_radicands(self):
        doc = {"base": "F7(t)", "n": 3, "radicands": ["t", "(t-1)*(t-2)"]}
        assert ext_from_json(doc) == ff7_cubic()

    @pytest.mark.parametrize(
        "place",
        [prime_place(5), real_place(), poly_place(7, (4, 1)), infinite_place(7)],
    )
    def test_place(self, place):
        assert place_from_json(to_json(place)) == place

    def test_brauer_class(self):
        alpha = construct_class(q_ext(-1, 2), 8, (prime_place(2), prime_place(7)))
        assert class_from_json(to_json(alpha)) == alpha

    def test_brauer_class_from_text_places(self):
        doc = {"base": "Q", "invariants": [["2", "1/4"], ["7", "3/4"]]}
        want = make_class({prime_place(2): QZ(1, 4), prime_place(7): QZ(3, 4)})
        assert class_from_json(doc) == want

    def test_central_extension(self):
        E = ext_build(2, 1, (2, 2), (1, 1), (1,))
        assert central_from_json(to_json(E)) == E


class TestBaseField:
    @pytest.mark.parametrize("doc", ["Q", {"kind": "Q"}])
    def test_rationals(self, doc):
        assert base_from_json(doc) == QQ

    @pytest.mark.parametrize("doc", ["F7(t)", "F_7(t)", {"kind": "Fq", "q": 7}, {"q": 7}])
    def test_function_field(self, doc):
        assert base_from_json(doc) == F7

    @pytest.mark.parametrize("doc", ["F8(t)", "Z", {"kind": "R"}, 7])
    def test_rejects_junk(self, doc):
        with pytest.raises(ValidationError):
            base_from_json(doc)


class TestTextForms:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("t+4", (4, 1)),
            ("(t+4)", (4, 1)),
            ("t", (0, 1)),
            ("t^2+t+3", (3, 1, 1)),
            ("t-1", (6, 1)),
            ("2*t+1", (1, 2)),
            ("t^3 - t - 2", (5, 6, 0, 1)),
        ],
    )
    def test_poly_text(self, text, coeffs):
        assert parse_poly_text(text, 7) == coeffs

    @pytest.mark.parametrize("text", ["", "x+1", "t^", "t**2"])
    def test_poly_text_rejects_junk(self, text):
        with pytest.raises(ValidationError):
            parse_poly_text(text, 7)

    def test_fqt_text_with_constant_and_powers(self):
        want = fqt_from_factors(7, 3, [((0, 1), 1), ((1, 1), 2)])
        assert parse_fqt_text("3*t*(t+1)^2", 7) == want

    def test_fqt_text_monomial_power(self):
        assert parse_fqt_text("t^2", 7) == fqt_from_factors(7, 1, [((0, 1), 2)])

    def test_fqt_text_rejects_composite_chunk(self):
        # (t^2-1) factors over F_7, so it is not a legal single chunk
        with pytest.raises(ValidationError):
            parse_fqt_text("t^2-1", 7)

    def test_place_text_over_q(self):
        assert parse_place_text(QQ, "5") == prime_place(5)
        assert parse_place_text(QQ, "real") == real_place()
        with pytest.raises(ValidationError):
            parse_place_text(QQ, "t+1")

    def test_place_text_over_function_field(self):
        assert parse_place_text(F7, "t+4") == poly_place(7, (4, 1))
        assert parse_place_text(F7, "inf") == infinite_place(7)
        with pytest.raises(ValidationError):
            parse_place_text(F7, "5")  # constant, not a monic irreducible


class TestValidation:
    def test_extension_requires_all_keys(self):
        with pytest.raises(ValidationError):
            ext_from_json({"base": "Q", "n": 2})

    def test_extension_rejects_text_radicands_over_q(self):
        with pytest.raises(ValidationError):
            ext_from_json({"base": "Q", "n": 2, "radicands": ["-1"]})

    def test_class_requires_invariants(self):
        with pytest.raises(ValidationError):
            class_from_json({"base": "Q"})

    def test_class_rejects_malformed_rows(self):
        with pytest.raises(ValidationError):
            class_from_json({"base": "Q", "invariants": [["2"]]})

    def test_text_place_without_base_rejected(self):
        with pytest.raises(ValidationError):
            place_from_json("2")

    def test_central_extension_requires_all_keys(self):
        with pytest.raises(ValidationError):
            central_from_json({"p": 2, "a": 1})

    def test_unknown_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            to_json(object())

    def test_load_json_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_json(str(tmp_path / "absent.json"))

    def test_load_json_bad_syntax(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_json(str(path))


class TestDecoderTypes:
    """Wrongly typed JSON numbers are malformed input, not a crash."""

    def test_string_n_rejected(self):
        with pytest.raises(ValidationError, match="n must be an integer"):
            ext_from_json({"base": "Q", "n": "2", "radicands": [3]})

    def test_string_q_rejected(self):
        with pytest.raises(ValidationError, match="q must be an integer"):
            ext_from_json({"base": {"kind": "Fq", "q": "7"}, "n": 3, "radicands": ["t"]})

    def test_string_factor_exponent_rejected(self):
        with pytest.raises(ValidationError, match="exponent must be an integer"):
            ext_from_json({"base": "F7(t)", "n": 3,
                           "radicands": [{"c": 1, "factors": [[[0, 1], "1"]]}]})

    def test_string_place_prime_rejected(self):
        with pytest.raises(ValidationError):
            place_from_json({"kind": "prime", "p": "5"})

    def test_structured_factor_list_still_accepted(self):
        M = ext_from_json({"base": "F7(t)", "n": 3,
                           "radicands": [{"c": 1, "factors": [[[0, 1], 1]]}]})
        assert M.orders == (3,)


# ------------------------------------------------------------------ fuzzing
#
# Every decoder either returns a value or raises ValidationError, whatever
# JSON it is handed.  Integers stay small and strings short, so no draw asks
# for a huge sieve or a long trial division: those are bounded separately.

_KEYS = st.sampled_from(["kind", "q", "p", "coeffs", "base", "n", "radicands", "orders",
                         "invariants", "c", "factors", "a", "t"])
_WORDS = st.sampled_from(["Q", "F7(t)", "F_5(t)", "F3(t)", "Fq", "prime", "poly", "inf",
                          "real", "t", "t+1", "t^2+1", "(t-1)*(t-2)", "3*t^2", "1/2", "3/4"])
_TEXT = st.text(alphabet="0123456789tQF_inf()*^+-/. \n", max_size=9)
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 30) | _WORDS | _TEXT
            | st.floats(-4, 4, allow_nan=False))
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=2), kids, max_size=5),
    max_leaves=14,
)
_BASES = st.sampled_from([None, QQ, F7, rational_function_field(3)])


def _value_or_validation_error(decode, *args):
    try:
        decode(*args)
    except ValidationError:
        pass


class TestDecoderFuzz:
    @settings(deadline=None, max_examples=400)
    @given(doc=_JSON)
    def test_structured_decoders(self, doc):
        for decode in (base_from_json, ext_from_json, class_from_json, central_from_json):
            _value_or_validation_error(decode, doc)

    @settings(deadline=None, max_examples=300)
    @given(doc=_JSON, base=_BASES)
    def test_place_from_json(self, doc, base):
        _value_or_validation_error(place_from_json, doc, base)

    @settings(deadline=None, max_examples=400)
    @given(text=_TEXT | _WORDS, q=st.sampled_from([2, 3, 5, 7]))
    def test_text_forms(self, text, q):
        _value_or_validation_error(parse_fqt_text, text, q)
        _value_or_validation_error(parse_place_text, rational_function_field(q), text)
        _value_or_validation_error(parse_place_text, QQ, text)

    @settings(deadline=None, max_examples=200)
    @given(kind=st.sampled_from(["Q", "F7(t)", "F3(t)", {"kind": "Fq", "q": 5}]),
           n=st.integers(-1, 7), radicands=st.lists(_JSON, max_size=3))
    def test_extension_shaped(self, kind, n, radicands):
        _value_or_validation_error(ext_from_json, {"base": kind, "n": n, "radicands": radicands})

    @settings(deadline=None, max_examples=200)
    @given(base=_JSON | _WORDS, rows=st.lists(st.tuples(_JSON, _SCALARS | _WORDS), max_size=3))
    def test_class_shaped(self, base, rows):
        _value_or_validation_error(class_from_json,
                                   {"base": base, "invariants": [list(r) for r in rows]})
