"""b-file parsing/rendering, cached fetching, and deterministic reports."""

import decimal
import json
import math
import random
import sys
import urllib.error
import urllib.request
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import (
    AnalysisReport,
    BFile,
    Sequence,
    bfile_url,
    canonical_a_number,
    decimal_str,
    emit_csv,
    expand_prec,
    fetch_oeis,
    parse_bfile,
    parse_bfile_tail,
    render_bfile,
    scalar_entry,
    sequence_entry,
    text_digest,
)
from conftest import ASCENT_INIT
from mpmath.libmp import dps_to_prec, from_man_exp, from_rational, to_str

from seqlab.oeis import _decimal, _int_token, parse_bfile_decimal
from seqlab.report import unlimited_int_digits, write_report
from seqlab.errors import (
    CacheMiss,
    MalformedLine,
    NetworkError,
    NonContiguousIndex,
    SequenceNotFound,
)


class TestParseBFile:
    def test_basic(self):
        s = parse_bfile("0 1\n1 1\n2 2\n")
        assert s == Sequence(0, (1, 1, 2))

    def test_comments_blanks_and_negative_offsets(self):
        text = "# heading\n\n-2 5\n-1 -7\n0 0\n# trailing comment\n"
        s = parse_bfile(text)
        assert s == Sequence(-2, (5, -7, 0))

    def test_malformed_token_count(self):
        with pytest.raises(MalformedLine) as err:
            parse_bfile("0 1\n1 2 3\n")
        assert err.value.lineno == 2

    def test_malformed_non_integer(self):
        with pytest.raises(MalformedLine):
            parse_bfile("0 x\n")

    def test_non_contiguous(self):
        with pytest.raises(NonContiguousIndex) as err:
            parse_bfile("0 1\n2 4\n")
        assert err.value.expected == 1
        assert err.value.got == 2

    def test_empty(self):
        with pytest.raises(MalformedLine):
            parse_bfile("# only comments\n")

    def test_fixture_round_trip(self, b202062):
        assert parse_bfile(render_bfile(b202062)) == b202062
        assert b202062.offset == 0
        assert len(b202062) == 28

    @given(
        st.integers(min_value=-5, max_value=10),
        st.lists(st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
                 min_size=1, max_size=40),
    )
    def test_round_trip(self, offset, terms):
        s = Sequence(offset, tuple(terms))
        assert parse_bfile(render_bfile(s)) == s


def reference_parse(text):
    """parse_bfile as it was before the line scanner: int() on both tokens
    of every data line."""
    offset, expected, terms = None, 0, []
    with unlimited_int_digits():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedLine(lineno, raw)
            try:
                idx, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine(lineno, raw) from None
            if offset is None:
                offset = expected = idx
            if idx != expected:
                raise NonContiguousIndex(lineno, expected, idx)
            terms.append(value)
            expected += 1
    if offset is None:
        raise MalformedLine(0, "<no data lines>")
    return Sequence(offset, tuple(terms))


def as_decimals(parsed):
    """parse_bfile_decimal's result for a parsed Sequence, or the same
    error outcome."""
    if not isinstance(parsed, Sequence):
        return parsed
    return parsed.offset, [str(t) for t in parsed.terms]


def outcome(parse, *args):
    try:
        return parse(*args)
    except (MalformedLine, NonContiguousIndex) as exc:
        return type(exc), str(exc)


def last(seq, k):
    """The last k terms of a parsed Sequence, or the same error outcome."""
    if not isinstance(seq, Sequence):
        return seq
    k = min(k, len(seq))
    return Sequence(seq.last_index - k + 1, seq.terms[-k:])


class TestParseBFileTail:
    """parse_bfile_tail checks every line as parse_bfile does but converts
    only the last k terms."""

    TEXT = "# heading\n\n-2 5\n-1 -7\n\t0  0 \n1 +12\n# trailing comment\n2 3_000\n"

    def test_window_terms(self, b202062):
        text = render_bfile(b202062)
        for k in range(1, len(b202062) + 3):
            assert parse_bfile_tail(text, k) == last(b202062, k)

    def test_comments_blanks_and_negative_offsets(self):
        full = parse_bfile(self.TEXT)
        assert full == Sequence(-2, (5, -7, 0, 12, 3000))
        for k in range(1, 7):
            assert parse_bfile_tail(self.TEXT, k) == last(full, k)
        assert parse_bfile_tail(self.TEXT, 2) == Sequence(1, (12, 3000))

    @pytest.mark.parametrize("bad", ["1 x", "1 2 3", "1", "x 2", "1 ²"])
    def test_malformed_line_before_the_window(self, bad):
        lines = [f"{n} {n * n}" for n in range(40)]
        lines[1] = bad
        text = "# c\n" + "\n".join(lines) + "\n"
        want = outcome(parse_bfile, text)
        assert want == outcome(reference_parse, text)
        assert want[0] is MalformedLine and "line 3:" in want[1]
        assert outcome(parse_bfile_tail, text, 5) == want

    def test_gap_before_the_window(self):
        text = "".join(f"{n} {n}\n" for n in [0, 1, 3, 4, *range(5, 40)])
        with pytest.raises(NonContiguousIndex) as err:
            parse_bfile_tail(text, 5)
        assert (err.value.lineno, err.value.expected, err.value.got) == (3, 2, 3)
        assert outcome(parse_bfile_tail, text, 5) == outcome(parse_bfile, text)

    def test_no_data_lines(self):
        assert (outcome(parse_bfile_tail, "# only comments\n", 3)
                == outcome(parse_bfile, "# only comments\n"))

    @pytest.mark.parametrize("k", [0, -1])
    def test_needs_a_window(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            parse_bfile_tail("0 1\n", k)

    # ASCII and non-ASCII decimal digits (Arabic-Indic, fullwidth, NKo), a
    # digit that is not decimal (superscript two), signs, underscores and
    # letters
    TOKEN_CHARS = "0123456789" * 3 + "+-__" + "\u0663\uff15\u07c1" + "\u00b2" + "aZ."

    def random_token(self, rng, alphabet):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))

    def test_token_check_matches_int(self):
        rng = random.Random(2025)
        seen = {True: 0, False: 0}
        for _ in range(20000):
            token = self.random_token(rng, self.TOKEN_CHARS)
            try:
                int(token)
                accepted = True
            except ValueError:
                accepted = False
            assert _int_token(token) == accepted, token
            seen[accepted] += 1
        assert min(seen.values()) > 2000

    @pytest.mark.parametrize("ascii_only", [True, False])
    def test_fuzzed_files_match_the_reference(self, ascii_only):
        """Random files of mostly good lines, with bad tokens, gaps, and the
        characters that end a line (form feed, U+001E, U+2028) or split
        tokens (U+001F, no-break space) for str but not for bytes."""
        rng = random.Random(7 + ascii_only)
        chars = "".join(c for c in self.TOKEN_CHARS if c.isascii() or not ascii_only)
        seps = " \t\x1f" + ("" if ascii_only else "\xa0")
        breaks = ["\n", "\r\n", "\x0c", "\x1e"] + ([] if ascii_only else ["\u2028"])
        kinds = set()
        for _ in range(400):
            offset = rng.randint(-3, 3)
            lines = []
            for n in range(offset, offset + rng.randint(1, 12)):
                roll = rng.random()
                value = (self.random_token(rng, chars) if roll < 0.08
                         else str(rng.randint(-10 ** 9, 10 ** 9)))
                index = n + (1 if roll > 0.97 else 0)
                lines.append(f"{index}{rng.choice(seps)}{value}")
                if roll < 0.05:
                    lines.append("# comment")
            text = "".join(line + rng.choice(breaks) for line in lines)
            assert text.isascii() or not ascii_only
            want = outcome(reference_parse, text)
            kinds.add(want[0] if isinstance(want, tuple) else Sequence)
            assert outcome(parse_bfile, text) == want
            for k in (1, 2, 5, 20):
                assert outcome(parse_bfile_tail, text, k) == last(want, k)
            assert outcome(parse_bfile_decimal, text) == as_decimals(want)
        assert kinds == {Sequence, MalformedLine, NonContiguousIndex}

    def test_decimal_tokens(self):
        """parse_bfile_decimal gives str(int(token)), keeping a token that
        is already in that form and converting any other."""
        tokens = ["0", "-0", "+0", "00", "7", "+5", "007", "-007", "-12", "1_0",
                  "\u0663\u0660", "-\uff15", "9" * 5000, "-" + "8" * 5000]
        text = "".join(f"{n} {t}\n" for n, t in enumerate(tokens, 3))
        offset, values = parse_bfile_decimal(text)
        assert offset == 3
        with unlimited_int_digits():
            assert values == [str(int(t)) for t in tokens]
        kept = [t for t in tokens if _decimal(t) is t]
        assert kept == ["0", "7", "-12", "9" * 5000, "-" + "8" * 5000]


class TestTermsPastStrLimit:
    """The ascent counts pass CPython's 4300-digit int <-> str limit near
    n = 5690; b-files and reports carry them whole and restore the limit."""

    @pytest.fixture(scope="class")
    def u6000(self, ascent_rec):
        return expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 6000)

    def test_bfile_round_trip(self, u6000):
        limit = sys.get_int_max_str_digits()
        assert u6000.terms[-1] > 10 ** 4300
        text = render_bfile(u6000)
        assert parse_bfile(text) == u6000
        assert sys.get_int_max_str_digits() == limit

    def test_bfile_tail(self, u6000):
        text = render_bfile(u6000)
        limit = sys.get_int_max_str_digits()
        assert parse_bfile_tail(text, 22) == last(u6000, 22)
        assert sys.get_int_max_str_digits() == limit

    def test_sequence_entry(self, u6000):
        # the report writes each term as its b-file line does
        limit = sys.get_int_max_str_digits()
        values = sequence_entry(0, u6000.terms)["values"]
        assert render_bfile(Sequence(5999, (u6000.terms[-1],))) == f"5999 {values[-1]}\n"
        assert sys.get_int_max_str_digits() == limit


class TestANumbers:
    def test_canonical(self):
        assert canonical_a_number("202062") == "A202062"
        assert canonical_a_number("A202062") == "A202062"
        assert canonical_a_number("a5") == "A000005"
        with pytest.raises(ValueError):
            canonical_a_number("b123")

    def test_url(self):
        assert bfile_url("A202062") == "https://oeis.org/A202062/b202062.txt"


class FetchDouble:
    """Injectable fetcher standing in for the network layer."""

    def __init__(self, payload=None, error=None):
        self.payload = payload
        self.error = error
        self.calls = 0

    def __call__(self, a_number):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.payload


class TestFetchOeis:
    TEXT = "0 1\n1 3\n2 9\n"

    def test_fetch_writes_cache(self, tmp_path):
        double = FetchDouble(payload=self.TEXT)
        bf = fetch_oeis("202062", cache_dir=tmp_path, fetcher=double)
        assert isinstance(bf, BFile)
        assert bf.a_number == "A202062"
        assert parse_bfile(bf.text) == Sequence(0, (1, 3, 9))
        assert double.calls == 1
        cached = tmp_path / "A202062.bfile"
        assert cached.read_text() == self.TEXT

    def test_cache_hit_skips_fetcher(self, tmp_path):
        double = FetchDouble(payload=self.TEXT)
        fetch_oeis("A000042", cache_dir=tmp_path, fetcher=double)
        again = fetch_oeis("A000042", cache_dir=tmp_path, fetcher=double)
        assert double.calls == 1
        assert again.text == self.TEXT

    def test_offline_requires_cache(self, tmp_path):
        double = FetchDouble(payload=self.TEXT)
        with pytest.raises(CacheMiss):
            fetch_oeis("A000001", cache_dir=tmp_path, offline=True,
                       fetcher=double)
        assert double.calls == 0, "offline mode must never fetch"

    def test_offline_serves_cache(self, tmp_path):
        (tmp_path / "A000042.bfile").write_text(self.TEXT)
        bf = fetch_oeis("42", cache_dir=tmp_path, offline=True)
        assert bf.text == self.TEXT

    def test_not_found_propagates(self, tmp_path):
        double = FetchDouble(error=SequenceNotFound("no b-file"))
        with pytest.raises(SequenceNotFound):
            fetch_oeis("A999999", cache_dir=tmp_path, fetcher=double)
        assert not (tmp_path / "A999999.bfile").exists()

    def test_network_error_propagates(self, tmp_path):
        double = FetchDouble(error=NetworkError("boom"))
        with pytest.raises(NetworkError):
            fetch_oeis("A999998", cache_dir=tmp_path, fetcher=double)

    @pytest.mark.parametrize("error, expected", [
        (urllib.error.HTTPError("u", 404, "Not Found", {}, None), SequenceNotFound),
        (urllib.error.HTTPError("u", 503, "Unavailable", {}, None), NetworkError),
        (urllib.error.URLError("no route to host"), NetworkError),
        (TimeoutError("timed out"), NetworkError),
    ])
    def test_urllib_errors_map(self, tmp_path, monkeypatch, error, expected):
        def urlopen(url, timeout):
            assert url == bfile_url("A000042")
            raise error

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        with pytest.raises(expected):
            fetch_oeis("A000042", cache_dir=tmp_path)
        assert not (tmp_path / "A000042.bfile").exists()

    def test_env_var_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQLAB_CACHE_DIR", str(tmp_path))
        double = FetchDouble(payload=self.TEXT)
        fetch_oeis("A000042", fetcher=double)
        assert (tmp_path / "A000042.bfile").exists()

    def test_fixed_temp_name_neither_blocks_nor_is_touched(self, tmp_path):
        # another process's in-flight download under the old fixed name
        stale = tmp_path / "A000042.tmp"
        stale.write_text("0 partial\n")
        bf = fetch_oeis("A000042", cache_dir=tmp_path,
                        fetcher=FetchDouble(payload=self.TEXT))
        assert bf.text == self.TEXT
        assert (tmp_path / "A000042.bfile").read_text() == self.TEXT
        assert stale.read_text() == "0 partial\n"
        assert list(tmp_path.glob("*.tmp")) == [stale]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the cache write fails
        double = FetchDouble(payload="0 1\n\ud800\n")
        with pytest.raises(UnicodeEncodeError):
            fetch_oeis("A000042", cache_dir=tmp_path, fetcher=double)
        assert list(tmp_path.iterdir()) == []


class TestDecimalStr:
    def test_ints_and_fractions(self):
        assert decimal_str(42) == "42"
        assert decimal_str(Fraction(7, 1)) == "7"
        assert decimal_str(Fraction(1, 3), digits=10).startswith("0.33333")

    def test_mpf(self):
        with mpmath.workdps(30):
            x = mpmath.mpf(1) / 7
        out = decimal_str(x, digits=20)
        assert out.startswith("0.142857142857142857")

    def test_text_ignores_working_precision(self):
        # with digits given, the text depends on the value alone
        rng = random.Random(12)
        gen = TestRendererMatchesMpmath()
        checked = 0
        for _ in range(30):
            for digits in (5, 12, 15, 25, 100, 250, rng.randint(12, 250)):
                with mpmath.workdps(rng.choice(gen.WORKING_DPS)):
                    values = gen.values(rng, digits) + gen.SPECIAL
                points = list(zip(values, reversed(values)))
                texts = set()
                for dps in (12, 15, 60, 250):
                    with mpmath.workdps(dps):
                        texts.add((tuple(decimal_str(v, digits) for v in values),
                                   tuple(sequence_entry(0, values, digits)["values"]),
                                   emit_csv(points, ("a", "b"), digits)))
                assert len(texts) == 1, digits
                checked += len(values)
        assert checked >= 10 ** 4

    @pytest.mark.parametrize("render", [
        decimal_str, lambda v: sequence_entry(0, [1, v]), lambda v: emit_csv([(1, v)]),
    ], ids=["decimal_str", "sequence_entry", "emit_csv"])
    def test_renders_numbers_only(self, render):
        for text in ("0.5", "nan", "1/3"):
            with pytest.raises(TypeError, match="^decimal_str renders numbers only, not a str$"):
                render(text)

    def test_values_just_above_a_tie_round_up(self):
        # (10 N + 5) / 10^k (1 + 10^-200) lies above the tie between N and
        # N + 1 in its 12th digit, however far mp.dps exceeds 12
        rng = random.Random(59)
        with mpmath.workdps(250):
            for _ in range(3000):
                n, k = rng.randint(10 ** 11, 10 ** 12 - 1), rng.randint(0, 40)
                x = mpmath.mpf(10 * n + 5) / mpmath.mpf(10) ** k * (1 + mpmath.mpf(10) ** -200)
                assert decimal.Decimal(decimal_str(x, 12)) == decimal.Decimal(n + 1).scaleb(1 - k)

    def test_fractions_round_correctly(self):
        # the printed digits are the exact quotient rounded half up
        rng = random.Random(48)
        for _ in range(3000):
            num = rng.getrandbits(200) * rng.choice((1, -1))
            den = rng.getrandbits(60) | 1
            digits = rng.randint(5, 20)
            want = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP).divide(num, den)
            got = decimal_str(Fraction(num, den), digits)
            assert decimal.Decimal(got) == want, (num, den, digits)


def exact_decimal_str(value, digits=None):
    """decimal_str by its contract, in integer arithmetic: the exact value
    rounded half up to D significant digits, laid out by mpmath's to_str of
    that rounded decimal.  Zero, inf, nan, and mpfs whose binary exponent is
    beyond +-3500, go to to_str."""
    d = digits or mpmath.mp.dps + 5
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    if isinstance(value, mpmath.mpf):
        sign, man, exp, bc = raw = value._mpf_
        if not man or abs(exp + bc) > 3500:
            return to_str(raw, d)
        num, den = man << max(exp, 0), 1 << max(-exp, 0)
    elif not value or isinstance(value, float) and not math.isfinite(value):
        return to_str(mpmath.mpf(value)._mpf_, d)
    if not isinstance(value, mpmath.mpf):
        exact = Fraction(value)
        sign, num, den = exact < 0, abs(exact.numerator), exact.denominator

    # e <= floor(log10 |value|) = e + k, and floor(|value| 10^(d - 1 - e))
    # has d + k digits
    e = math.floor((num.bit_length() - den.bit_length() - 1) * math.log10(2)) - 1
    j = d - 1 - e
    t = 2 * num * 10 ** j // den if j >= 0 else 2 * num // (den * 10 ** -j)
    k = len(str(t // 2)) - d
    assert k >= 0
    e += k
    m = (t // 10 ** k + 1) // 2 * (-1) ** sign  # half up
    k = e - d + 1  # the rounded value is m 10^k
    rounded = from_rational(m * 10 ** max(k, 0), 10 ** max(-k, 0), dps_to_prec(d + 10), "n")
    return to_str(rounded, d)


class TestRendererMatchesMpmath:
    """decimal_str, sequence_entry and emit_csv print every value as the
    exact half-up reference does (exact_decimal_str), on seeded values at
    several working precisions and digit counts."""

    WORKING_DPS = (12, 15, 30, 60, 100, 200, 250)

    @staticmethod
    def digit_counts(rng):
        return [None, 5, 12, 15, 25, 100, 250, rng.randint(12, 250)]

    @staticmethod
    def both_kinds(rng, num, den=1):
        """num / den as a Fraction, an mpf of all its bits, and that mpf
        one unit of its last place above and below, each of either sign."""
        value = Fraction(num, den)
        raw = from_rational(num, den, 2000, "n")
        sign, man, exp, _ = raw
        out = [value, mpmath.mp.make_mpf(raw)]
        if man:
            shift = max(0, rng.choice([0, 40, 900]) - man.bit_length())
            for step in (1, -1):
                out.append(mpmath.mp.make_mpf(from_man_exp(
                    ((man << shift) + step) * (-1) ** sign, exp - shift)))
        return out + [-v for v in out]

    def values(self, rng, digits):
        d = digits or mpmath.mp.dps + 5
        min_fixed = min(-(d // 3), -5)
        out = []
        # random mantissas of up to 900 bits and moderate exponents
        for _ in range(6):
            bits = rng.randint(1, 900)
            man = rng.getrandbits(bits) | 1
            out.append(mpmath.mp.make_mpf(from_man_exp(
                man * rng.choice((1, -1)), rng.randint(-400, 400) - bits)))
        # random fractions
        for _ in range(3):
            num = rng.randint(-10 ** rng.randint(1, 300), 10 ** rng.randint(1, 300))
            out.append(Fraction(num, rng.randint(1, 10 ** rng.randint(1, 300))))
        # exact decimal ties, d digits then a 5: (10 n + 5) / 10^t with n of
        # d digits, dyadic as 5^(t-1) divides 2 n + 1; and their neighbours
        t = rng.randint(-3, min(d, 40))
        five = 5 ** max(t - 1, 0)
        lo, hi = -(-(2 * 10 ** (d - 1) + 1) // five), (2 * 10 ** d - 1) // five
        odd = 2 * rng.randint(lo // 2, (hi - 1) // 2) + 1  # odd * five = 2 n + 1
        out += self.both_kinds(rng, 5 * odd * five * 10 ** max(-t, 0), 10 ** max(t, 0))
        # the midpoint of the two prec-bit neighbours of a decimal tie that
        # is not dyadic, so that a rounding to prec bits first would decide
        # how it prints
        prec = dps_to_prec(max(mpmath.mp.dps, d) + 5)
        tie = Fraction(10 * rng.randint(10 ** (d - 1), 10 ** d - 1) + 5,
                       10 ** rng.randint(1, d + 30))
        shift = prec - tie.numerator.bit_length() + tie.denominator.bit_length()
        while ((tie.numerator << shift) // tie.denominator).bit_length() > prec:
            shift -= 1
        while ((tie.numerator << shift) // tie.denominator).bit_length() < prec:
            shift += 1
        low = (tie.numerator << shift) // tie.denominator
        out += [mpmath.mp.make_mpf(from_man_exp(sign * (2 * low + 1), -shift - 1))
                for sign in (1, -1)]
        # runs of d to d + 3 nines, 10^e minus a unit of their last place,
        # which carry into 10^e, some at the fixed/scientific switch
        run = d + rng.randint(0, 3)
        e = rng.choice([d - 1, d, min_fixed, min_fixed + 1, rng.randint(-40, 40)]) - run
        out += self.both_kinds(rng, (10 ** run - 1) * 10 ** max(e, 0), 10 ** max(-e, 0))
        # leading digits on either side of the fixed/scientific switch
        e = rng.choice([d - 2, d - 1, d, d + 1, min_fixed - 1, min_fixed,
                        min_fixed + 1, -5, -4, -1, 0])
        head = rng.choice([1, 15, rng.randint(1, 10 ** 30)])
        size = len(str(head)) - 1
        out += self.both_kinds(rng, head * 10 ** max(e - size, 0),
                               10 ** max(size - e, 0))
        # binary exponents beyond +-3500 and at the edge of it
        man = rng.getrandbits(rng.randint(1, 400)) | 1
        for mag in (rng.choice((1, -1)) * rng.randint(3501, 12000),
                    rng.choice((3500, 3501, -3500, -3501))):
            out.append(mpmath.mp.make_mpf(from_man_exp(
                man * rng.choice((1, -1)), mag - man.bit_length())))
        return out

    SPECIAL = [0, 7, -12, 10 ** 400, -(10 ** 300) - 1, Fraction(0), Fraction(-9, 1),
               mpmath.mpf(0), mpmath.inf, -mpmath.inf, mpmath.nan, 0.1, -2.5e-30,
               float("inf"), 0.0, -0.0]

    def test_seeded_values(self):
        rng = random.Random(2026)
        checked = 0
        for dps in self.WORKING_DPS:
            with mpmath.workdps(dps):
                for _ in range(60):
                    for digits in self.digit_counts(rng):
                        values = self.values(rng, digits)
                        for v in values:
                            assert decimal_str(v, digits) == exact_decimal_str(v, digits), (
                                v, digits, dps)
                        checked += len(values)
                for digits in (None, 1, 5, 12, 250):
                    for v in self.SPECIAL:
                        assert decimal_str(v, digits) == exact_decimal_str(v, digits)
        assert checked >= 10 ** 5

    @staticmethod
    def finite(v):
        return isinstance(v, (int, Fraction)) or mpmath.isfinite(mpmath.mpf(v))

    def test_entries_and_tables(self):
        rng = random.Random(2027)
        for dps in self.WORKING_DPS:
            with mpmath.workdps(dps):
                for digits in self.digit_counts(rng):
                    values = self.values(rng, digits) + self.SPECIAL
                    want = [exact_decimal_str(v, digits) for v in values]
                    assert sequence_entry(3, values, digits)["values"] == want
                    points = list(zip(values, reversed(values)))
                    rows = [f"{a},{b}" for (x, y), a, b in zip(points, want, want[::-1])
                            if self.finite(x) and self.finite(y)]
                    assert emit_csv(points, ("a", "b"), digits) == "\n".join(
                        ["a,b", *rows]) + "\n"


class TestEntries:
    def test_scalar_entry(self):
        e = scalar_entry(Fraction(3, 2), digits=10)
        assert e == {"value": "1.5", "digits": 10}
        e2 = scalar_entry(2, digits=5, spread=Fraction(1, 100))
        assert e2["spread"] == "0.01"

    def test_sequence_entry(self):
        e = sequence_entry(2, [1, 2, 3])
        assert e["offset"] == 2
        assert e["values"] == ["1", "2", "3"]


class TestReport:
    @staticmethod
    def build(notes=("n1",), param=1):
        return AnalysisReport(
            command="seqlab analyze ratios x.txt",
            input_digest=text_digest("0 1\n"),
            parameters={"precision": param},
            scalars={"mu": scalar_entry(Fraction(2), digits=5)},
            sequences={"head": sequence_entry(0, [1, 2])},
            identifications={},
            notes=list(notes),
        )

    def test_digest_ignores_timestamp(self):
        a, b = self.build(), self.build()
        b.created_at = "2000-01-01T00:00:00+00:00"
        assert a.digest() == b.digest()
        assert a.to_json() != b.to_json()

    def test_digest_sensitive_to_content(self):
        assert self.build().digest() != self.build(param=2).digest()
        assert self.build().digest() != self.build(notes=("n2",)).digest()

    def test_json_shape(self):
        rep = self.build()
        doc = json.loads(rep.to_json())
        assert doc["report_digest"] == rep.digest()
        assert doc["command"] == "seqlab analyze ratios x.txt"
        assert doc["scalars"]["mu"]["value"] == "2"
        assert doc["sequences"]["head"]["offset"] == 0
        assert "created_at" in doc
        assert rep.to_json().endswith("\n")

    # JSON values as reports may hold them: decimal strings long and short,
    # any text, ints past the str limit's reach, floats with their non-finite
    # forms, and nested lists, tuples and dicts, empty ones included
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text() | st.from_regex(r"\A-?[0-9]{1,80}\Z"),
        lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                       | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=20,
    )

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), json_values, max_size=4),
           st.lists(json_values, max_size=3))
    def test_encoding_is_json_dumps(self, parameters, notes):
        """digest() and the file are the compact and the indented sorted-key
        json.dumps of the body, whatever its values."""
        rep = self.build(param=1)
        rep.parameters, rep.notes = parameters, notes
        body = rep._canonical_body()
        compact = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert rep.digest() == text_digest(compact)
        doc = dict(body, created_at=rep.created_at, report_digest=rep.digest())
        assert rep.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("keys", [[2, 10, -1], [1.5, -0.0, float("inf")],
                                      [None], [True, False], ["", "a\u00e9\n"]])
    def test_keys_are_json_dumps(self, keys):
        rep = self.build()
        rep.parameters = {k: [k] for k in keys}
        body = rep._canonical_body()
        assert rep.digest() == text_digest(
            json.dumps(body, sort_keys=True, separators=(",", ":")))
        doc = dict(body, created_at=rep.created_at, report_digest=rep.digest())
        assert rep.to_json() == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_unencodable_values_and_keys_raise(self):
        rep = self.build()
        for parameters in ({"x": Fraction(1, 2)}, {(1, 2): 1}, {1: 0, "a": 0}):
            rep.parameters = parameters
            with pytest.raises(TypeError):
                rep.digest()
            with pytest.raises(TypeError):
                rep.to_json()

    def test_text_digest_is_sha256(self):
        assert text_digest("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestEmitCsv:
    def test_basic(self):
        assert emit_csv([(1, 1), (2, 4)]) == "x,y\n1,1\n2,4\n"

    def test_header_and_empty(self):
        assert emit_csv([], header=("n", "r_n")) == "n,r_n\n"

    def test_drops_non_finite(self):
        rows = [(1, mpmath.inf), (2, mpmath.nan), (3, 9), (4, -mpmath.inf),
                (mpmath.inf, 5), (-mpmath.inf, 6), (mpmath.nan, 7)]
        assert emit_csv(rows) == "x,y\n3,9\n"

    def test_mpf_values(self):
        with mpmath.workdps(30):
            out = emit_csv([(1, mpmath.mpf("0.25"))])
        assert out == "x,y\n1,0.25\n"

    def test_fractions_are_not_compared_with_the_sentinels(self):
        # only a raw mpf can be inf or nan, so a Fraction x (as the 1/n of
        # the ratio figures) renders without an equality test
        class Uncomparable(Fraction):
            def __eq__(self, other):
                raise AssertionError("compared")

            __hash__ = Fraction.__hash__

        rows = [(Uncomparable(1, n), y) for n, y in [
            (2, 3), (3, mpmath.inf), (4, mpmath.nan), (5, mpmath.mpf(0.5)), (8, -mpmath.inf)]]
        assert emit_csv(rows, digits=5) == "x,y\n0.5,3\n0.2,0.5\n"


class TestWriteReport:
    def report(self, note):
        return AnalysisReport(command="seqlab test", input_digest="0", notes=[note])

    def test_writes_report_and_csvs_into_new_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "report.json"
        write_report(path, self.report("one"), {"fig": "x,y\n1,2\n"})
        assert json.loads(path.read_text())["notes"] == ["one"]
        assert (path.parent / "fig.csv").read_text() == "x,y\n1,2\n"
        assert sorted(p.name for p in path.parent.iterdir()) == ["fig.csv", "report.json"]

    @pytest.mark.parametrize("failure", ["csv", "replace"])
    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "report.json"
        write_report(path, self.report("old"))
        before = path.read_text()
        csvs = {}
        if failure == "csv":
            csvs["fig"] = "\ud800"  # a lone surrogate cannot be encoded
        else:
            def refuse(src, dst):
                raise OSError("disk full")
            monkeypatch.setattr("os.replace", refuse)
        with pytest.raises((UnicodeEncodeError, OSError)):
            write_report(path, self.report("new"), csvs)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
