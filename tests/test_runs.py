"""The digit source and the closed-form weights of ``holderlevels.runs``.

A run's K holds its base-2**l digits past the crossing depth, most
significant first.  The oracle lists them by repeated ``divmod`` by
2**l, and reads the level's first vertex hit from the exact height.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from holderlevels.runs import (_block_sums, _blocks, _chain, _cut, _digit_counts, _digits,
                               _heads, _last_digits, _run_ks, _run_weights, _weight)
from helpers import oracle_run_weights


def listed(k: int, l: int, size: int) -> list[int]:
    """The ``size`` base-2**l digits of k below 2**(l size), most significant first."""
    digits = []
    for _ in range(size):
        k, digit = divmod(k, 1 << l)
        digits.append(digit)
    return digits[::-1]


def spelled(digits, l: int) -> int:
    k = 0
    for digit in digits:
        k = k * (1 << l) + digit
    return k


@st.composite
def run_digits(draw, max_l: int = 16):
    """(l, digits): up to 40 digits, leading zeros and all-ones digits drawn often."""
    l = draw(st.integers(min_value=1, max_value=max_l))
    top = (1 << l) - 1
    digit = st.one_of(st.just(0), st.just(top), st.integers(min_value=0, max_value=top))
    digits = draw(st.lists(digit, min_size=1, max_size=40))
    kind = draw(st.sampled_from(["drawn", "leading zeros", "all ones"]))
    if kind == "leading zeros":
        m = draw(st.integers(min_value=1, max_value=len(digits)))
        digits[:m] = [0] * m
    elif kind == "all ones":
        digits = [top] * len(digits)
    return l, digits


@given(run_digits(), st.data())
@settings(max_examples=400, deadline=None)
def test_the_digit_source_lists_cuts_and_counts_k(case, data):
    l, digits = case
    size, top = len(digits), (1 << l) - 1
    k = spelled(digits, l)
    assert listed(k, l, size) == digits == _digits(k, l, size)
    assert [block[0] for block in _chain(k, l, size)] == digits
    others = [spelled(data.draw(st.lists(st.integers(min_value=0, max_value=top),
                                         min_size=size, max_size=size)), l) for _ in range(2)]
    columns = [listed(x, l, size) for x in [k, *others]]
    assert _block_sums([k, *others], l, size) == [
        {_blocks(l)[column[j]][1] for column in columns} for j in range(size)]
    for j in range(size + 1):           # K cut to its first j digits, and its last j
        assert _cut([k, *others], l, size - j) == [spelled(c[:j], l) for c in columns]
        assert _digits(k, l, j) == digits[size - j:]
        lead = digits[:j]
        zeros = lead.count(0)
        assert _digit_counts(spelled(lead, l), j, l) == (zeros, j - zeros - lead.count(top))
    js = sorted(set(data.draw(st.lists(st.integers(min_value=1, max_value=size), min_size=1))))
    assert _heads([k], l, size, js) == [[
        (digits[j - 2] if j > 1 else 0, digits[j - 1], digits[:j - 1].count(0),
         sum(0 < d < top for d in digits[:j - 1])) for j in js]]


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=40),
       st.data())
@settings(max_examples=300, deadline=None)
def test_run_ks_reads_k_and_the_first_vertex_hit(l, n, data):
    # each run is (o, b, a) below one level: its height h = (r - b) / (a - b)
    # lies in (0, 1), and is drawn dyadic often, so that the level meets a vertex
    rden = data.draw(st.integers(min_value=1, max_value=50))
    base = data.draw(st.integers(min_value=0, max_value=10**6))
    runs, heights = [], []
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        if data.draw(st.booleans()):
            m = data.draw(st.integers(min_value=1, max_value=n + 1))
            unit = data.draw(st.integers(min_value=1, max_value=1000))
            d = unit << l * m
            y = data.draw(st.integers(min_value=1, max_value=(1 << l * m) - 1)) * unit
        else:
            d = data.draw(st.integers(min_value=2, max_value=10**9))
            y = data.draw(st.integers(min_value=1, max_value=d - 1))
        runs.append((data.draw(st.integers(min_value=0, max_value=2)), base - y, base - y + d))
        heights.append(Fraction(y, d))
    ks, first, hit = _run_ks(runs, base * rden, rden, l, n)
    assert ks == [int(h * (1 << l * n)) for h in heights]
    # the first depth j <= n past c at which some h 2**(l j) is an integer
    hits = [(j, i) for i, h in enumerate(heights) for j in range(1, n + 1)
            if (h * (1 << l * j)).denominator == 1]
    assert (first, hit) == min(hits, default=(n + 1, None))


def test_weights_are_the_blocks_spans():
    for l in range(1, 7):
        top = (1 << l) - 1
        for k in range(top + 1):
            spans = _blocks(l)[k][2]
            for e in range(top + 1):
                assert _weight(l, k, e) == next((w for _, w, lines in spans if e in lines), 0)


@given(run_digits(max_l=8), st.integers(min_value=0, max_value=40), st.data())
@settings(max_examples=400, deadline=None)
def test_run_weights_and_last_digits_match_the_block_loop(case, size, data):
    # a chain may read fewer digits than K holds, or more (leading zeros)
    l, digits = case
    top = (1 << l) - 1
    ks = [spelled(digits, l)] + [data.draw(st.integers(min_value=0, max_value=(1 << l * 40) - 1))
                                 for _ in range(data.draw(st.integers(min_value=0, max_value=3)))]
    assert _run_weights(ks, l, size) == [oracle_run_weights(k, l, size) for k in ks]
    assert _last_digits(ks, l) == [_digits(k, l, 1)[0] for k in ks]
    assert _run_weights([], l, size) == [] == _last_digits([], l)
    # the closed form itself: each zero digit adds 1 and a factor 2**l + 1,
    # each mixed digit 1 and a factor 2, the ones digit nothing
    chain = _digits(ks[0], l, size)
    zeros, mixed = chain.count(0), sum(0 < d < top for d in chain)
    assert _run_weights(ks[:1], l, size) == [(zeros + mixed, (top + 2) ** zeros * 2 ** mixed)]
