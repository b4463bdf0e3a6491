"""Fuzzy kernels: scalar spec vs plain DP, batch engine vs scalar spec."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from address_address_matching_ray.functions import fuzzy


def dp_lcs(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    dp = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la):
        for j in range(lb):
            dp[i + 1][j + 1] = dp[i][j] + 1 if a[i] == b[j] else max(dp[i][j + 1], dp[i + 1][j])
    return dp[la][lb]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab1 #-", max_size=70), st.text(alphabet="ab1 #-", max_size=70))
def test_lcs_bitparallel_matches_dp(a, b):
    assert fuzzy.lcs_len(a, b) == dp_lcs(a, b)


def test_batch_lcs_matches_scalar():
    rng = random.Random(7)
    alpha = "abcdef 0123#-/"
    A = ["".join(rng.choice(alpha) for _ in range(rng.randint(0, 100))) for _ in range(400)]
    B = ["".join(rng.choice(alpha) for _ in range(rng.randint(0, 100))) for _ in range(400)]
    got = fuzzy.batch_lcs_len(A, B)
    want = np.array([dp_lcs(a, b) for a, b in zip(A, B)])
    assert (got == want).all()


def test_ratio_semantics():
    # rapidfuzz fuzz.ratio boundary behavior
    assert fuzzy.ratio("", "") == 100.0
    assert fuzzy.ratio("", "a") == 0.0
    assert fuzzy.ratio("abc", "abc") == 100.0
    assert fuzzy.ratio("ab", "ba") == pytest.approx(50.0)
    # indel: 2*LCS/(la+lb)
    assert fuzzy.ratio("kitten", "sitting") == pytest.approx(200 * 4 / 13)


def test_token_sort_and_partial():
    assert fuzzy.token_sort_ratio("berry st 55", "55 berry st") == 100.0
    assert fuzzy.partial_ratio("brook", "brooklyn") == 100.0
    assert fuzzy.partial_ratio("", "") == 100.0
    assert fuzzy.partial_ratio("", "x") == 0.0
    assert fuzzy.partial_ratio("ny", "nyc") == 100.0


def test_batch_wrappers_match_scalars():
    A = ["55 berry st", "", "brooklyn", "112 bedford ave apt 3r", "x" * 80]
    B = ["berry st 55", "", "brooklyn ny", "112 bedford avenue #3r", "x" * 30 + "y" * 40]
    assert np.allclose(fuzzy.batch_ratio(A, B), [fuzzy.ratio(a, b) for a, b in zip(A, B)])
    assert np.allclose(fuzzy.batch_token_sort_ratio(A, B),
                       [fuzzy.token_sort_ratio(a, b) for a, b in zip(A, B)])
    assert np.allclose(fuzzy.batch_partial_ratio(A, B),
                       [fuzzy.partial_ratio(a, b) for a, b in zip(A, B)])


def test_jaccard():
    assert fuzzy.jaccard(["a", "b"], ["b", "a"]) == 100.0
    assert fuzzy.jaccard([], []) == 100.0
    assert fuzzy.jaccard(["a"], ["b"]) == 0.0
    assert fuzzy.jaccard(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(50.0)


def test_jaro_winkler():
    assert fuzzy.jaro_winkler("martha", "martha") == 100.0
    assert fuzzy.jaro_winkler("martha", "marhta") == pytest.approx(96.111, abs=0.01)
    assert fuzzy.jaro_winkler("", "abc") == 0.0
    assert fuzzy.jaro_winkler("dixon", "dicksonx") == pytest.approx(81.333, abs=0.01)


def test_batch_ratio_non_latin():
    """Non-Latin scripts (Hangul/CJK/astral emoji) must score, not
    crash, and must equal the scalar spec (regression: int16/utf-16
    encoding sent code points >= U+8000 negative and crashed)."""
    import numpy as np
    from address_address_matching_ray.functions import fuzzy

    pairs = [("서울특별시 강남구", "서울특별시 강남"),
             ("東京都渋谷区", "東京都新宿区"),
             ("😀 hello there", "😀 hello here"),
             ("café au lait", "cafe au lait"),
             ("москва тверская", "москва тверская 7")]
    A = [a for a, _ in pairs] + ["plain ascii text", ""]
    B = [b for _, b in pairs] + ["plain ascii text", "x"]
    got = fuzzy.batch_ratio(A, B)
    exp = [fuzzy.ratio(a, b) for a, b in zip(A, B)]
    np.testing.assert_allclose(got, exp, atol=1e-9)


def test_batch_set_jaccard_matches_scalar_spec():
    """Vectorized dedup-verify kernel ≡ scalar jaccard(tokenize(a),
    tokenize(b)) on randomized corpora incl. empty/unicode/repeated
    docs (the batch path factorizes distinct docs — repeats exercise
    the CSR reuse)."""
    import random

    import numpy as np

    from address_address_matching_ray.functions.fuzzy import jaccard
    from address_address_matching_ray.functions.minhash import (
        batch_set_jaccard,
    )
    from address_address_matching_ray.functions.textstats import char_ngrams

    rng = random.Random(7)
    vocab = ["alpha", "beta", "gamma", "δélta", "eps", "zeta", "", "xx"]
    docs = [" ".join(rng.choices(vocab, k=rng.randint(0, 10)))
            for _ in range(12)] + ["", " "]
    for _ in range(50):
        l = [rng.choice(docs) for _ in range(23)]
        r = [rng.choice(docs) for _ in range(23)]
        got = batch_set_jaccard(l, r, str.split)
        want = np.array([jaccard(a.split(), b.split())
                         for a, b in zip(l, r)])
        assert np.allclose(got, want)
        got_n = batch_set_jaccard(l, r, lambda t: char_ngrams(t, 3))
        want_n = np.array([jaccard(char_ngrams(a, 3), char_ngrams(b, 3))
                           for a, b in zip(l, r)])
        assert np.allclose(got_n, want_n)
    assert batch_set_jaccard([], [], str.split).shape == (0,)


def test_partial_ratio_block_anchored_parity():
    """rapidfuzz's short-needle window set, incl. the cases a
    full-window-only slide gets wrong (published rapidfuzz values)."""
    import numpy as np

    from address_address_matching_ray.functions import fuzzy

    # best alignment of "ab" in "ba" is the 1-char suffix/prefix "b"
    assert abs(fuzzy.partial_ratio("ab", "ba") - 200.0 / 3) < 1e-9
    assert fuzzy.partial_ratio("this is a test",
                               "this is a test!") == 100.0
    assert fuzzy.partial_ratio("similar", "somewhat similar") == 100.0
    # symmetric
    assert (fuzzy.partial_ratio("ba", "ab")
            == fuzzy.partial_ratio("ab", "ba"))
    # batch path enumerates the same windows
    A = ["ab", "brook", "ny", "xyz", "", "springfield"]
    B = ["ba", "brooklyn", "nyc", "abc", "", "sprngfield il"]
    assert np.allclose(fuzzy.batch_partial_ratio(A, B),
                       [fuzzy.partial_ratio(a, b) for a, b in zip(A, B)])


def test_partial_ratio_windows_never_below_full_slide():
    """The enriched window set is a superset of full-length windows, so
    scores can only go up vs the round-3 implementation."""
    import random

    from address_address_matching_ray.functions import fuzzy

    rng = random.Random(11)
    alpha = "abcdef "
    for _ in range(300):
        a = "".join(rng.choices(alpha, k=rng.randint(0, 10)))
        b = "".join(rng.choices(alpha, k=rng.randint(0, 14)))
        if not a or not b:
            continue
        s, l = (a, b) if len(a) <= len(b) else (b, a)
        full_only = max(
            (fuzzy.ratio(s, l[i:i + len(s)])
             for i in range(len(l) - len(s) + 1)), default=0.0)
        assert fuzzy.partial_ratio(a, b) >= full_only - 1e-9


def test_kernel_calls_bounded_by_kernel_pairs():
    """``apply_indexed`` feeds a kernel at most ``KERNEL_PAIRS`` distinct
    pairs per call, and its results equal one unchunked call, over more
    than twice that many distinct pairs (with repeats)."""
    import numpy as np

    bound = fuzzy.KERNEL_PAIRS
    a = np.array([f"{i} berry st" for i in range(150)], dtype=object)
    b = np.array([f"apt {j}b" for j in range(70)], dtype=object)
    rng = np.random.default_rng(7)
    ai = np.concatenate([np.repeat(np.arange(150), 70), rng.integers(0, 150, 500)])
    bi = np.concatenate([np.tile(np.arange(70), 150), rng.integers(0, 70, 500)])
    assert len(set(zip(ai, bi))) == 150 * 70 > 2 * bound
    sizes = []

    def kernel(xs, ys):
        sizes.append(len(xs))
        return fuzzy.batch_ratio(xs, ys)

    got = fuzzy.apply_indexed(kernel, a, ai, b, bi)
    assert max(sizes) <= bound and sum(sizes) == 150 * 70
    want = fuzzy.batch_ratio(list(a[ai]), list(b[bi]))
    assert np.array_equal(got, want)
    assert np.array_equal(fuzzy.apply_unique_pairs(kernel, a[ai], b[bi]), want)
