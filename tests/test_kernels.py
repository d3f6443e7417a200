"""Word kernels against their definitions on randomized inputs."""

from hypothesis import given
from hypothesis import strategies as st

import orelab
from orelab import _kernels

letters_strategy = st.lists(st.integers(0, 40), min_size=1, max_size=60).map(tuple)


def test_backend_reported():
    assert orelab.kernel_backend == "pure"


@given(letters_strategy, st.data())
def test_compare_ranges_matches_compare_of_slices(letters, data):
    n = len(letters)
    alo = data.draw(st.integers(0, n - 1))
    ahi = data.draw(st.integers(alo + 1, n))
    blo = data.draw(st.integers(0, n - 1))
    bhi = data.draw(st.integers(blo + 1, n))
    assert _kernels.compare_ranges(letters, alo, ahi, blo, bhi) == \
        _kernels.compare(letters[alo:ahi], letters[blo:bhi])


def test_big_letters_stay_exact():
    big = (1 << 61, 0, 1 << 61)
    assert _kernels.weight(big) == 3 * (1 << 61)  # sorted (0, B, B) . (3, 2, 1)
    assert _kernels.compare((1 << 70, 2), (1 << 70, 3)) == -1
    # runs of letters <= 0 and <= 1 have length 1 < 2; 2^65 > n covers the rest
    assert _kernels.b_bounded((0, 1 << 70), (2, 1 << 65), True) == 1
    # the run of letters <= 2^70 is the whole word, and the tail 2 <= 3
    assert _kernels.b_bounded((0, 1 << 70, 0), (2, 2), True) == 0
    assert _kernels.b_bounded((0, 1 << 70), (2, 1 << 65), False) == -1
