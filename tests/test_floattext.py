"""floattext.rows_text against its oracle, the per-value repr loop."""

import builtins
import inspect
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pacsim import WignerGrid, cli, default_signal_dim, floattext, pacs_state, wigner
from pacsim.cli import wigner_grid_lines
from pacsim.floattext import rows_text


def oracle(block: np.ndarray) -> str:
    return "".join(" ".join(map(repr, row.tolist())) + "\n" for row in block)


def assert_matches(values, width: int = 64) -> None:
    """rows_text equals the oracle on ``values`` laid out ``width`` to a row."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % width)])
    block = values.reshape(-1, width)
    got, want = rows_text(block), oracle(block)
    if got != want:  # name the first value that differs, not the whole text
        pairs = zip(got.split(), want.split())
        raise AssertionError(next(f"{g} != {w}" for g, w in pairs if g != w))


@pytest.fixture
def repr_calls(monkeypatch):
    """The values rows_text hands to repr, its fallback."""
    calls = []

    def counted(value):
        calls.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(floattext, "repr", counted, raising=False)
    return calls


def test_random_bit_patterns():
    """2^20 uniformly random doubles of both signs: every exponent, subnormals too."""
    bits = np.random.default_rng(20).integers(0, 2**64, size=2**20, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_matches(values[np.isfinite(values)], width=512)


def test_random_mantissas_across_decades():
    rng = np.random.default_rng(21)
    size = 2**18
    values = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-30, 21, size)
    assert_matches(values * rng.choice([-1.0, 1.0], size), width=256)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_any_finite_block(block):
    assert rows_text(block) == oracle(block)


def test_special_values():
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    # each power's neighbours: a log10 estimate one decade off, asymmetric intervals
    near = np.concatenate([np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    fixed = [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 0.3, 2 / 3,
        1e-5, 1e-4, 9.999999999999999e15, 1e16, 1e22, 123456789012345678.0, 9.95,
    ]
    values = np.concatenate([fixed, powers, near])
    assert_matches(np.concatenate([values, -values]))


def test_non_finite_values():
    block = np.array([[np.nan, np.inf, -np.inf, 1.5]])
    assert rows_text(block) == oracle(block) == "nan inf -inf 1.5\n"


def test_row_layout():
    """Rows end in a newline, values within a row are space-separated."""
    block = np.array([[1.0, -0.5, 1e-5], [123.0, 1e16, -2.5e-300]])
    assert rows_text(block) == "1.0 -0.5 1e-05\n123.0 1e+16 -2.5e-300\n"
    assert rows_text(np.zeros((3, 0))) == "\n\n\n"
    assert rows_text(np.zeros((0, 4))) == ""


@pytest.mark.parametrize(
    "alpha, m, extent, step, fallbacks", [(2.0, 1, 10.0, 0.05, 13), (1.0, 2, 8.0, 0.04, 9)]
)
def test_phase_space_benchmark_grids(repr_calls, alpha, m, extent, step, fallbacks):
    """Both benchmark grids' files, byte for byte; repr formats only the
    centred x axis' 0.0 and powers of two, and no grid value: the p axis
    equals the x axis bit for bit, so its header is the x header's text."""
    psi = pacs_state(alpha, m, default_signal_dim(alpha, m)).amplitudes
    grid = wigner(np.outer(psi, psi.conj()), extent, step)
    text = "".join(wigner_grid_lines(grid))
    assert len(repr_calls) == fallbacks
    special = [v for v in grid.x_axis.tolist() if v == 0.0 or abs(math.frexp(v)[0]) == 0.5]
    assert repr_calls == special  # the x header's alone
    head = "# wigner grid\n# x: " + oracle(grid.x_axis[None, :]) + "# p: " + oracle(
        grid.p_axis[None, :]
    )
    assert text == head + oracle(grid.values)


def benchmark_grid(alpha, m, extent, step):
    psi = pacs_state(alpha, m, default_signal_dim(alpha, m)).amplitudes
    return wigner(np.outer(psi, psi.conj()), extent, step)


def grid_oracle(grid) -> str:
    head = "# wigner grid\n# x: " + oracle(grid.x_axis[None, :])
    return head + "# p: " + oracle(grid.p_axis[None, :]) + oracle(grid.values)


WIDTH = 401


@pytest.mark.parametrize(
    "block", [1, WIDTH - 1, WIDTH, WIDTH + 1, cli._BLOCK_VALUES],
    ids=["1", "width-1", "width", "width+1", "default"],
)
def test_chunking_never_changes_the_bytes(monkeypatch, block):
    """However wigner_grid_lines cuts a grid into blocks of rows (one row a
    block where a row is wider than a block, else blocks within one row of
    each other in size), its text is the oracle's: a 60-row grid, and a
    401-row one whose axes are equal bit for bit, as analysis.wigner's are,
    so that its p header is the x header's text."""
    bits = np.random.default_rng(23).integers(0, 2**64, size=62 * WIDTH, dtype=np.uint64)
    values = bits.view(np.float64)
    grid = WignerGrid(x_axis=values[:60], p_axis=values[60:60 + WIDTH],
                      values=values[2 * WIDTH:].reshape(60, WIDTH))
    assert grid.values.size > cli._BLOCK_VALUES
    bits = np.random.default_rng(25).integers(0, 2**64, size=(WIDTH + 1) * WIDTH, dtype=np.uint64)
    values = bits.view(np.float64)
    square = WignerGrid(x_axis=values[:WIDTH], p_axis=values[:WIDTH].copy(),
                        values=values[WIDTH:].reshape(WIDTH, WIDTH))
    monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
    for g in (grid, square):
        chunks = list(wigner_grid_lines(g))
        assert "".join(chunks) == grid_oracle(g)
        rows = [chunk.count("\n") for chunk in chunks[3:]]
        most = max(1, block // WIDTH)
        assert max(rows) - min(rows) <= 1 and max(rows) <= most
        assert len(rows) == -(-len(g.values) // most)


def palindromes(left: np.ndarray, width: int) -> np.ndarray:
    """Rows of ``width`` values whose first ceil(width / 2) are ``left``'s
    and whose rest mirror them, bit for bit."""
    half = (width + 1) // 2
    left = left.reshape(-1, half)
    return np.concatenate([left, left[:, :width - half][:, ::-1]], axis=1)


@pytest.mark.parametrize("width", [1, 2, 3, 400, 401])
def test_palindromic_rows(width):
    """Blocks whose rows are bitwise palindromes, as a real state's grid is in
    p, against the oracle: random bits of every exponent, NaNs and
    subnormals, with repr's fallbacks (zeros, powers of two, inf, values
    beyond the fast range) in the formatted half and on the centre column."""
    half = (width + 1) // 2
    bits = np.random.default_rng(width).integers(0, 2**64, size=8 * half, dtype=np.uint64)
    left = bits.view(np.float64).copy()
    left[::7] = np.resize([0.0, -0.0, 2.0**-47, np.inf, -1e300, 5e-324, np.nan], left[::7].size)
    left[half - 1] = 0.0
    block = palindromes(left, width)
    assert np.array_equal(block.view(np.uint64), block.view(np.uint64)[:, ::-1])
    assert rows_text(block) == oracle(block)


@pytest.mark.parametrize(
    "row, calls",
    [
        ([0.0, 1.5, 0.0], [0.0]),  # a palindrome: its mirrored half is copied
        ([0.0, 1.5, -0.0], [0.0, -0.0]),  # equal values, different bits
        ([-0.0, 2.0, 2.0, 0.0], [-0.0, 2.0, 2.0, 0.0]),
    ],
)
def test_signed_zeros_break_a_palindrome(repr_calls, row, calls):
    """A row is mirrored only when its bits are: -0.0 against 0.0 is
    formatted on both sides."""
    block = np.array([row])
    assert rows_text(block) == oracle(block)
    assert repr_calls == calls


def test_nan_payloads_break_a_palindrome(repr_calls):
    """Two NaNs with different payloads are not a mirror of each other."""
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002], np.uint64).view(np.float64)
    block = np.array([[nans[0], 1.5, nans[1]], [nans[0], 1.5, nans[0]]])
    assert rows_text(block) == oracle(block) == "nan 1.5 nan\nnan 1.5 nan\n"
    assert len(repr_calls) == 4  # both NaNs of each row: the block is not mirrored


@pytest.mark.parametrize("block", [1, WIDTH - 1, WIDTH + 1, cli._BLOCK_VALUES])
def test_chunks_of_partly_palindromic_grids(monkeypatch, block):
    """A grid whose rows are palindromes except a few, cut into blocks that
    hold none, some or all of the others, is the oracle's text."""
    bits = np.random.default_rng(24).integers(0, 2**64, size=60 * 201, dtype=np.uint64)
    values = palindromes(bits.view(np.float64), WIDTH)
    values[[7, 41, 59], [0, 200, 400]] = [1.5, -0.0, 2.5]
    axis = np.linspace(-1.0, 1.0, WIDTH)
    grid = WignerGrid(x_axis=axis[:60], p_axis=axis, values=values)
    monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
    assert "".join(wigner_grid_lines(grid)) == grid_oracle(grid)


def test_block_temporaries_stay_within_the_stated_bytes():
    """rows_text on one default block of the pacs:2,1 benchmark grid traces
    no more bytes a value than the comment on cli._BLOCK_VALUES states."""
    source = inspect.getsource(cli)
    comment = source[:source.index("\n_BLOCK_VALUES =")].rsplit("\n\n", 1)[1]
    stated = int(re.search(r"below (\d+) bytes a value", comment).group(1))
    values = benchmark_grid(2.0, 1, 10.0, 0.05).values
    block = values[:cli._BLOCK_VALUES // values.shape[1]]
    rows_text(block)  # the tables are built before tracing
    tracemalloc.start()
    try:
        rows_text(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= stated * block.size


def test_no_table_at_import(run_python):
    """No decade of 10^p and no table of 10^j is built when pacsim is
    imported; a block fills the decades of its values and no others."""
    result = run_python(
        "-c",
        "import numpy as np, pacsim.cli, pacsim.floattext as f\n"
        "print(f._FILLED.any(), f._int_pow10.cache_info().currsize)\n"
        "f.rows_text(np.array([[1.5, -2.5e-5, 3e200], [0.0, 7.25, -1.5]]))\n"
        "print(*sorted(i if i <= f._E10_MAX else i - f._FILLED.size\n"
        "              for i in np.flatnonzero(f._FILLED).tolist()))",
    )
    assert result.stdout.split() == ["False", "0", "-5", "0", "200"]


def test_power_table_is_exact():
    """Every decade's hi is 10^(16 - e10) correctly rounded and lo the
    rounded rest, whichever blocks filled them and in whatever order."""
    floattext._pow10(np.arange(floattext._E10_MAX, floattext._E10_MIN - 1, -1))
    hi, hi_hi, hi_lo, lo = floattext._POW10
    assert floattext._FILLED.all()
    for e10 in range(floattext._E10_MIN, floattext._E10_MAX + 1):
        exact = Fraction(10) ** (16 - e10)
        assert hi[e10] == float(exact)
        assert lo[e10] == float(exact - Fraction(hi[e10]))
    assert np.array_equal(hi_hi + hi_lo, hi)
    low_bits = np.uint64((1 << 26) - 1)  # hi_hi has at most 26 significant bits
    assert not np.any(hi_hi.view(np.uint64) & low_bits)
