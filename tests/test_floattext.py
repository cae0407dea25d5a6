"""floattext.rows_text against its oracle, the per-value repr loop."""

import builtins

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pacsim import default_signal_dim, floattext, pacs_state, wigner
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
    "alpha, m, extent, step, fallbacks", [(2.0, 1, 10.0, 0.05, 0), (1.0, 2, 8.0, 0.04, 4)]
)
def test_phase_space_benchmark_grids(repr_calls, alpha, m, extent, step, fallbacks):
    """Both benchmark grids' files, byte for byte; repr formats only the axis
    values -8.0 and 2^-47 of pacs:1,2, powers of two, and no grid value."""
    grid = wigner(pacs_state(alpha, m, default_signal_dim(alpha, m)), extent, step)
    text = "".join(wigner_grid_lines(grid))
    assert len(repr_calls) == fallbacks
    head = "# wigner grid\n# x: " + oracle(grid.x_axis[None, :]) + "# p: " + oracle(
        grid.p_axis[None, :]
    )
    assert text == head + oracle(grid.values)


def test_no_table_at_import(run_python):
    """The 10^p table is built on the first call, not when pacsim is imported."""
    result = run_python(
        "-c",
        "import pacsim.cli, pacsim.floattext as f; print(f._pow10.cache_info().currsize)",
    )
    assert result.stdout.split() == ["0"]
