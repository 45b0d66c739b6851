"""The numpy random streams that the golden files and pinned hashes rest on.

numpy's stream policy (NEP 19) keeps ``default_rng(seed)``'s bit generator
stable, but lets a ``Generator`` method change the values it draws from
those bits in any feature release.  ``pyproject.toml`` allows
``numpy>=1.24``, while every golden file was made with numpy 2.4.6.  So
each ``Generator`` method the program calls is pinned here, once, in the
form the program calls it: a numpy upgrade that moves a golden file fails
the test named after the method that moved.
"""

import ast
import pathlib

import numpy as np
import pytest

SRC = pathlib.Path(__file__).parents[1] / "src"
SEED = 20240607


def _random_out(rng):
    out = np.empty(3)
    rng.random(out=out)
    return out


def _permuted(rng):
    universe = np.arange(8).reshape(2, 4)
    rng.permuted(universe, axis=1, out=universe)
    return universe


# method -> (draws from default_rng(SEED), the values numpy 2.4.6 gives)
PINS = {
    "random": (lambda rng: [rng.random(3), _random_out(rng)], [
        [0.13377582482868344, 0.4093016413203383, 0.47913361337880767],
        [0.8537254587407795, 0.6438938494845718, 0.1116821029240519]]),
    "integers": (lambda rng: [
        rng.integers(0, 1000, size=4), rng.integers(7),
        rng.integers(0, 2 ** 61 - 1, size=(2, 1), dtype=np.int64)], [
        [634, 133, 669, 409], 6,
        [[1968556880825180415], [1484718131509694533]]]),
    "permutation": (lambda rng: [rng.permutation(8)],
                    [[5, 7, 6, 2, 3, 4, 0, 1]]),
    "permuted": (lambda rng: [_permuted(rng)], [[[3, 2, 0, 1], [4, 5, 6, 7]]]),
    "binomial": (lambda rng: [rng.binomial(50, np.array([0.1, 0.5, 0.9]))],
                 [[3, 24, 45]]),
    "poisson": (lambda rng: [rng.poisson(3.5),
                             rng.poisson(np.array([0.5, 20.0, 1e3]))],
                [2, [1, 13, 981]]),
    "standard_normal": (lambda rng: [rng.standard_normal((2, 2))], [
        [[-0.08552001807748738, -0.42878573752306764],
         [-2.8734865022264633, 3.2451613070070113]]]),
    "choice": (lambda rng: [rng.choice(20, size=5, replace=False)],
               [[7, 2, 17, 10, 12]]),
}

GENERATOR_METHODS = {name for name in dir(np.random.Generator)
                     if not name.startswith("_")}


def generator_methods_called(source: str) -> set:
    """The ``Generator`` method names that ``source`` calls as attributes."""
    return {node.func.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in GENERATOR_METHODS}


@pytest.mark.parametrize("method", sorted(PINS))
def test_stream_is_pinned(method):
    draw, values = PINS[method]
    got = draw(np.random.default_rng(SEED))
    assert [np.asarray(x).tolist() for x in got] == values


def test_every_generator_method_the_program_calls_is_pinned():
    called = set().union(*(generator_methods_called(path.read_text())
                           for path in SRC.rglob("*.py")))
    assert "random" in called
    assert called <= set(PINS)


def test_the_check_sees_a_generator_method():
    source = ("import numpy as np\nrng = np.random.default_rng(1)\n"
              "x = rng.multinomial(4, [0.5, 0.5]) + rng.random()\n"
              "y = x.sum()\n")
    assert generator_methods_called(source) == {"multinomial", "random"}
