"""Metamorphic relations of the recognized set.

Messages never change a transition and only automaton 1 decides
acceptance, so the language of a system is automaton 1's own language.
``recognized_set`` must therefore give the same set when the message
bound M grows to M + 2, when it drops to 1, and when automaton 1 runs
alone, although each of these changes which phases the extraction builds.
"""

import random

import pytest

from multiauto import cli, construction as C
from multiauto.model import MultiSystem

from conftest import FIXTURE_NAMES, load_fixture

FUZZ_SEED = 20240817
FUZZ_COUNT = 40  # the systems of the benchmark's fuzz workload


def _systems():
    rng = random.Random(FUZZ_SEED)
    fuzz = [cli.generate_system(rng, 4, 3, 3) for _ in range(FUZZ_COUNT)]
    return [(name, load_fixture(name)) for name in FIXTURE_NAMES] + [
        (f"fuzz-{i}", system) for i, system in enumerate(fuzz)
    ]


def _variants(system):
    m = system.message_bound
    yield "M+2", MultiSystem(system.automata, m + 2)
    yield "M=1", MultiSystem(system.automata, 1)
    yield "alone", MultiSystem(system.automata[:1], m)


@pytest.mark.parametrize("system", [pytest.param(s, id=name) for name, s in _systems()])
def test_language_is_automaton_one_s_own(system):
    want = C.recognized_set(system)
    for relation, variant in _variants(system):
        assert C.recognized_set(variant.validate()) == want, relation
