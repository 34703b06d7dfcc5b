"""Synthetic clip generators: argument checks shared by every kind."""

import pytest

from gentac.fixtures import FIXTURE_KINDS


@pytest.mark.parametrize("kind", sorted(FIXTURE_KINDS))
@pytest.mark.parametrize("n_players", [0, -1])
def test_generators_reject_a_scene_without_players(kind, n_players):
    # two-style-league used to fail on "Mean of empty slice"; the other kinds
    # returned clips holding only a ball
    with pytest.raises(ValueError) as err:
        FIXTURE_KINDS[kind](1, n_players=n_players)
    assert str(err.value) == \
        f"n_players={n_players} leaves the teams with no players"
