"""The package's public names: each is declared once, in its own module's ``__all__``,
and ``gmdinfo`` re-exports those lists."""

import importlib

import gmdinfo

MODULES = ("empirical", "errors", "identities", "measures", "models", "population", "pwm",
           "quadrature")
#: one-spec forwarders, replaced by measure_sample and measure_population, and the premia's
#: order-statistic route, replaced by their PWM form in measure_sample
REMOVED = {"s_gini", "crj", "ce", "cj", "crjw", "wce", "crt", "ct", "wcrt", "wct", "sr", "sp",
           "srw", "spw", "j_dyn_population", "h_dyn_population", "gmd_left_population",
           "gmd_right_population", "risk_premium", "gain_premium", "expected_min_of_k",
           "expected_max_of_k"}


def declared():
    """(module, name) for each name in each module's __all__."""
    modules = [importlib.import_module(f"gmdinfo.{m}") for m in MODULES]
    return [(module, name) for module in modules for name in module.__all__]


def test_names_are_unique_and_resolve():
    assert len(gmdinfo.__all__) == len(set(gmdinfo.__all__))
    for name in gmdinfo.__all__:
        assert hasattr(gmdinfo, name), name


def test_names_are_the_modules_own_lists():
    names = [name for _, name in declared()]
    assert len(names) == len(set(names))  # no name is declared by two modules
    assert set(gmdinfo.__all__) == {"__version__", *names}
    for module, name in declared():
        assert getattr(gmdinfo, name) is getattr(module, name), name


def test_one_spec_forwarders_are_gone():
    assert not REMOVED & set(gmdinfo.__all__)
    assert not [name for name in REMOVED if hasattr(gmdinfo, name)]
