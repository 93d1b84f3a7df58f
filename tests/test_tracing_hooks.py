"""The benchmark's tracer wraps sgident functions by name; a rename in the
package must fail here, not only in traced benchmark runs."""

import importlib.util
from pathlib import Path

from sgident import checker, polynomials
from sgident.semirings import semiring_from_spec
from sgident.words import Identity

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_names_an_attribute_of_its_owner():
    tracing = load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.HOOKS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_the_build_cache_the_tracer_reads_is_the_one_check_ut_calls():
    # the tracer counts builds and cache hits from this cache_info()
    assert checker.build_f_canonical is polynomials.build_f_canonical
    info = polynomials.build_f_canonical.cache_info()
    assert info.maxsize == 8192 and info.currsize <= info.maxsize


def test_a_check_past_the_exhaustive_cap_gives_a_sampled_span():
    tracing = load_tracing()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.HOOKS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # a(ab)^2c = a(ab)^8c over nat:2,3: 5^9 assignments at |u| = 2, so u =
        # aa is sampled, and separated
        verdict = checker.check_UT(Identity("aababc", "a" + "ab" * 8 + "c"), 3, semiring_from_spec("nat:2,3"))
    finally:
        tracer.uninstall()
    assert verdict.is_fails and verdict.distinguishing_u == "aa"
    names = [span[0] for span in tracer.spans]
    assert names[0] == "checker.check_UT"
    assert names.count("polynomials.sampled") == 1
    assert "polynomials.exhaustive" in names
    assert tracing.layer_metrics(tracer)["polynomials.sampled_s"]["value"] > 0
    # uninstall puts every original back
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.HOOKS] == originals
