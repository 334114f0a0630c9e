"""The package namespace re-exports each module's ``__all__``, and nothing
else: the modules' lists are the one declaration of the public API. A name,
or a public method or property of a public class, stays public only if a
claim reaches it: a command, a ``validate`` line or an acceptance
criterion."""

import inspect
import os
import sys

import eebounds
import test_acceptance
from eebounds import binary, cli, finite, numerics, simulate, spherical

MODULES = (numerics, binary, spherical, finite, simulate)

# One run of each command per channel or simulation kind, small; simulate on
# one worker keeps every call on the profiled thread. validate runs the check
# of every claim in ``cli._CLAIMS``.
COMMANDS = (
    ["curve", "--channel", "bsc", "--p", "0.07", "--tau", "0.03", "--rmin", "0.02", "--rmax",
     "0.62", "--steps", "20"],
    ["curve", "--channel", "awgn", "--snr", "2", "--tau", "0.03", "--rmin", "0.05", "--rmax",
     "0.5", "--steps", "12"],
    ["landmarks", "--channel", "bsc", "--p", "0.07", "--tau", "0.03"],
    ["landmarks", "--channel", "awgn", "--snr", "4", "--tau", "0.02"],
    ["finite-bound", "--channel", "bsc", "--p", "0.07", "--n", "256", "--rate", "0.3", "--t", "2"],
    ["finite-bound", "--channel", "awgn", "--snr", "4", "--tau", "0.02", "--n", "64", "--rate",
     "0.3", "--units", "nats"],
    ["simulate", "--kind", "bsc", "--n", "12", "--k", "5", "--p", "0.05", "--t", "1", "--trials",
     "2000", "--seed", "1", "--workers", "1"],
    ["simulate", "--kind", "awgn", "--n", "8", "--M", "16", "--snr", "2", "--tau", "0.05",
     "--trials", "2000", "--seed", "1", "--workers", "1"],
    ["simulate", "--kind", "cone", "--n", "20", "40", "80", "--snr", "4", "--phi", "0.55",
     "--trials", "2000", "--seed", "1", "--workers", "1"],
    ["validate"],
)
# The acceptance criteria on public functions and methods that no command calls.
CRITERIA = (
    test_acceptance.test_criterion_04_erasure_bound_nontriviality,  # nontrivial_rate_threshold
    test_acceptance.test_criterion_08_profile_oracle_equivalence,  # profile_exponent
    test_acceptance.test_criterion_12_detection_limit_asymptotics,  # undetected_error_exponent
    test_acceptance.test_criterion_14_gv_profile_specific_code_bound,  # specific_code_bound
    test_acceptance.test_criterion_15_golay_bpsk_union_bound,  # SphericalCodebook.binary
)


def called_code(run):
    """The code object of every Python function called on this thread while
    ``run`` runs. Each cache of the package is emptied first: a cache hit runs
    none of the cached function's code, nor what that code calls."""
    for mod in MODULES:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return codes


def test_all_is_the_modules_lists():
    assert eebounds.__all__ == [name for mod in MODULES for name in mod.__all__]
    assert len(set(eebounds.__all__)) == len(eebounds.__all__)


def test_every_name_is_its_modules_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(eebounds, name) is getattr(mod, name), (mod.__name__, name)
    assert eebounds.delta_gv is binary.delta_gv


def test_awgn_union_bound_has_no_node_count_parameter():
    assert "quad_points" not in inspect.signature(finite.awgn_union_bound).parameters


def public_code(obj, name):
    """(name, code object) of a public function, or of each public method and
    property that the body of a public class defines: the names without a
    leading underscore, which leaves out all that dataclass and NamedTuple
    generate. A class method's code is its function's; a property's, its
    getter's."""
    if not inspect.isclass(obj):
        return [(name, inspect.unwrap(obj).__code__)]
    members = []
    for attr, value in vars(obj).items():
        fn = value.fget if isinstance(value, property) else getattr(value, "__func__", value)
        if not attr.startswith("_") and inspect.isfunction(fn):
            members.append((f"{name}.{attr}", fn.__code__))
    return members


def test_every_public_function_reaches_a_claim():
    def run():
        for argv in COMMANDS:
            assert cli.main(argv + ["--out", os.devnull]) == 0, argv
        for criterion in CRITERIA:
            criterion()

    codes = called_code(run)
    public = [pair for name in eebounds.__all__
              for pair in public_code(getattr(eebounds, name), name)]
    missed = [name for name, code in public if code not in codes]
    assert not missed, f"public functions and methods that no claim reaches: {missed}"
