"""The package loads ``finite`` and ``simulate`` on first use: a command
imports only the modules it runs, and the facade still re-exports every
name of the five modules' ``__all__``. Each import check runs in a fresh
interpreter, since this one has loaded everything already."""

import os
import subprocess
import sys

import pytest

import eebounds

# Printed by a probe after its code ran: which of these modules it loaded.
WATCHED = ("eebounds.finite", "eebounds.simulate", "concurrent.futures")
REPORT = f"import sys; print(sorted(m for m in {WATCHED!r} if m in sys.modules))"


def fresh(code):
    """stdout of ``code`` run in a new interpreter that imports this eebounds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eebounds.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def loaded_by_commands(*argvs):
    """The watched modules loaded by running ``eebounds.cli.main`` on each argv."""
    runs = "; ".join(f"main({argv!r} + ['--out', os.devnull])" for argv in argvs)
    return fresh(f"import os; from eebounds.cli import main; {runs}; {REPORT}")


@pytest.mark.parametrize("channel, flags", [
    ("bsc", ["--p", "0.07", "--tau", "0.03"]),
    ("awgn", ["--snr", "4", "--tau", "0.02"]),
])
def test_asymptotic_commands_load_neither_lazy_module(channel, flags):
    curve = ["curve", "--channel", channel, *flags, "--rmin", "0.05", "--rmax", "0.5", "--steps", "6"]
    landmarks = ["landmarks", "--channel", channel, *flags]
    assert loaded_by_commands(curve, landmarks) == "[]"


def test_finite_bound_loads_finite_but_not_simulate():
    bsc = ["finite-bound", "--channel", "bsc", "--p", "0.07", "--n", "256", "--rate", "0.3"]
    awgn = ["finite-bound", "--channel", "awgn", "--snr", "4", "--tau", "0.02", "--n", "64",
            "--rate", "0.3", "--units", "nats"]
    assert loaded_by_commands(bsc, awgn) == "['eebounds.finite']"


def test_validate_loads_finite_but_not_simulate():
    assert loaded_by_commands(["validate"]) == "['eebounds.finite']"


def test_one_worker_simulation_loads_no_thread_pool():
    sim = "eebounds.simulate_bsc(eebounds.gen_linear_code(12, 5, 1), 0.05, 1, 2000, 1, {})"
    assert fresh(f"import eebounds; {sim.format(1)}; {REPORT}") == (
        "['eebounds.finite', 'eebounds.simulate']"
    )
    assert fresh(f"import eebounds; {sim.format(2)}; {REPORT}") == (
        "['concurrent.futures', 'eebounds.finite', 'eebounds.simulate']"
    )


def test_star_import_binds_every_name_to_its_modules_object():
    code = (
        "from eebounds import *; import eebounds; "
        "from eebounds import binary, finite, numerics, simulate, spherical; "
        "mods = (numerics, binary, spherical, finite, simulate); "
        "names = [n for m in mods for n in m.__all__]; "
        "print(eebounds.__all__ == names, len(names), "
        "all(globals()[n] is getattr(m, n) for m in mods for n in m.__all__))"
    )
    assert fresh(code) == "True 50 True"


def test_first_access_binds_the_name_in_the_package():
    code = (
        "import sys, eebounds; v = vars(eebounds); "
        "print('gen_linear_code' in v, 'finite' in v); "
        "eebounds.gen_linear_code; "
        "print('gen_linear_code' in v, 'LinearCode' in v, 'finite' in v, "
        "'simulate_bsc' in v, 'eebounds.simulate' in sys.modules)"
    )
    assert fresh(code).split("\n") == ["False False", "True True True False False"]


def test_unknown_attribute_raises_naming_the_module():
    with pytest.raises(AttributeError, match="module 'eebounds' has no attribute 'no_such_name'"):
        eebounds.no_such_name
    assert not hasattr(eebounds, "no_such_name")
