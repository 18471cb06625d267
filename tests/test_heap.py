"""The heap policy gclab sets at import: freed numpy temporaries keep their pages.

The fault counts are getrusage's minor faults, which count every page the
kernel hands the process; they are read on Linux only.
"""

import ctypes
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gclab
from gclab.train import ExperimentConfig, build_model, experiment_data, run_training
from gclab.verify import injectivity_trial

resource = pytest.importorskip("resource")

linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults are read on Linux")
glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only")


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost"
    )]


def heap_size():
    """The bytes glibc holds from the kernel (mallinfo2's arena plus mmapped blocks), or None without mallinfo2."""
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        return None
    mallinfo2.restype = Mallinfo2
    info = mallinfo2()
    return info.arena + info.hblkhd


@glibc_only
def test_policy_is_set_and_survives_reimports():
    # gclab imported afresh 10 times, as the benchmark runner does, then a 16 MiB
    # block allocated, freed and allocated again. glibc's default policy gives the
    # memory of the first back to the kernel on free, so the second is faulted in
    # again (hundreds of faults with transparent huge pages, 4096 without).
    script = textwrap.dedent(
        """
        import importlib, resource, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        for _ in range(10):
            for name in [m for m in sys.modules if m == "gclab" or m.startswith("gclab.")]:
                del sys.modules[name]
            gclab = importlib.import_module("gclab")
        np.ones(2 << 20).sum()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(2 << 20).sum()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(faults, gclab._heap.keep_freed_pages())
        """
    )
    src = str(Path(gclab.__file__).parent.parent)  # the gclab under test
    run = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True, check=True)
    faults, accepted = run.stdout.split()
    assert accepted == "True"  # glibc's mallopt takes both values
    assert int(faults) < 16, run.stdout


@linux_only
def test_wide_training_steps_take_no_page_faults():
    # gatv2 and lmgc in turn on the fit-wide instance (n=128, d=c=32, 4 heads,
    # 375 edges), each from its initial parameters, as the benchmark rotates them
    g, x, y = experiment_data(ExperimentConfig(n=128, d=32, c=32, p=0.05))
    models = {m: build_model(m, g, 32, 32, np.random.default_rng(0), heads=4) for m in ("gatv2", "lmgc")}
    initial = {m: [p.value.copy() for p in model.params] for m, model in models.items()}
    steps = 20

    def one_round():
        faults = {}
        for method, model in models.items():
            for p, value in zip(model.params, initial[method]):
                p.value = value.copy()
            before = minor_faults()
            run_training(model, x, y, steps, 0.01)
            faults[method] = minor_faults() - before
        return faults

    # warm-up grows the heap to its working size: rounds until a whole round leaves
    # its size unchanged, at most 8, or two rounds where the size cannot be read
    size = heap_size()
    for _ in range(8 if size is not None else 2):
        one_round()
        size, before = heap_size(), size
        if size is not None and size == before:
            break
    faults = one_round()
    assert all(count < 2 * steps for count in faults.values()), f"minor faults over {steps} steps: {faults}"


@linux_only
def test_multiset_trials_take_no_page_faults():
    def trials():
        for seed in range(5):
            injectivity_trial(400, 4, 4, 4, seed, "lmgc_eq14")

    trials()  # warm-up: the heap grows to its working size
    before = minor_faults()
    trials()
    faults = minor_faults() - before
    assert faults < 2 * 5, f"{faults} minor faults over 5 lmgc_eq14 K=4 trials"
