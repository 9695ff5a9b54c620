"""Golden CLI outputs: reports must stay byte-identical for a fixed seed.

Each `golden/<name>.txt` is the exact stdout of `main(argv)` for the case
of that name below, and the run must exit with the listed status and write
nothing to stderr.  Together the cases pin every node's `b` on the five
acceptance instances and on one q = 5 instance, the trend report, the
repair transcripts, and the field (modulus and zeta) of every mode.  A
file is rewritten from the same `main(argv)` run only by a change that is
meant to alter that report.
"""

from pathlib import Path

import pytest

from rackrepair.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SEEDED = ["--trials", "2", "--seed", "7"]
C1 = ["--mode", "C1", "--q", "3", "--u", "2", "--nbar", "3", "--rbar", "2"]
C2 = ["--mode", "C2", "--q", "3", "--u", "2", "--nbar", "6", "--primes", "2,2"]
C2REM = ["--mode", "C2", "--q", "3", "--u", "2", "--nbar", "5", "--primes", "2,2"]
COR7 = ["--mode", "Cor7", "--q", "3", "--u", "2", "--nbar", "6", "--rbar", "5"]
HOM = ["--mode", "homogeneous", "--q", "3", "--u", "1", "--nbar", "3", "--rbar", "2"]

CASES = {
    "sweep-c1": (["sweep", *C1, *SEEDED], 0),
    "sweep-c2": (["sweep", *C2, *SEEDED], 0),
    "sweep-c2rem": (["sweep", *C2REM, *SEEDED], 0),
    "sweep-cor7": (["sweep", *COR7, *SEEDED], 0),
    "sweep-hom": (["sweep", *HOM, *SEEDED], 0),
    "sweep-c2-json": (["sweep", *C2, *SEEDED, "--format", "json"], 0),
    "sweep-c1-q5": (["sweep", "--mode", "C1", "--q", "5", "--u", "2", "--nbar", "3",
                     "--rbar", "2", *SEEDED], 0),
    "nbar-sweep": (["nbar-sweep", "--rbar", "2", "--nbar", "5", *SEEDED], 0),
    "repair-c1": (["repair", *C1, *SEEDED, "--node", "3"], 0),
    "repair-c2": (["repair", *C2, *SEEDED, "--node", "5"], 0),
    "repair-cor7": (["repair", *COR7, *SEEDED, "--node", "7"], 0),
    "build-c1": (["build", *C1], 0),
    "build-c2": (["build", *C2], 0),
    "build-cor7": (["build", *COR7], 0),
    "build-hom": (["build", *HOM], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    argv, status = CASES[name]
    assert main(argv) == status
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{name}.txt").read_text()
