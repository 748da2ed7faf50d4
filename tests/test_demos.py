"""The demos run to completion and print the same bytes on every run."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import spreadsmith

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
DEMO_SHA256 = {
    "01_field_tower_tour.py": "eb9b9c439ac8d5eaab2d61af48a0dc8f2760fcc6916ff9615d8c8621021b366f",
    "02_first_parallelism.py": "1f8799523ea66b08e9d830face5562f1ac5fb13233cddd435992f3a885b88a02",
    "03_good_set_census.py": "f2aaa0a5b059d95994aaaa5653faec3a3f47afbd25535391faf5e62f2144e3fa",
    "04_switching_geometry.py": "c7a1a9d3380cc1c2643baceb7f0ed0e7b52bf738d4235be2b1cd311a82b1e354",
    "05_classify_orbits.py": "75f53919094146ca0dcea46e2fdaa9a0034fe47410654ca1c615f7b8fb3e37df",
}


def test_demo_outputs_are_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_SHA256)
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    for demo, digest in DEMO_SHA256.items():
        done = subprocess.run([sys.executable, str(DEMOS / demo)],
                              capture_output=True, env=env, timeout=120)
        assert done.returncode == 0, (demo, done.stderr.decode())
        assert hashlib.sha256(done.stdout).hexdigest() == digest, demo
