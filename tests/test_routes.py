"""tools/routes.py on the first requests of one seed: it runs from a
checkout, prints one "workload route calls" line per route taken, and
counts the routes each stream is known to take."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_routes_counts_the_first_requests():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "routes.py"), "--requests", "20", "--seeds", "101"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    routes = {}
    for line in out.stdout.splitlines():
        workload, rest = line.split(" ", 1)
        route, calls = rest.rsplit(" ", 1)
        assert int(calls) > 0, line
        routes.setdefault(workload, set()).add(route)
    assert set(routes) == {"counts", "structure-search", "structure-constructive"}
    # every stream counts short one-point products, both structure
    # streams read limit constants, only the constructive one picks its
    # witnesses' loads, and the counts stream proves long capped rows
    assert all("product" in taken for taken in routes.values())
    assert "residue walk" in routes["structure-search"] & routes["structure-constructive"]
    assert "dp" in routes["structure-constructive"] and "dp" not in routes["structure-search"]
    assert "capped proven" in routes["counts"]
