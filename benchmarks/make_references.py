"""Record the reference rows that ``workload.py`` compares outputs against.

Run it from the repository root, at the commit whose outputs are the
reference, and commit the files it writes under ``benchmarks/references``:

    python3 benchmarks/make_references.py
"""

from __future__ import annotations

import json

import workload as wl


def reference_rows(work) -> list:
    work.run_pass()
    out = work.collect()
    if out["error"]:
        raise SystemExit(f"{work.name}: {out['error']}")
    return [[r[c] for c in wl.REFERENCE_COLUMNS] for r in out["records"]]


def rows_text(rows: list) -> str:
    """One row per line, so a changed reference shows as a readable diff."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"


def main() -> None:
    peerspot = wl.import_program()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    header = '{"columns": ' + json.dumps(list(wl.REFERENCE_COLUMNS)) + ",\n"

    bundled = reference_rows(wl.Bundled(peerspot, seed=0, size="full"))
    (wl.REFERENCE_DIR / "bundled.json").write_text(header + '"rows": ' + rows_text(bundled) + "}\n")

    families = []
    for family in range(wl.K3_REFERENCE_POOL):
        rows = reference_rows(wl.SweepK3(peerspot, seed=family, size="full"))
        families.append(json.dumps(str(family)) + ": " + rows_text(rows))
        print(f"sweep-k3 family {family}: {len(rows)} rows", flush=True)
    text = header + '"families": {\n' + ",\n".join(families) + "\n}}\n"
    (wl.REFERENCE_DIR / "sweep-k3.json").write_text(text)


if __name__ == "__main__":
    main()
