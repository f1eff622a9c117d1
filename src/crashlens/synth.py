"""Synthetic crash corpus.

The bundled 50-case corpus is produced here deterministically; regenerate it
with `python -m crashlens.synth <outdir>`. `write_corpus` with `n_cases`
writes larger seeded corpora in the same four-table CSV layout.
"""

from __future__ import annotations

import csv
import random
from datetime import datetime
from pathlib import Path

from .schema import TABLES, Severity
from .util import is_null

# the crash table carries one column the schema does not map; ingest keeps it
# in CrashRecord.extra
HEADERS = {
    "crashes": TABLES["crash"].header + ["TRAFFIC_CONTROL"],
    "segments": TABLES["segment"].header,
    "vehicles": TABLES["vehicle"].header,
    "persons": TABLES["person"].header,
}

# route, from, to, lanes, lane_w, lsh, rsh, speed, surface, aadt, locale
_SEGMENT_ROWS: list[list[str]] = [
    ["097ARi", "0.0", "10.0", "2", "11", "3", "5", "55", "2", "3200", "rural"],
    ["097ARi", "10.0", "20.0", "2", "12", "4", "4", "55", "1", "3900", "rural"],
    ["097ARi", "20.0", "25.0", "2", "12", "4", "6", "60", "2", "4800", "rural"],
    ["097ARi", "25.0", "40.0", "3", "12", "6", "8", "60", "1", "5100", "rural"],
    ["002", "0.0", "20.0", "2", "11", "2", "4", "50", "1", "8700", "rural"],
    ["002", "20.0", "25.0", "4", "12", "6", "10", "60", "3", "21500", "urban"],
    ["002", "22.0", "30.0", "4", "12", "8", "10", "60", "3", "20400", "urban"],
    ["090", "0.0", "15.0", "6", "12", "10", "12", "70", "3", "78000", "urban"],
    ["090", "15.0", "45.0", "4", "12", "8", "10", "70", "1", "54000", "rural"],
    ["101", "0.0", "30.0", "2", "10", "2", "3", "45", "2", "6100", "rural"],
    ["101", "30.0", "55.0", "2", "11", "", "4", "50", "4", "4300", "rural"],
    ["012", "0.0", "25.0", "2", "11", "3", "3", "55", "1", "7200", "rural"],
    ["020", "0.0", "18.0", "2", "10", "", "", "", "4", "1900", "rural"],
]

_COUNTIES = ["Chelan", "King", "Spokane", "Yakima", "Pierce", "Whatcom", "Kittitas", "Okanogan"]

# (make, model, weight); motorcycles are rare and skew severe
_VEHICLE_KINDS = [
    ("Ford", "F-150 pickup", 4),
    ("Toyota", "Camry sedan", 4),
    ("Honda", "Civic sedan", 4),
    ("Chevrolet", "Silverado pickup", 3),
    ("Subaru", "Outback wagon", 3),
    ("Freightliner", "Cascadia truck", 2),
    ("Kawasaki", "Ninja motorcycle", 1),
    ("Harley-Davidson", "Road King motorcycle", 1),
]

_NULLS = ["", "nan", "unknown", "N/A"]


def _fmt_mp(value: float) -> str:
    return f"{value:g}"


def corpus_rows(n_cases: int = 50, seed: int = 13) -> dict[str, list[list[str]]]:
    """Deterministic corpus as CSV row lists keyed by table name."""
    rng = random.Random(seed)
    null_i = 0

    def marker() -> str:
        nonlocal null_i
        null_i += 1
        return _NULLS[null_i % len(_NULLS)]

    def maybe(value: str, p: float) -> str:
        return marker() if rng.random() < p else value

    crashes: list[list[str]] = []
    vehicles: list[list[str]] = []
    persons: list[list[str]] = []

    def add_person(caseno: str, unit_id: int, role: str) -> str:
        age = maybe(str(rng.randint(16, 88)), 0.12)
        sex = maybe(rng.choice(["M", "F"]), 0.12)
        restraint = maybe(rng.choices(["1", "2", "3"], weights=[8, 2, 1])[0], 0.2)
        airbag = maybe(rng.choices(["1", "2", "3"], weights=[5, 3, 2])[0], 0.2)
        sobriety = maybe(rng.choices(["1", "2", "3", "4"], weights=[16, 2, 1, 1])[0], 0.15)
        if all(is_null(v) for v in (age, sex, restraint, airbag, sobriety)):
            age = str(rng.randint(16, 88))  # keep every person sentence-worthy
        persons.append([caseno, str(unit_id), role, age, sex, restraint, airbag, sobriety])
        return sobriety

    # showcase case: fully populated, ambiguity-free, dusk hit-and-run
    crashes.append([
        "C0001", "2022-06-29", "20:00", "Chelan", "097ARi", "22.4", "1", "3",
        "1", "47.9512", "-120.6626", "1", Severity.SEVERE.value, "1",
    ])
    vehicles.append(["C0001", "1", "Ford", "F-150 pickup", "2005", "2"])
    vehicles.append(["C0001", "2", "Toyota", "Camry sedan", "1995", "1"])
    persons.append(["C0001", "1", "driver", "36", "M", "1", "2", "1"])
    persons.append(["C0001", "2", "driver", "35", "F", "1", "1", "1"])

    seg_routes: dict[str, list[tuple[float, float]]] = {}
    for row in _SEGMENT_ROWS:
        seg_routes.setdefault(row[0], []).append((float(row[1]), float(row[2])))

    for i in range(2, n_cases + 1):
        caseno = f"C{i:04d}"
        if i == 2:
            route, mp = "113", 5.0  # no segment table entry for this route
        elif i == 3:
            route, mp = "002", 22.4  # inside both overlapping 002 segments
        else:
            route = rng.choice(sorted(seg_routes))
            lo, hi = rng.choice(seg_routes[route])
            mp = round(rng.uniform(lo, hi - 0.2), 1)
            mp = max(mp, lo)
        date = datetime(rng.randint(2021, 2023), rng.randint(1, 12), rng.randint(1, 28))
        hour, minute = rng.randint(0, 23), rng.choice([0, 5, 10, 15, 30, 40, 45, 50])
        lighting = maybe(rng.choices(["1", "2", "3", "4", "5"], weights=[10, 2, 3, 3, 2])[0], 0.1)
        hit_run = rng.choices(["1", "0"], weights=[1, 9])[0]
        if rng.random() < 0.2:
            lat = lon = ""
        else:
            lat = f"{rng.uniform(45.6, 48.9):.4f}"
            lon = f"{rng.uniform(-124.5, -117.1):.4f}"

        n_vehicles = rng.choices([1, 2, 3], weights=[4, 5, 1])[0]
        motorcycle = False
        impaired = False
        for unit in range(1, n_vehicles + 1):
            make, model, _ = rng.choices(_VEHICLE_KINDS, weights=[k[2] for k in _VEHICLE_KINDS])[0]
            motorcycle = motorcycle or "motorcycle" in model
            year = maybe(str(rng.randint(1988, 2023)), 0.15)
            maneuver = maybe(str(rng.randint(1, 7)), 0.1)
            vehicles.append([caseno, str(unit), make, model, year, maneuver])
            sobriety = add_person(caseno, unit, "driver")
            impaired = impaired or sobriety in ("2", "3", "4")
            if rng.random() < 0.3:
                add_person(caseno, unit, "passenger")
        dark = lighting in ("4", "5")
        severe = motorcycle or (impaired and (dark or hit_run == "1")) or (impaired and rng.random() < 0.5) or (dark and hit_run == "1")
        severity = Severity.SEVERE if severe else Severity.MINOR

        crashes.append([
            caseno,
            date.strftime("%Y-%m-%d"),
            f"{hour:02d}:{minute:02d}",
            rng.choice(_COUNTIES),
            route,
            _fmt_mp(mp),
            maybe(rng.choices(["1", "2", "3", "4", "5"], weights=[9, 4, 3, 1, 1])[0], 0.1),
            lighting,
            maybe(rng.choices(["1", "2", "3", "4"], weights=[9, 4, 1, 1])[0], 0.1),
            lat,
            lon,
            hit_run,
            severity.value,
            maybe(rng.choices(["1", "2", "3", "4"], weights=[6, 2, 2, 1])[0], 0.25),
        ])

    return {
        "crashes": crashes,
        "segments": [list(row) for row in _SEGMENT_ROWS],
        "vehicles": vehicles,
        "persons": persons,
    }


def write_corpus(out_dir: str | Path, n_cases: int = 50, seed: int = 13) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = corpus_rows(n_cases=n_cases, seed=seed)
    paths = {}
    for name, rows in tables.items():
        path = out / f"{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADERS[name])
            writer.writerows(rows)
        paths[name] = path
    return paths


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "src/crashlens/data/corpus"
    written = write_corpus(target)
    rows = corpus_rows()
    n_severe = sum(1 for row in rows["crashes"] if row[12] == Severity.SEVERE.value)
    print(f"wrote {len(rows['crashes'])} crashes ({n_severe} severe) to {target}")
    for name, path in written.items():
        print(f"  {name}: {path}")
