#!/usr/bin/env python3
"""Summarise hartbench output (results_full.txt) into the shape checks
EXPERIMENTS.md reports: per-figure winners and HART-vs-baseline ratios.

Usage: python3 scripts/summarize_results.py results_full.txt
"""
import re
import sys
from collections import defaultdict


def parse(path):
    rows = []
    fig = None
    mode = None
    for line in open(path):
        m = re.match(r"== Figure (\S+) ==", line)
        if m:
            fig = m.group(1)
            mode = None
            continue
        if fig is None or not line.strip():
            continue
        if line.startswith("workload"):
            mode = "us" if "us/op" in line else (
                "mem" if "PM MB" in line else (
                    "miops" if "MIOPS" in line else "total"))
            continue
        parts = line.split()
        if not parts:
            continue
        try:
            if mode == "us":
                rows.append(dict(fig=fig, wl=parts[0], tree=parts[1], op=parts[2],
                                 lat=parts[3], val=float(parts[4])))
            elif mode == "total":
                rows.append(dict(fig=fig, wl=parts[0], tree=parts[1], op=parts[2],
                                 lat=parts[3], n=int(parts[4]), val=float(parts[5])))
            elif mode == "mem":
                rows.append(dict(fig=fig, wl=parts[0], tree=parts[1],
                                 pm=float(parts[2]), dram=float(parts[3])))
            elif mode == "miops":
                rows.append(dict(fig=fig, wl=parts[0], op=parts[1], lat=parts[2],
                                 threads=int(parts[3]), val=float(parts[4])))
        except (ValueError, IndexError):
            pass
    return rows


def main(path):
    rows = parse(path)
    # Figs 4-7 + 9: HART ratio vs each baseline per cell.
    cells = defaultdict(dict)
    for r in rows:
        if r["fig"][0] in "4567" or r["fig"][0] == "9":
            cells[(r["fig"], r["wl"], r["lat"], r.get("op"))][r["tree"]] = r["val"]
    byop = defaultdict(list)
    for (fig, wl, lat, op), trees in sorted(cells.items()):
        if "HART" not in trees:
            continue
        h = trees["HART"]
        for t, v in trees.items():
            if t in ("HART", "HART-scan"):
                continue
            byop[(op or fig, t)].append((v / h, f"{wl}/{lat}"))
    print("== HART speedups (ratio = baseline / HART; >1 means HART wins) ==")
    for (op, t), lst in sorted(byop.items()):
        best = max(lst)
        worst = min(lst)
        wins = sum(1 for r, _ in lst if r > 1)
        print(f"{op:<8} vs {t:<8}: best {best[0]:.1f}x ({best[1]}), "
              f"worst {worst[0]:.1f}x ({worst[1]}), wins {wins}/{len(lst)}")

    # Fig 10c: recovery vs build.
    rec = {}
    for r in rows:
        if r["fig"] == "10c":
            rec[(r["tree"], r["op"], r["n"])] = r["val"]
    print("\n== Fig 10c: build/recovery speedup ==")
    for (tree, op, n), v in sorted(rec.items()):
        if op == "build" and (tree, "recovery", n) in rec:
            print(f"{tree:<8} n={n:<8}: build {v:.3f}s, recovery "
                  f"{rec[(tree, 'recovery', n)]:.3f}s "
                  f"({v / rec[(tree, 'recovery', n)]:.1f}x faster)")

    # Fig 10b.
    print("\n== Fig 10b: memory ==")
    for r in rows:
        if r["fig"] == "10b":
            print(f"{r['tree']:<8}: PM {r['pm']:8.2f} MB  DRAM {r['dram']:8.2f} MB")

    # Fig 10d.
    print("\n== Fig 10d: HART MIOPS by threads ==")
    for r in rows:
        if r["fig"] == "10d":
            print(f"threads={r['threads']:<3} {r['op']:<8} {r['val']:8.3f} MIOPS")


if __name__ == "__main__":
    for p in sys.argv[1:] or ["results_full.txt"]:
        main(p)
