"""Seeded end-to-end benchmark for holderlab; README.md lists its workloads."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
