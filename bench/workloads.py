"""The benchmark's workloads: shipped presets, thinned in K, as CLI operations.

Each workload writes one config file per CLI call it makes, derived from a
shipped preset with the master seed replaced by the benchmark's ``--seed``.
A pass is the workload's full list of ``cdma_ee.cli.main`` calls, each
writing under the pass's own directory.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import yaml
from cdma_ee.harness import load_config_data

# The MF half of fig34_mixed.  Every K costs about one second per removal round
# per variant (500 Verhulst iterations, each re-solving every target), so two
# light-to-moderate loads are all a pass of about 12 s can hold.
MF_MIXED = {
    "preset": "fig34_mixed",
    "command": "run",
    "labels": ("alg1_mf", "alg2_mf", "baseline_mf"),
    "user_counts": [2, 4],
    "compare": ("alg1_mf", "baseline_mf"),
}
# fig56_fullload over every tenth K from 3 up to full load 63.
DEC_FULLLOAD = {
    "preset": "fig56_fullload",
    "command": "run",
    "labels": ("alg1_dec", "baseline_dec", "alg2_dec_rmin50k", "alg2_dec_rmin1m"),
    "user_counts": list(range(3, 64, 10)),
    "compare": ("alg2_dec_rmin50k", "alg1_dec"),
}
# fig2_tradeoff as shipped, once per receiver.
TRADEOFF_SWEEP = {
    "preset": "fig2_tradeoff",
    "command": "tradeoff",
    "labels": ("mf", "dec"),
}
SPECS = {"mf_mixed": MF_MIXED, "dec_fullload": DEC_FULLLOAD, "tradeoff_sweep": TRADEOFF_SWEEP}


@dataclass(frozen=True)
class Workload:
    """Config files and CLI operations of one workload."""

    name: str
    command: str                  # "run" or "tradeoff"
    configs: dict[str, Path]      # output label -> config file
    compare: tuple[str, str] | None = None

    def operations(self, pass_dir: Path) -> list[list[str]]:
        ops = [
            [self.command, "--config", str(path), "--out", str(pass_dir / label)]
            for label, path in self.configs.items()
        ]
        if self.compare:
            a, b = self.compare
            ops.append(
                ["compare", "--a", str(pass_dir / a), "--b", str(pass_dir / b),
                 "--metric", "global_ee", "--out", str(pass_dir / "compare.csv")]
            )
        return ops


def _config_document(base: dict, spec: dict, label: str, seed: int) -> dict:
    document = copy.deepcopy(base)
    document["seed"] = seed
    document["workers"] = 0
    if spec["command"] == "tradeoff":
        document.setdefault("system", {})["receiver"] = label
    else:
        document["system"]["user_counts"] = list(spec["user_counts"])
        document["variants"] = [v for v in base["variants"] if v["name"] == label]
    return document


def prepare(name: str, seed: int, config_dir: Path, overrides: dict | None = None) -> Workload:
    """Load the preset and write the workload's config files for ``seed``.

    ``overrides`` (the self-test's small sizes) is merged into the spec and,
    under its ``document`` key, into every config document.
    """
    spec = {**SPECS[name], **(overrides or {})}
    base = load_config_data(spec["preset"])
    config_dir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for label in spec["labels"]:
        document = _config_document(base, spec, label, seed)
        for section, values in spec.get("document", {}).items():
            if isinstance(values, dict):
                document.setdefault(section, {}).update(values)
            else:
                document[section] = values
        path = config_dir / f"{label}.yaml"
        path.write_text(yaml.safe_dump(document, sort_keys=True))
        configs[label] = path
    return Workload(name, spec["command"], configs, spec.get("compare"))
