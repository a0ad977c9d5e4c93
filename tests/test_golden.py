"""Golden digests of two small `run`s: the reference that refactoring keeps.

The digests pin every file `run` writes byte for byte: `results.csv`,
`checkpoint.jsonl`, `report.json`, `summary.txt` and the three Q-Q and
bootstrap CSVs.  Any change to instance selection, seed derivation, run
allocation, the estimators, the tests, the diagnostics or an output
format moves them; a change that only moves code around or speeds up a
writer must not.  Both runs use one worker, so the journal's row order
is fixed.
"""

import hashlib

import pytest

from paircomp.cli import main

SIMPLE_PARAMETRIC = """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: t_test}
sampling: {se_max: 0.3, n0: 4, n_max: 30, diff: simple, se_method: parametric}
instances:
  synthetic_pool: {count: 12, delta: 0.3, sigma_phi: 1.0, noise_sd: 0.5}
master_seed: 2024
use_all_instances: false
workers: 1
output_dir: out
"""

PERCENT_BOOTSTRAP = """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: wilcoxon}
sampling:
  se_max: 0.1
  n0: 5
  n_max: 40
  diff: percent
  se_method: bootstrap
  bootstrap: {resamples: 200}
algorithms:
  - {alias: algo1, kind: synthetic_lognormal, params: {mu: 0.0, sigma: 0.3}}
  - {alias: algo2, kind: synthetic_lognormal, params: {mu: 0.0, sigma: 0.3}}
instances:
  inline:
    - {id: ln-a, payload: {algo1: {mu: 0.2, sigma: 0.25}, algo2: {mu: 0.3, sigma: 0.4}}}
    - {id: ln-b, payload: {algo1: {mu: 0.8, sigma: 0.45}, algo2: {mu: 0.7, sigma: 0.2}}}
    - {id: ln-c, payload: {algo1: {mu: 0.5, sigma: 0.3}, algo2: {mu: 0.6, sigma: 0.3}}}
    - {id: ln-d, payload: {algo1: {mu: 0.1, sigma: 0.35}, algo2: {mu: 0.15, sigma: 0.5}}}
    - {id: ln-e, payload: {algo1: {mu: 0.9, sigma: 0.2}, algo2: {mu: 1.1, sigma: 0.25}}}
master_seed: 77
use_all_instances: true
workers: 1
output_dir: out
"""

GOLDEN = {
    "simple-parametric": (SIMPLE_PARAMETRIC, {
        "results.csv": "ee302dc34de40083d19330611ec201cf96bd561a585b5add9b796266636292c6",
        "checkpoint.jsonl": "4c8d82d3ae2393ee09717bfcf6dbdd19b4b7167ef274b666b8f287ae83600c7e",
        "report.json": "5852f0a4afef082956e7ccad87656ca8f2140f687bc762fec78f64bbc5890fda",
        "summary.txt": "8e73ff2c515870f90324e0a4d53237f4d76b0dc3559abda96570e3acb4197c29",
        "qq.csv": "e33e6111daf187fe158cdf5b702562afacf60e1edb9cd81b1e0febff1473a853",
        "boot_sdm.csv": "55ac7e3df67b4aaae38869c962055dae46d59bc463ca7294e3653688ba55ce0d",
        "boot_sdm_qq.csv": "d2cd3c461eb7917047ad4d914baf5ae97844bfef2ad5a3d94f66e10751f485ab",
    }),
    "percent-bootstrap": (PERCENT_BOOTSTRAP, {
        "results.csv": "ce181e4091479c57e798c0cb6aa35697291f70f2318d0f7334c40c7f0c8834a2",
        "checkpoint.jsonl": "3812da73f7bca427eeea8b3686bf87297c34ea985c731b4c7adb2e588a5be510",
        "report.json": "550febe2583643108a15ed93760f9b98e010c574cdc8878d56ae006e77b68ced",
        "summary.txt": "f2bea075e7c6426dfd178f76cac11a78aad703cd2a59c080eec3b8f89a74eb09",
        "qq.csv": "f03d50de31e99d512e14f000ac32a3d3828c7fdc6b019cbcc355164e6e4c2d0e",
        "boot_sdm.csv": "c32fd54f4ebd13bfcf4a97cf83f7236c0d9084d522039f8ab36cf7ce751316b9",
        "boot_sdm_qq.csv": "2116b67bde32ee0e676fd76666269b5be3b6792f47f21c0a73280a2b4b42f799",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(tmp_path, capsys, name):
    text, digests = GOLDEN[name]
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    got = {file: hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest()
           for file in digests}
    assert got == digests
