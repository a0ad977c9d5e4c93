"""Golden digests of small `run`s: the reference that refactoring keeps.

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

TSP_CITIES = """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: t_test}
sampling: {se_max: 0.01, n0: 3, n_max: 12, diff: percent, se_method: parametric}
algorithms:
  - {alias: cool, kind: demo_sann_tsp, params: {temp: 500.0, budget: 200}}
  - {alias: hot, kind: demo_sann_tsp, params: {temp: 2000.0, budget: 200}}
instances:
  inline:
    - {id: c8-1, payload: {cities: 8, layout_seed: 1}}
    - {id: c8-2, payload: {cities: 8, layout_seed: 2}}
    - {id: c9-3, payload: {cities: 9, layout_seed: 3}}
    - {id: c6-0, payload: {cities: 6}}
master_seed: 31
use_all_instances: true
workers: 1
output_dir: out
"""

TSP_MATRIX = """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: sign}
sampling: {se_max: 0.5, n0: 3, n_max: 10, diff: simple, se_method: parametric}
algorithms:
  - {alias: short, kind: demo_sann_tsp, params: {temp: 40.0, budget: 4}}
  - {alias: long, kind: demo_sann_tsp, params: {temp: 10.0, budget: 30}}
instances:
  inline:
    - {id: line, payload: {distance_matrix: [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]}}
    - {id: skew, payload: {distance_matrix: [[0, 4, 9, 2, 7], [4, 0, 3, 8, 5], [9, 3, 0, 6, 1], [2, 8, 6, 0, 3.5], [7, 5, 1, 3.5, 0]]}}
    - {id: flat, payload: {distance_matrix: [[0, 2, 2, 2, 3], [2, 0, 2, 3, 2], [2, 2, 0, 2, 2], [2, 3, 2, 0, 2], [3, 2, 2, 2, 0]]}}
    - {id: ring, payload: {distance_matrix: [[0, 1, 5, 5, 1], [1, 0, 1, 5, 5], [5, 1, 0, 1, 5], [5, 5, 1, 0, 1], [1, 5, 5, 1, 0]]}}
master_seed: 5
use_all_instances: true
workers: 1
output_dir: out
"""

# the solver prints the instance path, a dot and the run seed's last digits
SUBPROCESS = """\
design: {alpha: 0.05, power: 0.8, d: 0.5, test: t_test}
sampling: {se_max: 0.05, n0: 3, n_max: 8}
algorithms:
  - {alias: four, kind: subprocess, params: {executable: /bin/sh,
     args: ["-c", "s={seed}; echo {instance}.${s#${s%????}}"]}}
  - {alias: three, kind: subprocess, params: {executable: /bin/sh,
     args: "-c 's={seed}; echo {instance}.${s#${s%???}}'"}}
instances:
  inline:
    - {id: p1, payload: {path: "1"}}
    - {id: p2, payload: {path: "2"}}
    - {id: p3, payload: {path: "3"}}
master_seed: 12
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
    "tsp-cities": (TSP_CITIES, {
        "results.csv": "a94c13af3331730f40b2788c8f21bdfab4542c936fb5a97a5c7debe164c6d71f",
        "checkpoint.jsonl": "6bd17546ee1ee5f81c0604492e257c11dd49b0b21a1a08518594e47968a34c37",
        "report.json": "34c96f86faaf92874a82abff571b9e784933800bded6f38cc4d274ce72b0934c",
        "summary.txt": "cd1001c2c2294cf148076b75ddf17957ac17aedc03099e49426e9e7281cd0de0",
        "qq.csv": "8934de98af00dd7c9e60bfba05ba8a64c4efb5b83e7d554f2d7a97161d6ffcd4",
        "boot_sdm.csv": "079991f6dde7b409cff3dc0e4e8eef8effd3faef8e9713089b64504de305a907",
        "boot_sdm_qq.csv": "f1b5e8c1be68c91d32b36476b4f20c214df7846c686bdf59fd611d7ccb3b8dc1",
    }),
    "tsp-matrix": (TSP_MATRIX, {
        "results.csv": "437230e42132f866a4ee6be5ba2b0febadda724d200d340861ed0adfc1b6d432",
        "checkpoint.jsonl": "ed1db666e2a25ef2dd94f383a467d097ecda7c78f044fe1a1b9857adfaa44497",
        "report.json": "642ad42dd96685f6a44964c065f15ff85eca1ec29106cf117cc2d0735ba22efc",
        "summary.txt": "d223571077c5d7095252956de518ca747a6cf5d2c4966f2b0b70c2e3ae6bb019",
        "qq.csv": "417b4da7e59d7204d230f66cde849a421ae328cdf932c71835ebfc77bf723984",
        "boot_sdm.csv": "d72fd511ea9c545fd4a8641a0393ad52ecc4fab031e912c69706d8503a926fdd",
        "boot_sdm_qq.csv": "2739c8c6d828d61b4b2d65fa84acfef327a26457472ad7f3322f74cd3fadd363",
    }),
    "subprocess": (SUBPROCESS, {
        "results.csv": "ccc014f0594d220b07a4ec984e2938e0d72963687fb2b10a71c5e89906235b06",
        "checkpoint.jsonl": "3d26c1c9c74b1baa26b4edb275666f4a2e71868ef08a8206d22a477c6e5d733d",
        "report.json": "c3452995384f3b00a0ee86746356bbb8f8a9238b657e8d0a674d82ad6cc474de",
        "summary.txt": "9026592cdfc03765f028bc28d378b52e0337c549af7e268dba60d272b2680a80",
        "qq.csv": "97d16d1668b85657511845136f9d9fa4d43cfd960ae72329a41a5b29aff29160",
        "boot_sdm.csv": "360dfb53c3099f3ec194e2ea1dbe97878bc8538e55835adc5e2e7e5652cc7314",
        "boot_sdm_qq.csv": "aef292cc6d0696afbe300a729886a9fe4cfe67a9dc3a4db2790db5267b2af004",
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
