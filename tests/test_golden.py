"""Golden seeded results and objective-call counts for the three optimizers.

The digests pin ``curve``, ``best_x`` and ``best_f`` bit for bit, so any
change to the engine arithmetic, the draw order or the batching of
objective calls shows up here. F1, F7, F16, F18 and HB use only +, -,
*, / and integer powers written as multiplications (no libm calls; F7's
noise comes from the PCG64 stream), so their values do not depend on the
SIMD math routines of a numpy build; the digests are still only as
portable as IEEE double arithmetic on numpy's elementwise loops.
``test_every_catalog_problem`` pins a shorter sweep over the whole catalog,
keyed by the numpy build and the dispatch target of its libm loops.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from numpy.lib.introspect import opt_func_info

from beetleswarm import BasConfig, BsoConfig, PsoConfig, get_problem, problem_ids
from beetleswarm.harness import ALGORITHMS, run_one

from .conftest import counting, sphere_problem

GOLDEN_ITERS = 200

GOLDEN = {
    ("bso", "F1", 0): "93e620e677a83d0c250b09be848d6a2ba0b12e4bad66a6a64ce84bc0d068cc43",
    ("bso", "F1", 1): "b6f7cc9b732a869d90db7963f9c24ba58318da0097f442c9fe159d908b35c31c",
    ("bso", "F1", 2): "a61bc163755b1801088d81ae8e04d8daafb0cf9b7cdae6ea1f42c84c6b4a9b72",
    ("bso", "F18", 0): "d63c5644b7b78b9eb1a0100375308de50ecdae1b01b6a1fadb8e06437476e7c2",
    ("bso", "F18", 1): "495a5284add080d9a50707a3ea4f91cfa0861418f5ab24437050956cc32af294",
    ("bso", "F18", 2): "3027dce192e2a45be6586943f02db6fe85f17bb7f04e2e5306f8b1110c8b7ca1",
    ("bso", "HB", 0): "d72d75f7620afca58df405940e9ec78f261592ebfac590014288c44d74673cf5",
    ("bso", "HB", 1): "956ce59a315265b7a4176ae286fca348774d27f59895d17049a90c8299535327",
    ("bso", "HB", 2): "405dc2aa0d8835ba6a23982ca30299b7ca57ae8d6b7874b7d89320ca6f148e01",
    ("bso", "F7", 0): "543f67560795ac17f26bc3fd958955200a38624c594e548cb576bced530e688d",
    ("bso", "F7", 1): "950a2f38b0bf19e044015e865ea4246fe02ef803607b9e8753059c73ba2d6e2a",
    ("bso", "F7", 2): "7932754d7a7e9d85fdcd4b08a93aafd369a36d2492bbfe6420f510bbb61473af",
    ("bso", "F16", 0): "4512f6f09bfd5c265eef1f392f3f52464b489c19a48e00cafe21ce1d4a73d6a6",
    ("bso", "F16", 1): "dc2df32a6e4d469752774f0e709895ef1a3dc5978a0e2b90bb7a8e9bd6ec3a09",
    ("bso", "F16", 2): "f004222ff61ca95b963f34e71cefb8248308b35b0572f047ff5852dac9417b78",
    ("pso", "F1", 0): "047c0c91b0289270b079a4dd607c39074b49430abd90feff67cf549ce5d43ad2",
    ("pso", "F1", 1): "137990a53938ea8cde6075dd47ddf28004585049996064b8242e1f07b4aa2604",
    ("pso", "F1", 2): "d19b063579fa91cf240b650e8694ba594087f176e75e2a98e8398d5dd4467a7d",
    ("pso", "F18", 0): "dda03074f86110fad1edfac4821abcd8cb8e03600e706504714a6b4b7ffeb65b",
    ("pso", "F18", 1): "e381594dea6a660099326d7a26900a2af7e0dc9a51199881ca6ca468d1e91eb8",
    ("pso", "F18", 2): "283cbf7ee32836d01fd65c2023c61e07df20d9c4e6e37630050c92495dc7262d",
    ("pso", "HB", 0): "65290480c16871be0779b519601b595ca3e3eaaf21d5f50494dad832057c9933",
    ("pso", "HB", 1): "ff3d98c9a4d2d31c6236a66432c47794b5a50ba7ed476cf5032dde806fd11c7a",
    ("pso", "HB", 2): "b8d73fed1dcd97b1f7f230f077d355530b4d0db8de070d038821641023381cf9",
    ("pso", "F7", 0): "d867d1fcdd18183af67f246a50f4812df47de548ddc6d4086b546035db8bc8ad",
    ("pso", "F7", 1): "0dd70554f25f82704ed1c557a4bb1abee8cf73b4a3d042d2aba900f9bdc58fd0",
    ("pso", "F7", 2): "92f46efba5afe568a7e41c012f2a39a67f8cfc7cf741bbb0eb84b2e137a7bd00",
    ("pso", "F16", 0): "24318704e17c0485e726de1e33c451229c1fe522639e5361be2bc1f8fa58c688",
    ("pso", "F16", 1): "41e052ed0681613bfbbfa6368120f9343e34e987827ca1c0e9cc84f38235a9c2",
    ("pso", "F16", 2): "abe401c28f1274ac816777987d9ecb2d20e107143cd88ba1d0bf796aee75278d",
    ("bas", "F1", 0): "7b2334fc8aab94d385cbefaae9e2dfc16cd2637fc956f9ea37e403696c5e17cd",
    ("bas", "F1", 1): "6d4e482a2356a71234a50f3cab9877bfa66b4954669f37a2f9580557e23802d1",
    ("bas", "F1", 2): "a24610500754aa911f4652161a50705662db29808e738854643ec487f7dbafcb",
    ("bas", "F18", 0): "c0e241babf06ee9fa62205e05b0a227820d818bd367f4037f310fa146d1a7ebc",
    ("bas", "F18", 1): "ce42aa91f86352dc8a79dbf723c360e1f1770c5a47506c75b88a1284d507afe5",
    ("bas", "F18", 2): "d5adecab966fd8f1892a9c6000ad7ac4af686fe367e70332b264b6bdb4dca30b",
    ("bas", "HB", 0): "9c07a44c010516a0b302ac84b98445abc13c394d69d1bfc6f762d53316549783",
    ("bas", "HB", 1): "acaf0c9142f7261094fbe618e2b0377111c7cc707699260bcf853518d4daa95f",
    ("bas", "HB", 2): "c2bd3b1977fc84d43e129682a928b367ff25aa2838ce937c82c189f4f0501c65",
    ("bas", "F7", 0): "feab399ddfc84fc56229cdab7ef3ebd5336d2fbe2580ad8c136f42277b607135",
    ("bas", "F7", 1): "4a3c939f7855bce43cc3e118ff76ed854d825645dcdd76d16914fa8d8d4282ef",
    ("bas", "F7", 2): "fea4ae11138d24d2738428356cbc8080313b1bb6cd30fa57e2922f404279320a",
    ("bas", "F16", 0): "c75100c2830d1045f123b10b84028f9668297947bced4e2de5cea5c865c1571c",
    ("bas", "F16", 1): "3e80d69f5e8eef1473dd9afccae99386d8e444e2ebb32e734ac0bd7521ecbb76",
    ("bas", "F16", 2): "b3f7d1e45736aeee58953a08be4519881c2c6110a169a929512c74bed225833f",
}


def golden_config(algo: str):
    cfg_type = ALGORITHMS[algo][0]
    return cfg_type(max_iters=GOLDEN_ITERS) if algo == "bas" else cfg_type(n=50, max_iters=GOLDEN_ITERS)


def record_digest(*records) -> str:
    """SHA-256 over the float64 bytes of curve, best_x and best_f of each record, in that order."""
    h = hashlib.sha256()
    for rec in records:
        for part in (rec.curve, rec.best_x, np.float64(rec.best_f)):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("algo,pid,seed", sorted(GOLDEN))
def test_seeded_result_matches_golden(algo, pid, seed):
    rec = run_one(algo, get_problem(pid), golden_config(algo), seed)
    assert record_digest(rec) == GOLDEN[(algo, pid, seed)]


@pytest.mark.parametrize("algo", ["bso", "pso", "bas"])
def test_objective_call_counts(algo):
    cfg_type = ALGORITHMS[algo][0]
    # PV clamps its probes; 300 iterations take BAS past its 256-iteration block of directions drawn at once
    for problem, n, K in ((sphere_problem(3), 6, 5), (get_problem("F16"), 4, 3), (get_problem("PV"), 4, 3),
                          (get_problem("F16"), 4, 300)):
        rows = []
        cfg = cfg_type(max_iters=K) if algo == "bas" else cfg_type(n=n, max_iters=K)
        run_one(algo, counting(problem, rows), cfg, 0)
        expected = {
            # the initial swarm with iteration 1's right and left probes, then each moved swarm with the next
            # iteration's probes, the last one alone: n + 3nK rows, as in three calls per iteration
            "bso": [3 * n] * K + [n],
            "pso": [n] * (1 + K),
            # the start point with iteration 1's (right, left) probe pair, then each move with the next pair, the
            # last move alone: 1 + 3K rows, as in the probe pair and the move of each iteration
            "bas": [3] * K + [1],
        }[algo]
        assert rows == expected, (problem.id, K)


def test_bas_keeps_two_calls_per_iteration_on_a_stochastic_problem():
    # merged, the next direction would be drawn ahead of the move's noise, so a noisy objective sees the
    # (right, left) pair, then the move, after the start point
    for problem, K in ((dataclasses.replace(sphere_problem(3), stochastic=True), 5), (get_problem("F7"), 3)):
        rows = []
        run_one("bas", counting(problem, rows), BasConfig(max_iters=K), 0)
        assert rows == [1] + [2, 1] * K, problem.id


def test_bas_without_iterations_sends_the_start_point_alone():
    rows = []
    rec = run_one("bas", counting(sphere_problem(3), rows), BasConfig(max_iters=0), 0)
    assert rows == [1] and rec.curve.size == 1


def dispatch_record() -> str:
    """The numpy version and the loop that runs float64 exp, log, sin, cos and power, which seeded bits depend on."""
    info = opt_func_info(func_name="^(exp|log|sin|cos|power)$", signature="float64.*")  # anchored: not expm1, isinf
    loops = ", ".join(f"{func} {sig} {loop['current']}" for func, sigs in info.items() for sig, loop in sigs.items())
    return f"numpy {np.__version__}: {loops}"


# one digest per problem over bso and pso (n = 20) and bas, 100 iterations, seeds 0 and 1, taken with numpy 2.4.6
# on an x86 CPU with AVX-512, at its default dispatch and with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
CATALOG_DIGESTS_X86_V4 = {
    "F1": "c8d3683e01e98156fbce71e2a74d8ad96b2e5d850b214253023075d5a29bafdd",
    "F2": "4901dfe41a6edb66e01de24250df937cf71d364edcb55e66fd5f1987ee51a085",
    "F3": "0195c01ead34f41d5e9a95f9f787d576888cbacc72671f522e7e2e7ee2041569",
    "F4": "c8b9249ae5a4bfc316555c16e925fa1a6303ccc9ebceb3dff71299a7ec51a985",
    "F5": "f2b0afec0307e00e389215924e866687c5a8a3f50a2b4b60e29771783d6d52b4",
    "F6": "2a99f19465874154b166f73a824df2b20f326d6594f0151f75896c2353dc98fe",
    "F7": "673dd46ac2d560e87ca813ffe9883c7fa94c9576034deca144b0773198b9f371",
    "F8": "f6a1d3448b83f3bc367a7579ec4f0ef2be5c41767400039366ec7d9e7e564554",
    "F9": "a8f3a21167adac7db1d56bd0f060af230c5c83950c328193d77485a4071fc645",
    "F10": "c878f180df2c08bb0ee380c5c866808e30f1c4c6b30de546e8d84e9440d52faa",
    "F11": "f55b79027711daa080b3702484db1722b0347e92e7e3613e6f1006b82053eba5",
    "F12": "faaee4ed841cb803fa22fb9b02de5487f389bdc43faab2dcde5d8b3a07bb7d59",
    "F13": "33e14c8da3a1b0edb7d8b17b143d089f9c3fc61055cc87c38aad9b2ed19b6ab5",
    "F14": "dcb9711edae703dc5588e0aabb7ddefdd379511c9477e4c74d12b90642a2e60f",
    "F15": "ee1da3f4897ed63720c0a75bdc150d5b1bd9530924805044b0080e72336fcf8e",
    "F16": "001c5f71c1afbf01c9161daa54571c7b3afaf6d59afe2de826337fb2cc31c880",
    "F17": "dcf8b51901fb73ca03d7e94db1f5f6f3a144b4db967e7138d6d3004f612cd072",
    "F18": "ff1ef126a5c10ddcdf63a47b9c4902530106ce7b4e707f5d807a0345e27aeb68",
    "F19": "6c0b2792c55eaf6ab312e846736a2e37f3ed0c615e152d4318c7f96724d0307a",
    "F20": "8c494de048bf0967d0a2066768a0473f936440ea8117de25187eecdaecd1ddcf",
    "F21": "b93fb5a3635c69dd46d8b9d23fafff4c01eb470043a584c248c67436228ff59b",
    "F22": "b368f0739a3354bd8ab6ed222f4e16b41afa80c56e919757e7148ff70c53e596",
    "F23": "cd119dc3595811623e6c40c92e4524aae979ef25e3836ecb5bcd82c842beac4c",
    "PV": "7e5a1ee2a472d8a4d89b85bed89290a58c14b9b8cfa55d11cc25263ad307807f",
    "HB": "e12084ecb66e630401c0a7e68d9c01e4f07b8266c59bc0400b93f70dae81596b",
}
CATALOG_DIGESTS = {
    "numpy 2.4.6: cos dd X86_V4, exp dd X86_V4, log dd X86_V4, sin dd X86_V4, power ddd X86_V4": CATALOG_DIGESTS_X86_V4,
    "numpy 2.4.6: cos dd X86_V3, exp dd X86_V3, log dd X86_V3, sin dd X86_V3, power ddd baseline(X86_V2)": {
        **CATALOG_DIGESTS_X86_V4,
        "F10": "97f29253dcd60dc5961ae53d59a667d69429a3d4bb30e9810919e3121d8365a8",
        "F20": "6463f353408e464ad4bfb8881b7200d4af5b6cd22a00e9618ce944f034033536",
    },
}
# these reach numpy's libm loops (PV through x3**3); the others use only +, -, *, / and PCG64 draws
REACHES_LIBM = {"F8", "F9", "F10", "F11", "F12", "F13", "F17", "F19", "F20", "PV"}


@pytest.mark.parametrize("pid", problem_ids())
def test_every_catalog_problem(pid):
    record = dispatch_record()
    if record not in CATALOG_DIGESTS and pid in REACHES_LIBM:
        pytest.skip(f"no digests recorded for {record}")
    configs = {"bso": BsoConfig(n=20, max_iters=100), "pso": PsoConfig(n=20, max_iters=100),
               "bas": BasConfig(max_iters=100)}
    records = [run_one(algo, get_problem(pid), cfg, seed) for algo, cfg in configs.items() for seed in (0, 1)]
    assert record_digest(*records) == CATALOG_DIGESTS.get(record, CATALOG_DIGESTS_X86_V4)[pid]
