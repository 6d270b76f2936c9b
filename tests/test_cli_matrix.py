"""The CLI byte-diff matrix runs end to end and writes its fixed file list."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from tests_support import BLAS_THREAD_VARIABLES

MATRIX_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_matrix.py"

OUTPUTS = {
    "fit": ["moments.csv", "surrogate.json"],
    "convergence": ["convergence.csv"],
    "select-points": ["points.csv"],
    "mc": ["moments.csv", "trace.csv"],
}


#: sha256 of each of the 54 files, recorded at one BLAS thread.  Aim 2 asks
#: a refactor to keep these bytes; a change that moves them on purpose
#: re-pins the digests it moves, from ``python tools/cli_matrix.py OUT``
#: and ``sha256sum`` over ``OUT``, and says why in CHANGES.md
MATRIX_SHA256 = {
    "convergence-ishigami/config.json": "25c3e2b5e9857ac8e58d3acdc8d53515144cf14b1d7ade57c44c0c8bef32493c",
    "convergence-ishigami/convergence.csv": "c965688a545c0e48ae1bf340e37c9ca64d1ce812fcd40645c97608b271356646",
    "fit-burgers-segpc/config.json": "537686a0d09523ed78b44e58f3f32030d402965010741137477ef28c64f4dcb1",
    "fit-burgers-segpc/moments.csv": "9201f4fa1f7351027e808e99ff55f07b4355c6868eb52c4338d3eb7d9f46dc9c",
    "fit-burgers-segpc/surrogate.json": "a01f34d8b9d3657367e19da56438b54bdd3061186c9fe51caeddbac43ce7696a",
    "fit-burgers-smolyak/config.json": "9da697b9c42b2159ab9bf9cb6e7187c1e624c8c3851947cde1367be71ccf5518",
    "fit-burgers-smolyak/moments.csv": "938c5f451bb0319fbe516eaea60905d40ceefc616ff710f47cfd576747a6c9c8",
    "fit-burgers-smolyak/surrogate.json": "5b2df1c8c5be3072eff611f720e209adc97025e7671d8ff1817f9b0eb6504ed4",
    "fit-burgers-wlsq/config.json": "43a07b39f550e645cc054cd63877b06a470b8683399cac5eabf4295fe7b7f6a9",
    "fit-burgers-wlsq/moments.csv": "0849778fca8e08c379ef402dd409def37547a9517348f001c08be5a6744d2dc2",
    "fit-burgers-wlsq/surrogate.json": "cff16c352439a342cd8de8cd1bada7f06fe456ef4c5bdb7c642f9b94de9b2d77",
    "fit-burgers4-segpc-p4/config.json": "56a45e55c002ba3f6018fc637c39b48f84441b1f30fdec8b9776f41b8c718d83",
    "fit-burgers4-segpc-p4/moments.csv": "59c312950d5099c232e32c663563abef0fc3b9315d2c1d3c8ce2ddf16093166f",
    "fit-burgers4-segpc-p4/surrogate.json": "e004b2bdffe693051b3e7a0290a9047ac4884abff9536dbbbcf822aaa985fc07",
    "fit-burgers4-segpc/config.json": "50facb7d7eac92cc12bdac1b9c38a9571efe05778dedfc3199a5be91b40e7d97",
    "fit-burgers4-segpc/moments.csv": "f97f0592fe55e179ae6a829826ec5f8db29ea0ffa80f6515a1d3f3587d0c2c01",
    "fit-burgers4-segpc/surrogate.json": "42100000e0d0019d76ee2b6d30701c311a68b24713df24f9123e03fa2cfb23e0",
    "fit-ishigami-segpc-p10/config.json": "c81eeba19c771582118105b4b4112e9c6acc1ce65d5de1b153c0821dddcbb8a0",
    "fit-ishigami-segpc-p10/moments.csv": "cfef6eedb727e7d4f1a3e7e96864d4fe2ffe298e640a6e7f947f0ed312e11766",
    "fit-ishigami-segpc-p10/surrogate.json": "15bd3b204f00cbef7649bd15c979a28de9e1f1ef8de443b207a231ffcfc62495",
    "fit-ishigami-segpc/config.json": "d61a13b783b032d807b9ba3e83263d0124edcdf96a0767949809694c7f6785e6",
    "fit-ishigami-segpc/moments.csv": "1e44e8062bc3b149f067e3f65ec0c9a379fca1976a9aacc6afbc1f1ec8e284cd",
    "fit-ishigami-segpc/surrogate.json": "d6f0342b65fdc1ab9011673ed52648d48f8af0e9a9a3ee31aa6471cda088cf2d",
    "fit-ishigami-smolyak/config.json": "502079ff974e8585d06a712816283d19515e37e0d086c9a90d42761890132126",
    "fit-ishigami-smolyak/moments.csv": "d2f1b63fbe0d79825f9e2e784479842a25b650d6c270c56dca6bba0c75d4db95",
    "fit-ishigami-smolyak/surrogate.json": "b3b88ea6d6259411b70db84e8e3967ecb1e68bdb41bb846b196ba6ed78a6ef7a",
    "fit-ishigami-wlsq/config.json": "5727f6d244c1e20e774a95c1f868f180d002d80d26ea1be007df9608d71992ec",
    "fit-ishigami-wlsq/moments.csv": "f7882b83cbca0dea527be8cddc727bb520f431985b93018f842c9eeaa34141ed",
    "fit-ishigami-wlsq/surrogate.json": "6549e1b8af5ec570ec8952477c26e46bc4918eb1cc6208d99c7924ddfc1de7c7",
    "fit-ode-segpc-oversampled/config.json": "b181428278ce9cd6ab5bba0d0738d340c4ef0779824fb1f1343407dc40a2fd68",
    "fit-ode-segpc-oversampled/moments.csv": "aafe5f7f139f33307e3a31ae2ecf464b1abefe9d763e92c62dd0f8516ccb16ce",
    "fit-ode-segpc-oversampled/surrogate.json": "4a16e854b46ff651d218ed3adc37858f82c3b1b4c1a4eaf03133cdcc707f480d",
    "fit-ode-segpc/config.json": "e6ddf47c3ce5b3c05869bf1f6de446e44e700ce60996a23b941bf0d86475bcba",
    "fit-ode-segpc/moments.csv": "55216e4dc649851b20cb6b5ccca601a602d6f3097ab33a5d2b327cee1e2a8ad0",
    "fit-ode-segpc/surrogate.json": "7abdff5e499b7648714f6b155bb966f8e1e7f46be413c79b93503b453b12b198",
    "fit-ode-smolyak/config.json": "6c5ceb89811357096f376776bf2c0f079231d37b289f526d4283476a42844b49",
    "fit-ode-smolyak/moments.csv": "7cd4337ef2a152068787d8f40ad706b88d4fd6a71b5fbdb2242c8bdd5ce0a90a",
    "fit-ode-smolyak/surrogate.json": "486862133a040f271acbb9e8d8384b2f6012820ad4f1c75d03837b854cf662fa",
    "fit-ode-wlsq/config.json": "6cdffded8435f1f46891d0ed959d2e5b25437d4b27dfc8b8a8b4b0e20f190992",
    "fit-ode-wlsq/moments.csv": "6e69b643460d3fcc6edfca9df0dcfdf353474daf87960e47f6240e40cf2f6a66",
    "fit-ode-wlsq/surrogate.json": "0ec8c48f342855f860426a95f4f20861e0f011a23daa3529048b2deea625b5fe",
    "mc-burgers/config.json": "55370425a7fb864f1ca6d1e888e55cd675f55373ad14d1f80d98410821a0007f",
    "mc-burgers/moments.csv": "e36796dbf89c8371fdc958ac97f8f12fee35cc0c0943f6829756ee21a2d32b7f",
    "mc-burgers/trace.csv": "d8686a82df4aefbad13e04c3c35ea32fc5aa75d57d1cda7ca04d3cc300cdac71",
    "mc-burgers21/config.json": "f6adb8ea77830d516578ffe3c94388ccac2262d750800d4ebd3c7a868a343e4d",
    "mc-burgers21/moments.csv": "08ebf28bb3840dfb9fb688e2bf086bfec179bd007103315723315fd80203e980",
    "mc-burgers21/trace.csv": "f751112266977c918c51abed438d4f3d162e8a6e9fd8437f19ffd0e6b01c5bb8",
    "mc-ishigami/config.json": "21a19325322de3c14fc97c71fc16c30e4fea976009a8f6c8523417b67112be2c",
    "mc-ishigami/moments.csv": "7979666d7e96f23e267d4fe90362c224a1ffdd5c6bf46c65fb46fed96285fe36",
    "mc-ishigami/trace.csv": "66217c35549640e231a65a594f7e0e38fecb81a45ea1d5d28a68596e5f0ad834",
    "select-points-ishigami/config.json": "65969773df04d3dcf4ab66002d9bc710ef20ac2b8df3377324a6a406d18d177a",
    "select-points-ishigami/points.csv": "4c062ad8cf9f930d4e438a4bf484bef18a346cc7680d211080e1b79263f788ba",
    "select-points-mixed/config.json": "601ddc2abd1b67ecb255d36bd212cb3518f0f7fe11920ba96118b05628ebce5b",
    "select-points-mixed/points.csv": "a7ac5cb9017912debef2e0f07a64b4cd85fa55c4d93999191103d1e165234aff",
}


def load_matrix():
    spec = importlib.util.spec_from_file_location("cli_matrix", MATRIX_PATH)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return matrix


def expected_files(matrix):
    """The 54 files of the 19 runs: each run's config plus its command's outputs."""
    files = sorted(
        f"{name}/{leaf}"
        for name, (command, _, _) in matrix.RUNS.items()
        for leaf in ["config.json", *OUTPUTS[command]]
    )
    assert len(matrix.RUNS) == 19
    assert len(files) == 54
    return files


def test_cli_matrix_writes_every_output(tmp_path):
    matrix = load_matrix()
    assert matrix.run_matrix(tmp_path) == expected_files(matrix)


def test_cli_matrix_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the same bytes at 1 and 2 threads, and the pinned ones; the thread count
    # is read when numpy loads, so each count needs its own process
    children = {}
    for threads in ("1", "2"):
        env = dict(os.environ, **{name: threads for name in BLAS_THREAD_VARIABLES})
        children[threads] = subprocess.Popen(
            [sys.executable, str(MATRIX_PATH), str(tmp_path / threads)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
    try:
        for threads, child in children.items():
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, f"{threads} thread(s): {err.decode()}"
    finally:
        for child in children.values():
            child.kill()
    files = expected_files(load_matrix())
    for threads in children:
        out = tmp_path / threads
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == files
    assert sorted(MATRIX_SHA256) == files
    for leaf in files:
        assert (tmp_path / "1" / leaf).read_bytes() == (tmp_path / "2" / leaf).read_bytes(), leaf
        digest = hashlib.sha256((tmp_path / "1" / leaf).read_bytes()).hexdigest()
        assert digest == MATRIX_SHA256[leaf], f"{leaf}: the matrix bytes moved"
