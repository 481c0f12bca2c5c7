"""Golden outputs: sha256 digests of two CLI reports on the 17 acceptance
instances, taken while the oracle still composed loop branches in Fractions,
so that every later version reproduces those reports byte for byte.

`circledyn oracle` at P = sbc + 3 depends on the loop order and on which
witness of each (period, rotation) pair is kept first; `circledyn family`
pins the classes, arrows and orientation.  A digest change means a report
is no longer byte-identical: the change must be deliberate, and the new
digests recomputed with the reports read side by side.
"""

import hashlib

import pytest

from circledyn.cli import main

# (family, n, P = sbc + 3, oracle digest, family digest)
GOLDEN = [
    ("dream", 3, 6, "b567e58a6c04460464e6a74438e3b8c00156e6911d7d84883e7c2ccc6c296002", "86284d030af7afe69bf5e35bc283f79d72d2822557884a29dd34a6735672d54b"),
    ("dream", 4, 7, "522c9814fce0320067d6004153a7b041249094b9e59072f58d3ebd38b9a0525d", "2114543c0eb651073f26b4f0168be063a901ad043fa70011f9ad40e0ab9d41ee"),
    ("dream", 5, 8, "f0ed6623768feffe3e0cb55a4f4bb4e9033a3e52de87c2949f718222482dbc10", "e351c3a8eca06b639ed664971a553cedb74837548cd0c5fd75ef4eac2a39817e"),
    ("dream", 6, 9, "06a7c3b0b379ce65a8b12239598953eea676c01fff139da32a51ec5cbcf96bef", "ebaca921a5e25770bf31a4409b022d0eacdf2c53c36bc02d262ec568db3664b7"),
    ("dream", 7, 10, "c151643af09260b051196f55249fab1869c8627037196a287f758bb1885fe99c", "8153ac3e86f4c5dab8e37ff4716961b675bb8003c7982d1cdc336857f282e4df"),
    ("dream", 8, 11, "909b81cadef06c199d355d1fa21e598c862e3c8263a2b5e7a1e9fa160458f5cc", "7ac31116a837678c12d29d7ada04068c88791ef88067f6c00c9d3e8a0ffcb9f2"),
    ("dream", 9, 12, "4ecc979a9bbca0f527b8301f2e31633975bf7c20afa30cd7bfe1424857370956", "486645b8834409a5c83ec70f2c7caa9865d89367eba9bdd44c05a456b1bd717f"),
    ("dream", 10, 13, "3be41cbdf4e2f3096110f2ce5336fdf3cf285bbb659991efcf6319b1160ebdd4", "c201e1b3314474c5d0ec6d74bcc9df8a9ea0bb5e25c208b410c679f247ee401c"),
    ("persistent", 5, 8, "124a3089e5d3bb673a8d6f4666c59d70e9c0f8edf60d4edeaee76f4a4ddc7a6f", "48a408a6925c66cf33efcff35a569c51a7010ef3e5c560463c82d024b41f6217"),
    ("persistent", 7, 10, "53aa4d65c01f96c4d3151646e5dfc4f3f44d99526d04d72f64fedf82298aff26", "941ad83449b74c10032bc67d364a3e30c17f645beec0ecd638f7b8841c969ce0"),
    ("persistent", 9, 12, "b4bd678200aef07c7b3d5596f10d5d80fbdef2cb4ab00f590b96d382f45fa153", "a5a727bf51a371746e832961a5cb6738c668c4d9b4062fe5141aad156c439236"),
    ("persistent", 11, 14, "db31f60115057c4beef58b57b1768c324663ac3e3a530b220bcb84bb3286c2e2", "f2cf2ae97b1eb40ca6342e7a0a4b6e209978ebda8beb36a60be381219753a55d"),
    ("persistent", 13, 16, "c1f4769532e62ad5c32b1cad90557299b09b0269fe543971dbead15012e4df69", "a3f61dbfd83356a7a1423a30dac23958f4f3f02b1f5e366009aae89c8a3e5f5a"),
    ("montevideo", 3, 9, "9b7d55983e84a7a8ce7c3cffd04e38cbd5a32154a5e915f2bc00022672f11b65", "890682bf0809c08ddae05f7fc70f0a68243c2241b91802e42b1b608cdc077496"),
    ("montevideo", 4, 18, "8490caa6578cce93df764c58e4616c9231e214a8efe6de134f0de22ba2d12c57", "2acb826c9b3e625c2ce1cb368ac908fc62f3381d72321d4cbc6d7da9fb8b3ca4"),
    ("montevideo", 5, 22, "8a8342f2e4cf20a04b0d89e002930e4780363c3dd76b2c2ae7f0fece9987023a", "caceaf1bd29bf193c27ce9fbc3c9f7a471df8b600aefdacbf5bdd4bd4c4e2607"),
    ("montevideo", 6, 37, "2b0ecc34265e06e3ebc2051c2359dbe9dfec1fdd00bfa94bd5fc008b4f76e916", "a71647b1452d53e4b7ba614742504a8cc1d27ed0874a8444965c717a64169fac"),
]


@pytest.mark.parametrize("family,n,P,oracle_digest,family_digest", GOLDEN)
def test_reports_match_golden_digests(capsys, family, n, P, oracle_digest, family_digest):
    digests = []
    for argv in (["oracle", family, "--n", str(n), "--max-period", str(P)], ["family", family, "--n", str(n)]):
        assert main(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [oracle_digest, family_digest]
