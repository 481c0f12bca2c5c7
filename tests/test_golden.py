"""Golden outputs: sha256 digests of CLI reports, so that every later
version reproduces them byte for byte.

- `circledyn oracle` at P = sbc + 3 and `circledyn family` on the 17
  acceptance instances, taken while the oracle still composed loop branches
  in Fractions.  The oracle report depends on the loop order and on which
  witness of each (period, rotation) pair is kept first; the family report
  pins the classes, arrows and orientation.
- `circledyn family --verify` (and `--strict`, which exits 2 on the
  documented small-n montevideo bound failures) on the same instances,
  `circledyn scan --json` on the three criterion-9 ranges and
  `circledyn extend` on twelve instance/graph pairs, taken while each family
  still stated its circle and extension polynomials separately.
- `circledyn scan` CSV on short ranges of the three families, taken while
  the CLI still formatted each column by hand.
- `circledyn beta` at the default tol on the distinct criterion-8 intervals
  of the benchmark grid and on (1/97, 2/97), taken while the root kernel
  still narrowed every bracket by bisection.
- The built `MarkovSystem` of every criterion-9 scan instance (partition,
  denominator, keys, index map, arrows and orientation), taken while the
  forward closure still ran on Fractions.
- Every call the scans, the verify and extend instances and the beta
  intervals above make to the root kernel: the polynomial, the tol and the
  bracket or NoRootAbove in call order, taken while `largest_root_above`
  still took a floor.  The verify digest was taken again when the extension
  report came to count its cofactor's roots before its base entropy's: the
  same 70 calls, 24 of them in swapped places.

A digest change means a report is no longer byte-identical: the change must
be deliberate, and the new digests recomputed with the reports read side by
side.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from circledyn import arith, families, markov, minentropy
from circledyn.cli import main
from circledyn.errors import NoRootAbove
from circledyn.families import make, mts1_scan, scan_values, verify
from circledyn.graphext import CombGraph, extend, verify_extension


def _digest(capsys, argv, code=0):
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
    oracle = _digest(capsys, ["oracle", family, "--n", str(n), "--max-period", str(P)])
    assert [oracle, _digest(capsys, ["family", family, "--n", str(n)])] == [oracle_digest, family_digest]


# (family, n, exit code under --strict, verify digest); the report is the
# same with or without --strict, only the exit code differs
VERIFY_GOLDEN = [
    ("dream", 3, 0, "bae2a264d4f154f64bbd244bbd9b5b0fb9732bc775641a96b6dde9e47c7e625b"),
    ("dream", 4, 0, "6ba026c0ca87d22162726170a4407899a5b0b704a1b4def3286e3df8780bb5e8"),
    ("dream", 5, 0, "3735770774da0521959596bef14143598271faa96523845a157542285f24dc5e"),
    ("dream", 6, 0, "4d4c1e53b79108993d2a683a10913bfc3368da298c3c5b8d4a0dcd4e970a1c36"),
    ("dream", 7, 0, "e9e8673b059d8e51107882f087c56d8e2ee12cb8f2fa045a85a01da7de5e984c"),
    ("dream", 8, 0, "6e94719823d2e0ff786fbd11c453e364631fc01103256b90b861784e43c329f9"),
    ("dream", 9, 0, "b29a641d2c8a114a0ace01055dd1534497a203919e67c141d3ccf901fb5b5854"),
    ("dream", 10, 0, "c7db5ebd9d2dbb6ec29146e40cc2fde60b3de5785490161df055782fbf990fe9"),
    ("persistent", 5, 0, "d160ab558ff9b869fa226dd580696fdb7b3ed97414a35157a7765349476eec74"),
    ("persistent", 7, 0, "4ab7fc29abf4812f70e33bd3e39081f4c64c3659a70a0c9c30fb9d175fc366a2"),
    ("persistent", 9, 0, "56e5fa7b718956fe3b028d1e104b41eb852303125fa591193e99af2bfaf7c887"),
    ("persistent", 11, 0, "bca4b0169a05927d508b0371db355bbfdc1ff916676522ee3413eea9dde9710e"),
    ("persistent", 13, 0, "0f379c3225837663a20164003ba642c9ae0bb87b72847dba976c1b2e4c04e294"),
    ("montevideo", 3, 2, "35a7c4ee394e9dc7ae811cc6fc3a50d9b3fd6965ae87ce9139ef84b4668dd5d5"),
    ("montevideo", 4, 2, "d43f116c794e170e926a9be2279b90d51c18bb1413a83319019fd84d49936ccf"),
    ("montevideo", 5, 2, "1a80926b9edce5dd272049637bc8f065f88dad8cac00fdd03443ea11329db6fb"),
    ("montevideo", 6, 0, "faaa7d089c6c391fea5153638e9ae021ed68d9525bd829aff8eade1f0d100ae1"),
]


@pytest.mark.parametrize("family,n,strict_code,digest", VERIFY_GOLDEN)
def test_verify_reports_match_golden_digests(capsys, family, n, strict_code, digest):
    argv = ["family", family, "--n", str(n), "--verify"]
    assert _digest(capsys, argv) == digest
    assert _digest(capsys, argv + ["--strict"], strict_code) == digest


# (family, from, to, scan --json digest): the criterion-9 desk scans
SCAN_GOLDEN = [
    ("montevideo", 3, 10, "3f965553a448cb1568d402c890d4e64b71dadd2bfdd949706a8927f6add4cc9e"),
    ("persistent", 5, 101, "d3b50c60dd7b719e49ce0830efca9f3bf7000844957b763bdbfd4910cdc1b318"),
    ("dream", 3, 51, "2b37b92a9c0d203773f852ae85034f6bc9bd03259bd120883592790821169231"),
]


@pytest.mark.parametrize("family,start,end,digest", SCAN_GOLDEN)
def test_scan_reports_match_golden_digests(capsys, family, start, end, digest):
    argv = ["scan", family, "--from", str(start), "--to", str(end), "--json"]
    assert _digest(capsys, argv) == digest


# (family, from, to, exit code, scan CSV digest): short ranges; persistent 3
# has no bc, an empty field, and exits 2
SCAN_CSV_GOLDEN = [
    ("dream", 3, 12, 0, "9cc9e490bbf016670ed16af4f0f11e323fed999fb87dffb58797c0a0f1f7a6e0"),
    ("persistent", 3, 25, 2, "b682f898ca3c6ee0eda255e210b02ff5bd41d8f5480662a1842573321d2801a0"),
    ("montevideo", 3, 6, 0, "67b2f542488fa98ae8a8cd6ccae55bc6abcdac2089f041bf9ccbe648eb3fbf8c"),
]


@pytest.mark.parametrize("family,start,end,code,digest", SCAN_CSV_GOLDEN)
def test_scan_csv_matches_golden_digests(capsys, family, start, end, code, digest):
    argv = ["scan", family, "--from", str(start), "--to", str(end)]
    assert _digest(capsys, argv, code) == digest


GRAPHS = {
    "apple": {
        "vertices": ["c1", "c2", "c3", "t", "s1", "s2"],
        "edges": [["c1", "c2"], ["c2", "c3"], ["c3", "c1"], ["c2", "t"], ["t", "s1"], ["t", "s1"], ["t", "s2"], ["s2", "s2"]],
    },
    "triangle_tail": {"vertices": ["u", "v", "w", "p"], "edges": [["u", "v"], ["v", "w"], ["w", "u"], ["u", "p"]]},
}

# (ambient graph, family, n, extend digest)
EXTEND_GOLDEN = [
    ("apple", "dream", 5, "7e414414b69f23365ad3ad7de3af8b744c9d15e82f52be5cf3f00fc49c179339"),
    ("apple", "dream", 6, "0582b0b1aba5ffced3bb5046a4a1bfc8947e02c2c0b55729f8cfd86e01193d6a"),
    ("apple", "dream", 7, "4b86da3acf43547c49ad6775881597689ad83e2f7a749a7f57eada0ad8dbf26f"),
    ("apple", "dream", 8, "1dfb28d33cb6dcb4ac8aa155b38c42c432d21cf9775d2c11c61ffa55c3eb9fa8"),
    ("apple", "persistent", 7, "fb88016e63eda04c59bd631f537745c687b71d0cbd816a25a11769ffe05a145b"),
    ("apple", "montevideo", 4, "50f158f127b4aca13d5148a364a899dd3e33dd56612aeb6a20d49259ef2331b5"),
    ("triangle_tail", "dream", 5, "89fd159a1f78b56b073f9fe95bf278e6b957f9e4e6d9d40b59b7c6821518852e"),
    ("triangle_tail", "dream", 8, "5efa1cec53a9508d315dd6c32ae981ec2d8c42f13e556b2ed77db8494a8c947f"),
    ("triangle_tail", "persistent", 7, "6c79a7855b5de9838466996d99ef93e6e3f3306c5da9add1cf7064443c40ab2b"),
    ("triangle_tail", "persistent", 11, "bb05ea2e4c34503b1cbf9a016b72739713ad9e4866060db4a8f062571c67c54b"),
    ("triangle_tail", "montevideo", 4, "07bcf3d5807943b4289a24324773a893efe42cd8d3e813b0ef387594743a641b"),
    ("triangle_tail", "montevideo", 5, "940174323f979c64149c1acb070357c4f9413fc5e646bd0ec21c098038300d50"),
]


@pytest.mark.parametrize("graph,family,n,digest", EXTEND_GOLDEN)
def test_extend_reports_match_golden_digests(capsys, tmp_path, graph, family, n, digest):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(GRAPHS[graph]))
    assert _digest(capsys, ["extend", family, "--n", str(n), "--graph", str(gfile)]) == digest


# (c, d, beta digest)
BETA_GOLDEN = [
    ("1/2", "7/10", "0714dfc59d85493b734d6247955fea5d7fb355b8cf85cdd70857375441fdd6f9"),
    ("1/5", "2/5", "3bafa13adbdfbc82c3b2a6d82a9f99a6e541e834757e5b39e758bf36a5cdec2c"),
    ("1/4", "1/3", "eb8d4a414cf2668c63a2d94185f96b2168c44006d32b6eb70905735f70a7ac0d"),
    ("0", "1/2", "6bc7436cfcefbbeba14260fbc99ccbaf3933a1273354908049d2c016e1b2efda"),
    ("0", "1", "fcd4574e065aff70fdfdd06fc8ee546c636c918937b0d92248023b64056ab9a0"),
    ("1/3", "1/2", "01cadc41178b0b1e86775a53d11454b4852f31a2df3f8d4348ade5fc3922d782"),
    ("2/5", "3/5", "df55de99dfd670d877654ea0105f981c5ec79a55777a087111039a020425d0de"),
    ("1/7", "2/7", "a16fca63b42d0675f8f85902d96cd4286afe96b37412b096be4ba885b2522008"),
    ("3/7", "4/7", "b6b632c7b6a1e114bf3f12fdb0f683f76d71f8f5b0483acd6430d13958309e84"),
    ("1/9", "2/9", "e0e78fb2e22c80515981e4c7694a6aee6747b2cb72d708c37b4c9ef506eeda69"),
    ("1/11", "2/11", "1c4b2713c8f52db67f74e706656b8c64c29c554677dcaa9df5709fe2d0982717"),
    ("1/13", "2/13", "50ce4f464b3262d15a5ed8afd7f6a0a14605c101aaf41814d315118752527e1f"),
    ("1/15", "2/15", "46c73db44149d7f0ce76f7cf2389137a5aaf5efeee020fccdf73715ccd420830"),
    ("1/97", "2/97", "c6c985633d6b7bcf94537136e5b6ceab54ea2563193b9014513098a6f0dcdaff"),
]


@pytest.mark.parametrize("c,d,digest", BETA_GOLDEN)
def test_beta_reports_match_golden_digests(capsys, c, d, digest):
    assert _digest(capsys, ["beta", "--c", c, "--d", d]) == digest


# (family, from, to, digest of the built MarkovSystems): the criterion-9
# scan instances, 106 in all
MARKOV_GOLDEN = [
    ("montevideo", 3, 10, "72ecd27fe7c020bccb95c7cd5ae330182860a71477c983bd5cc08eb24fe673cd"),
    ("persistent", 5, 101, "67579709cb32acd195cebe4e244c3e038fab821381c22d8f9fe3dc742d72622b"),
    ("dream", 3, 51, "bffdd4e94f4c1c1f74b3c7684c93122eb394e5b2b294d088ec7ad3f9b28d4947"),
]


def _markov_digest(family, start, end):
    h = hashlib.sha256()
    for n in scan_values(family, start, end):
        M = make(family, n).markov
        fields = (tuple(map(str, M.partition)), M.denominator, M.keys, M.index_map, M.coverings, M.orientation)
        h.update(repr(fields).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family,start,end,digest", MARKOV_GOLDEN)
def test_built_systems_match_golden_digests(family, start, end, digest):
    assert _markov_digest(family, start, end) == digest


# (workload, calls, digest of the kernel calls): the instances above at the
# benchmark's tolerances
KERNEL_GOLDEN = [
    ("scan", 106, "fa7c44b7e557daa1949110c144533d03d7201463bc59ef9fa2f156d3b2672a55"),
    ("verify", 70, "223c9436023f24a07b57d90f413a8ef50671a573552d041e9fda2b67b25c34ff"),
    ("beta", 14, "643624b94a4b4c060ab1efd7642da17893abe92bf4feca5b04c4061d9e2f4c22"),
]


def _run_workload(workload):
    if workload == "scan":
        for family, start, end, _ in SCAN_GOLDEN:
            mts1_scan(family, start, end, Fraction(1, 10**9))
    elif workload == "verify":
        for family, n, _, _ in VERIFY_GOLDEN:
            verify(make(family, n), Fraction(1, 10**12))
        for graph, family, n, _ in EXTEND_GOLDEN:
            verify_extension(extend(make(family, n), CombGraph(**GRAPHS[graph])), Fraction(1, 10**12))
    else:
        for c, d, _ in BETA_GOLDEN:
            minentropy.beta(Fraction(c), Fraction(d), Fraction(1, 10**8))


@pytest.mark.parametrize("workload,calls,digest", KERNEL_GOLDEN)
def test_kernel_outcomes_match_golden_digest(monkeypatch, workload, calls, digest):
    outcomes = []

    def traced(p, tol):
        try:
            root = arith.largest_root_above(p, tol)
        except NoRootAbove:
            outcomes.append((p.coeffs, tol, "NoRootAbove"))
            raise
        outcomes.append((p.coeffs, tol, root))
        return root

    for module in (markov, families, minentropy):
        monkeypatch.setattr(module, "largest_root_above", traced)
    _run_workload(workload)
    assert (len(outcomes), hashlib.sha256(repr(outcomes).encode()).hexdigest()) == (calls, digest)
