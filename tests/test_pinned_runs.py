"""Pinned pipeline outputs on the benchmark's two workload shapes.

The first 20 instances of ``lp_heavy`` and ``many_phases`` at seed 7, built
as the benchmark builds them (``gen_random_dag`` with the workload's
parameters and seed ``7 * 1_000_000 + k``).  Each run's schedule JSON,
report JSON and trace JSON (the lines ``schedule --trace`` writes) are
pinned by their sha256, so a change to the scheduler or the schedule checks
that moves any decision, float or label fails here.

The digests are checked only under the Python minor version and the scipy
version they were recorded with.  The report holds floats summed by Python's
``sum``, which compensates from Python 3.12 on, and every output follows
HiGHS's objective and point, which another scipy build of HiGHS can move in
the last bits.  Elsewhere the in-process differential tests (the
``rescan_scheduler`` reference, the per-phase reference of ``_phase_sums``)
carry the check.
"""

import hashlib
import json
import sys
from importlib.metadata import version

import pytest

from delaysched import gen_random_dag, schedule_to_json
from delaysched.cli import PipelineConfig, run_pipeline

SHAPES = {
    "lp_heavy": (32, 8, 0.2, (1.0, 4.0), (0.25, 1.0), 16.0),
    "many_phases": (150, 4, 0.01, (1.0, 4.0), (0.25, 1.0), 1.0),
}
SEED = 7
RECORDED_WITH = ("3.11", "1.17.1")  # Python minor version, scipy version
RUNNING_WITH = (f"{sys.version_info[0]}.{sys.version_info[1]}", version("scipy"))


def run_digests(shape: str, k: int) -> tuple[str, str, str]:
    inst = gen_random_dag(*SHAPES[shape], SEED * 1_000_000 + k)
    result = run_pipeline(inst, PipelineConfig(emit_trace=True))
    trace = "\n".join(json.dumps(e, sort_keys=True) for e in result.trace)
    return tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (schedule_to_json(result.schedule), result.report.to_json(), trace)
    )


# shape -> one (schedule, report, trace) sha256 triple per instance k
PINNED = {
    "lp_heavy": [
        (
            "c9b38e4fe518b55eab5e0e274b6116d17831f82dc3da5f59d1640712adbf62c6",
            "1a21bb592161e61d7eaf1eee091670dbdbf51bf4b23261e6057f1509d2043504",
            "0f4181b1df531f2f7aa84bbd069ca86abec84b58cdb94453dbc9a2cfc226ab4f",
        ),
        (
            "f2f34ceae33b508d42232bd681d5414e82a73c4b0508f74464268bec33248bf5",
            "95e424f0bd2f7e5f3a7609f5767e0ea7b054f2552374e4164b16cf4de29f2242",
            "dbbc9c1541da9d57a513077e51f903ae5e7f0e41ce76613a3f722890aa0440ad",
        ),
        (
            "8cc338d7f03927fa7eae1932939c6a7b4e4edb27dcefb5f50b5e8ac15c78f97b",
            "8c980b1d78a6e28828340c6a733b88c3db19174a228e4e9e1cadcadbab794032",
            "2226dbe8b9f368b721f81df7d697bfa642064ff81f04140cc3db04b7c9dbca90",
        ),
        (
            "357ee7b5ce3c3c693d36476931d86d6ae4c703cfb258135b7e98d3fca229b993",
            "e4d99c317205c7a1658badf1c489dff2586eede57fb738c75b20d54a8ee976e4",
            "cca0a62f1c73b9c3c183fc6db4692fd73902d6b0a8260b302443cd5b554320fa",
        ),
        (
            "a0eeb23436c97c7823493ec7da1708b19453e7f93f4b623fa024ef106c927a63",
            "6fac4b8f8f3907ff58beaa099090742f8b72b19ed4175545a0aa6a40edc4b174",
            "8484fc11d92822fe4fcdbb996c7a1d773665cf526c43ec1f69c55ebb498c1735",
        ),
        (
            "9ebe4e99d7c7eddeeaa2951b29b0dfd4591310909327f423ae0e184a12615a6a",
            "9aaa2a57179f8c95704fc571539d3f88b88be2786694151cf1571cdd48767788",
            "dec94119cec1593ebcb3284ada2bcd5e3f2315e91ff7b352ef85305a0b0e84bc",
        ),
        (
            "865aa72ffad585a07f38433a8d8c215c8e8e5bc84b6bc61c7b8fd77295792238",
            "06b2df3610358e8fe6bdabdbd6fb574d485939a953536271254aafdfdb6dcf25",
            "da58412b9eaceda05487b4c4acfbcdd4f0a290a11dd1f6b89e5814fb08686a63",
        ),
        (
            "8860ccbcb920e77e2cd41a98e120a6af17e66ad26017bedba727b88cd893a968",
            "4e3c09b96065c2422af34e0c075a4152e5a147e9c191bf7c48389dbd20f54d68",
            "cc0cff19928ebb99edca4bef96f4b012f457ea6ffd57ebd1ac9068018b177efd",
        ),
        (
            "7ae041af22f5c359863a4fe34c08d767a2f1c0852a10e7fc95431180643dbb86",
            "ce8746812a593c9e133f801929a68e5e320fc6e823cdf1fa184d605e26de568b",
            "d0aa5edef82afc5bef7b7488965495b3e45f10000401cefb10d6e050e6ee26b1",
        ),
        (
            "54c5c32c87f167c335e4a43277ff490298fb0be9f70b2433821e699890887a32",
            "1cba7b1d3d9d4d000a726b11488f2b8256bdbad453ca85c328580b23ebb79a7c",
            "86b33eed476586bf1ab0a037b16b07ad2b5d28dad2d9e207af82a171ac5bd877",
        ),
        (
            "ab349ff7c92ed27464047033e199d774ba4a1f3884c46fdb532a860c23c6c474",
            "7fc49c001048a0fd32eaa3c2c2bfa0fc30adacbcecdb6b4ccf2d0e7a9fbe4f0b",
            "6b7d8cea7fd8f75e1feac27df612a93d5a0987dce959c0f4cead0e219d8290fc",
        ),
        (
            "39baded5170947533799c019f3d8c95c4e8bebbb825ccea6698629d9c43ba5f3",
            "336d21f3b290f5ebe9cf5d10cdaba8c2a5585d725931b477652f23940b76cdb4",
            "ef98500a54d348a10157729b7be38a3466b74599fb79e287b279a3ea28cce563",
        ),
        (
            "d7fef580245eaff853ac65cd58e663a494f2cec20b0d275e4d325e5cf8b6c638",
            "364ef41e82f6f289f6b6be8465850e9ae7c492b023328f0cac8ea468c3d4d587",
            "8ae79fb9ace07353fd71518402a51dca50d2a81ec61e89e3322a25f8d8eb6b05",
        ),
        (
            "cb8a51a22f903d8806dd37da0dde994e27c65e9c614b579e495d0284f4e97989",
            "8007580f16f4f8f17a6fdd1209dab3048439fff156c8b59e6b71b63c0460d062",
            "041d0c96fadeca61b43350a4ef790159f7865e02f0ccbe5c2e02412e19002b6d",
        ),
        (
            "265dde7efb4e977c0e1cc3e6c6bb2d6a45f16b1826ca07630ac6df8d04096f3f",
            "8eb1d973d568213c705b2222c78de50901a3fc21c739ec36c763df42804b76e5",
            "5b737970bfc068dc1c1a140406d86ae37427464a99f610d209bcd9374dca1452",
        ),
        (
            "1de4aebe9ca3db0ea5f67c3a414a5bf7c1df84a2c0ef63ff0b4e660414c0f51d",
            "5ba357c7665edf8df7351d546701220bde4fddafc4e943cf5d6b4ae03891c3ed",
            "8f34f6980fce3e9e28110cb07c14feda322d1e8f288b4544cf69dd1aa331e26c",
        ),
        (
            "3b06894636043ac90a53ae6276c7d530155f71c7141ccbe7458492a69880c010",
            "27c9e5af66229a1d1d10c9cb42c1e7f21355b5cf018bd937f23267f971289471",
            "8dfccfe4da5e1fa56772e953e9bec20106d101377c443ad727a05b2955a7fa4d",
        ),
        (
            "0b4ab0945d7618204513002b5bc039e7052768704a143ade7498bf1d690aaaf1",
            "ad3951185e88447cabd903b8e13324057df02cb239a8943dc7345c7fca197b88",
            "0dab049456f3a24bf9fdc0115791ea14e64f737949ea067bdc31e7f5cfe54ada",
        ),
        (
            "42b0d9797bc1ed576e45e326e0f9eafce9dc58465476da5bac92e6e57a030c8a",
            "9bed85347f97195f6a262f8465db7a6ab8cea8a2149ef4ecae0372ea0f416e78",
            "f13580444d7dbaaea71674c28bd970db27f2c455bba21e2e28d704410411ddf1",
        ),
        (
            "42fb4859b4535976d899f6363c2f7cedf73c2b2436f40add32984a49a8106f56",
            "cba7138d3e8e06bf8337512704297ea8b1bb4c4a8689ae618272bb96a3e8e398",
            "bd4439c1b6fdc4530ec0ff3114aa712c571b1d8620b9bc96417700afa349b486",
        ),
    ],
    "many_phases": [
        (
            "935117f861aab5eedb4d8549bf572c68a13bfbeceb6701d92fa6c356c80aa43d",
            "9a3bfc3df930e44f3a9235625d936dc1db09f59336e77466ce2180596e7a3de3",
            "bd1adcff071bdaad4a36896f887e90d190f24404327b7bb764cdd47651b0aa2d",
        ),
        (
            "d7cb23b74f136d3867a2a4689f492be1d87462e120617dc18bb1bee5cbb907b3",
            "dd266c139eba102bad3ab4c81e048f168ed40c16c6b75f16c96e8bb812693b71",
            "2141df68ca76a80d1d9a1f0b80279b86678e8f1d5f2e80cf78bc2882cc2dbefa",
        ),
        (
            "54248bfe623f1026a343f22958ecdb63b5e9dd1e9c5d48c6db348c1d71231b15",
            "63577ef9c03865a6594098acfbe9a4c3e32681937052fa40b03b427b20e90a5b",
            "409fb67afda14ce816b830ba8258831ded9f818c3a10e55d13245e292d590ac4",
        ),
        (
            "c6c0ee2b8d48821c35ad2257ebcdfd7fa493206c3cbfea845320db6bea63cdff",
            "275926268cf5f4235afdf974fef465e96522066b056ca73f43020709d993802b",
            "80347e875f12ce6ee09d7aa158daeaf2c43a5e6f214daa67c9ca4c92399b5947",
        ),
        (
            "570e59aec71c34e444696fcfa585fab4f47005e945f73ee5d876d8e9232cec39",
            "0eddbf74da1f380ce0dfe128abcc03b6571613cc42efc7c0ed75857ed5284091",
            "104f65168d4f1604f67986607a3bfa495cb0ca8d197f3fec2c6ad84040ba6f33",
        ),
        (
            "ab26e90f95955447ca5febadd82685e4c7af2657636ec87914da22b10c5d3170",
            "96ca66ea4ed717f7638197aaecd37aa7098c8bd2aae6b22dbd657b60d40f2555",
            "f591c8fafe4fa89da1d47aa7e23078bda4baace473c39b55d5bc93b54a09fd3e",
        ),
        (
            "d5622fcd4e00ad4b90ca49f955e4eac22ead8955b352e67c89c00b5da68801f7",
            "08c4128ca9d8e1510ca3ef6b2da649c47b51b3ee9692cfd8d4d3055f8997a437",
            "cee6f4852d24568c9031cf05fab5e945e41971f9ab7951164979a001067feb82",
        ),
        (
            "6279904375af2be34cacf08c70cf30a65842c3d19456d9a7684deacde4cbb23d",
            "17fef68aa5a12905f4f4167ba510da3d2fce9c382d60a4af99e2cc374a1bbac1",
            "0e2934b3685038cdfd6d9341a2d5964cfb870cba40c14a78b5ab4a84e87738e1",
        ),
        (
            "efbeedecda4014eb48582eb3fe09c76a1a6471098e812060278e82560ad41c9b",
            "1562e9cfcbb4ea91c3c647a64359158fb3274c7c92f0e54643b9439597470457",
            "24d7fd55a8aae469e6cc32121d0e91824d17ba72413445c7d33f79c11da8936c",
        ),
        (
            "e69a11ee1fb23c7f50bd016e4e48647cbc304b37ef0805483f95e1efa888f1c4",
            "c8f4115d916af31423ad82fc15e51f76c2c990ffab06b580ba1722e41ae297e6",
            "69db7d39b4347825b627e8797224808467f2401af79e1c267160072284cec131",
        ),
        (
            "eec339a682fe98bc1b133d43aa86c6c683d0b1cd5923b9c9d76dd5b7f0959648",
            "73830efeaa84ce99e5e82cbd052240a04425598a5bdd688ec14b87c53f30e8e6",
            "bee04cfae4f4ece322eca01db66c201e209d4a9cad38d9b3af1357263b4a9e43",
        ),
        (
            "9008fd09c028ce6f127ff0bebb5c616dc2b8ad17deb2d21b2d04e812caf5caf9",
            "da067c5c15d28a4ac782ea4cbbe2cbb7258cd105a33a4accb5ce7e8a679b4bef",
            "33c851b91fc682dbd7942e659617e5f509568878dc3bf5aa55a4927e2b76aae2",
        ),
        (
            "7a523b6f843473bb5fc0b9991b57a39fb2d9e36c26b4a57ee29a8af0d2f9bf8f",
            "077bf1eb352d9bd9dbfb12871dcb6c407b798f2e02962ac060df62fe7ee99ba7",
            "dde932e718b66331b1cecb2d7205ecd5c2d1260339b5ecfeffd160f710924a53",
        ),
        (
            "ea6c2cb69611c248d46b651e29f8947955ca2511eb10c81a05638d4286d52749",
            "9e9f15b5ed02d7699a094c14b666594937ebf43b66fdbc87a6b44ae27bc7e0aa",
            "885906f7052ef18d92db3e6c88d27be40411f2e826b886b2c7f350139548e389",
        ),
        (
            "29408a389aa7fa92352d317c423afd553a94d7ec8a64cab6335a42bad1656aa8",
            "a5b18a782413a275ca03dbc6993180ea4e249ed267f00a4e1bac5c5d27cf79df",
            "f84339c48c6ef47528dc93c6b2c5e048afaf86a02acf5bf755707a7f9af68b57",
        ),
        (
            "1b21224774728857ef55eddeb818c8f2d2be01e4c529cdfc58b9776ef5ca2512",
            "56a10356f7031d823c5e6af36228462af64ba8ba1d663b45387a61e40bb5f374",
            "6addc489c163a59fc6de05ace873f74f6f5f3fbb423ea609f99af8231b113afb",
        ),
        (
            "64167cbdb5f6a81c5ad3ce17714ee28760dfd0cdebfe06d43ea01b6f89cd4b19",
            "0fcc61b159f664849a0a64d40920f99205e5582e5b0d99f1454bc57ff3fd9ab7",
            "707b98485e65d47e2bde2b63412278d35de709cdd0df6050905606994f957302",
        ),
        (
            "624ad37d242ccfe8d01fe867c52adba77725ddcd35b6ae5995e52fd11b3710a1",
            "3ae0768d24cb06e67e8df2d2a53435b7739ea46c36de4002b1f000a179e51a18",
            "1426787be2193226f0488ae765d119f036373be1a7e9227117662acf47728a8b",
        ),
        (
            "a33a6f96dcdfa78e18fe1fdc5bb18a8cf90c1cb563759ba78a5343c52f50f8b9",
            "ca1e66ca702bdcfb378f6b59dd367c9c923bf7ff2760ef1336efd5211c1a5733",
            "b54c6c7cf411662352ba451da0dc5451e9dcc828e4455258d1ee93675e4b1a0d",
        ),
        (
            "70232f05ea3638c22beeb650c070d4dee067e82dd8b03e2eb15db22ef26070e5",
            "ef27b468853d84b88a0566219c1dc8961aebed3e78a1bf2df9d302afd5eb31de",
            "edbdb4d1af2b4178ba4afa05fdf21b27f4400d8ea1c9f64049fb6a0a09207646",
        ),
    ],
}


@pytest.mark.skipif(
    RUNNING_WITH != RECORDED_WITH,
    reason=f"digests recorded under Python {RECORDED_WITH[0]} with scipy "
    f"{RECORDED_WITH[1]}, running Python {RUNNING_WITH[0]} with scipy {RUNNING_WITH[1]}",
)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pipeline_outputs_are_pinned(shape):
    got = [run_digests(shape, k) for k in range(len(PINNED[shape]))]
    moved = [k for k, (a, b) in enumerate(zip(got, PINNED[shape])) if a != b]
    assert not moved, f"{shape}: outputs moved on instances {moved}"
