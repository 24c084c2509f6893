"""Behaviour lock: the bytes the CLI writes and the sweep's values, pinned.

Each case (``shared.CASES``) runs ``wsnsim`` in-process once per session,
through ``conftest``'s ``golden_run``, whose files ``test_metrics`` reads too.
This compares the sha256 of every file it writes, and of its stdout, against
digests recorded from the code as it was before k-means and fuzzy c-means
moved to array-only code. A refactor must leave every digest unchanged; a
change that moves an output on purpose updates the digest it moves and says
which one and why in CHANGES.md.
"""

import hashlib

import pytest

from wsnsim.engine import FuzzyFormation, sweep_iterations
from wsnsim.model import NetworkConfig

from shared import CASES

DIGESTS = {'compare-trio': {'<stdout>': '3c40fe8929b47b9ce7444e460e2f7a2e349d5330b8ff061ce16af040ad43d699',
                  'alive_series.csv': '45eae11f02052e94e01125656716b13cd9dc2574fbd667be8ca029b48f02ee1b',
                  'bs_series.csv': '721440bc069e8091ef6184d8b87c58204afd3edf84f3899ce2888d2ac0a237ee',
                  'eecs_seed1.json': 'b14a1e99d89178d9e395dd09fee090db29d3242ff936e29da2b533a30cc479a8',
                  'eecs_seed3.json': '37ff3e597950d586de0b4af82e8884b83a9e63270dfa69dbdecf513be136101a',
                  'heed_seed1.json': '00073869300a7ed35b03452151db6e677d65e63a3d3843114c736634ef3bd311',
                  'heed_seed3.json': 'ba9ea4521713c0234f8bd363909127272bd4bf84c8ca58d4e2fe8ecb1fde4ee4',
                  'leach_seed1.json': '01fcdaa15df53d7a9a742ab988efd81607b998667811876070d780a8fc1c68fa',
                  'leach_seed3.json': '469322ea326d5243af46795447eb012cea00554eafa86731e8df9b70e8d26265',
                  'summary.csv': 'f56e526b044cf1466aca637c1112ade1f83b8d6727935810ce1a1f4482e1c029'},
 'run-centroid-k7': {'<stdout>': 'ef5bc63fad5d76d11ece0f5f218d6243e615f362eb6927a48287b1658f35569a',
                     'alive_series.csv': 'fc2370891ec2ba937900e3ae4a850583fe71bdd946a3e3f842a9882b11aa411a',
                     'bs_series.csv': 'ea38e985c00f2ba0318999226549f109ee7d95ac20f6f1b8557b9ea3b303f507',
                     'fuzzy_seed4.json': '1687d476a67bfbbe8261fd363df920b4003a677aabe3477b848c2a35859cef77',
                     'fuzzy_seed9.json': 'f2b856d5183589430fbfa02c367095d647dab011d0648fbe81cd9f1f0d822151',
                     'kmeans_seed4.json': '6fd10a39815f76bfcbd6a41026e52e22b789946586f30a3d00f834e0ec3f44c3',
                     'kmeans_seed9.json': '51a84962a517de71d3dd6ee83065414c30c9f56d088a9d5f1490ef6c7eff1aff',
                     'summary.csv': 'fb955146aa2c9d4df18b6588a0060e6f996a408259fb367a0ca34599080ff07e'},
 'run-centroid-k8': {'<stdout>': '64c5a7984d6b9fa03b3ef22a8f9de9de931d6b1796447ee5c4ff1eb0d1ca3db9',
                     'alive_series.csv': '4889cea9f7884ccfef4c94bcf837c62939320d40f92021f45567471b55395c99',
                     'bs_series.csv': '3875c65460f920a3418ca7dd7b189e274d0471ba8c328322d7e0bc9c2ef3ec77',
                     'fuzzy_seed5.json': '8c282bb63601dbbfaf19f6ffcffecc540d764120cd9ad3aa3abf4b46768c15aa',
                     'kmeans_seed5.json': '772cf59142c24adeffa4113a882320d81c6dca36ad9a8463ac763098a7401238',
                     'summary.csv': '195c4f9393588ec225be06b1fa02feb328b9dc88223113233a7cf348a76a20ef'},
 'run-eecs-n300': {'<stdout>': '0b674236bab8e5a8171a5ec41d341f7541d3333feeffe2b02c3a6fccbc4f9cec',
                   'alive_series.csv': '2734c4e6a42f8f6e69e3b8c156dfe3c90cce1f3813efb7a7c296544425622c91',
                   'bs_series.csv': '3bcbaf8edf9ba1040c207392ba5f8408b60ebd1c00bccf23d47792887890705f',
                   'eecs_seed1.json': '589ced8b8fba7174804746a2deaaf19d2ba2341efd2c9b620d82da418dad55f2',
                   'summary.csv': 'b03d2ba55dd0cd259edd1069c36a640f52f678de8b9ebd0341912975f70f702c'},
 'run-eecs-seed2': {'<stdout>': '1debabccaa4d793d9a3c73bceb06a6dc407ec19767d0821bdce1d09fa9f190fa',
                    'alive_series.csv': 'b49e173cbf4f8e5aac14bfdc9c7ba605391b55c6918018ffbc9c4b70bd33ebae',
                    'bs_series.csv': '5643434a2457a2fd9f9264dc0aa7fc362a4465f600a0bb8793c74164b675d3e8',
                    'eecs_seed2.json': '47091ac039ff1a7d84770ca10ee7829a3548cfa19cf6399c1318b64d1ceb1e4b',
                    'summary.csv': '9a4df82d574644caab2b9a028cb6d21548547c8c631c879879cf0338d10e4011'},
 'run-fuzzy-seed2': {'<stdout>': '6dbf7a40b09057c954d9546fecc8bb2d5cb45487f450c15efebc7ad6ceddfeed',
                     'alive_series.csv': '5bc5d932c814dc6753b35e68324149e9f307e638cf196e6ad2f5ffb5252e6300',
                     'bs_series.csv': '428a30bc65c412272497fa580882b15aef2248269f87d1a1e8e83969c8214c44',
                     'fuzzy_seed2.json': 'f8faec8135ed0f416ed0504088434beb0889a9de489249929c124bea855f6dda',
                     'summary.csv': '66ef83c46b181a14df1e5d46e699807d7f0e491bb337c60a309e558cbf054117'},
 'run-heed-n300': {'<stdout>': '507f7b23fcdcbbe3c18e86a6d2ef88789265447edd4f05618145bfdcd03f5c9b',
                   'alive_series.csv': '8e846c9eb124e2cbc9cc520950f71244a76242dae9c66d8eba6c63a137f6eff2',
                   'bs_series.csv': '1c7cb5543ff6d83ebc4b4af9dc4f11011cf7b05ad603c4bd77fb7d1fc9c5ef54',
                   'heed_seed1.json': '7d0fde2b03e9e3dcccb588ae2c96ad2a3c0f17e733d9271239feb7b5b3b210b4',
                   'summary.csv': '58db9ba8521ee94617879aaac68aeb8bdb2ad2ba2a0e5a33a716b9bca30885b8'},
 'run-heed-seed2': {'<stdout>': 'f45fe95b4b6abbb16a2c6795a22f77cee72ee38d8ebaf3f9d0dd91ae791fbe1e',
                    'alive_series.csv': '6e14b4765b6da6cd0138987fb244c4aa823c01a655e75afff098e10d06cc2bac',
                    'bs_series.csv': '37383da9511660cb63cf863321a5cb1a1e4e65a08e235bb08dac514df7cf6eeb',
                    'heed_seed2.json': '200fe4d15b10982de5f6480d8a56204ec30697be52b02f6942f727d1abe79c40',
                    'summary.csv': 'c420df81edb0656093efaac6390e5a588be30340f56d9b8603492f17bd6050d4'},
 'run-kmeans-seed2': {'<stdout>': 'd61964f0f878575b02102bf802065a9a54b5cc10e3b0a4f4a3ad94a5ddc84fcf',
                      'alive_series.csv': '47fa41abbae8b30f84dd617b7066c66b89067ecc4104c33e2b9a378ec00d13ad',
                      'bs_series.csv': '72723f7cd656215d6c045716162aeebd1c196d8bf6a75f816b773a4d515f0da9',
                      'kmeans_seed2.json': 'cb480618ad53ccdc60159c2b591bd0fdd212162be213bd54c6a00570eeadded2',
                      'summary.csv': 'b8c2e5a1f3965decf8732969872f7ae21cdf0e16a61c66e866d2db602bec6544'},
 'run-kmeans-n300': {'<stdout>': '8d527614a5cc238dc0a35ba2e46eb3795bf01eb072bc5b6ad3fe636bdcee0d2c',
                     'alive_series.csv': '91b423db524eabc81dec2c9e5c3088cf82ad363473f114f7daf58c22e81fb3a5',
                     'bs_series.csv': 'c0f0dde2f41df0eb64a17fc01dcd6375d855ab9cfbe25e920787884aa67d4b44',
                     'kmeans_seed1.json': '0546d45fc43feed7e48a5dbb97f80bf10c25f45cf3b614fb02170525b14ea934',
                     'summary.csv': '3915dd22d980edcf4a04b1fed91f0d7e948e14622d9b0a2f86e3fe9461dc5c69'},
 'run-leach-n300': {'<stdout>': '29a07dad244a08ae7088f002d9ca4eda777449513a490f57644a090d82e5450d',
                    'alive_series.csv': 'fb7570e4e6d99bb552e1615951355d5fa516740e6cb2545957d6d8ae218aedf1',
                    'bs_series.csv': '6b504485faaee3697bc66576011db75a1f25389d5783c934a7718db381117997',
                    'leach_seed1.json': '608c61e88cf91d58ffc2cc767d1045723ddcd63c8a07d36c69874be4defc8106',
                    'summary.csv': 'e8cd723d6005cdb0d755961335d15dc2cf8a4056a77a6cc8789553fd9c663cbb'},
 'run-leach-seed2': {'<stdout>': '736dc935d9e4d8e0ad7145f5e91fa6eba9839f2fe8f6b6aeb9c1b3bddc2b86f2',
                     'alive_series.csv': '297807c1f25ec8857f6a3d8dbcf0793f09f11452419b8a01ec23be487188d308',
                     'bs_series.csv': '632de1855b5e17d839514f68b341e09c3eac35b43cdf906ba5cd1704738ec90a',
                     'leach_seed2.json': '0238000b8018feaaae2357ebfa86fb1841f6384ba966b7f613341d163619bdf5',
                     'summary.csv': '979b33001925d5b714e2f79c94c52cf200be9e7888717c0fb03d8d16771f02c9'},
 'run-separation-n300': {'<stdout>': 'fbc8096fc8b0e2ee68b769cc4463d764f55681dd6c6eb49bd2780d895a8a2aaa',
                        'alive_series.csv': 'e196e31155d3a87b02dc9bc084e4d835199ffa0f08f8258dd7353ce2f1398092',
                        'bs_series.csv': '8cc954d1fbb96be42458cbd12bac171ae6d4f968ea8a267459372dffdb5c0637',
                        'eecs_seed1.json': '6a053f6fe5f6bcc12a691405d2e0fe10e60f7c1e68aa9226e8d5a0041d52c784',
                        'heed_seed1.json': '4fbec8d4fa83fd47a12e4c3a62db31ad53136e09cab08a7c798f2eb6071b1eb1',
                        'leach_seed1.json': '02e32a26b0a37f7f003296ba6c6cfcb7e78fdbef38ac9bc02a51b9407fce476c',
                        'summary.csv': 'db5f07824dc1b3df9bc78f828d4757d0705d0a8025f17b538cc3e0cd2bafa884'},
 'run-separation-seed2': {'<stdout>': '8d2886ae8ce2a8df14a84b0bd860f8c4e63e8b186901f9fc8832a1d6bfb405f8',
                         'alive_series.csv': '204b8b07eb262f67dc40ca4ae37563fc399d002b6a7c8e89ad2c44559999caa7',
                         'bs_series.csv': '2ee716d2b016f1c2ba1f83fb453c49b1e199b72d82949afb4dbefe2034b82bbc',
                         'eecs_seed2.json': '0f7e1811f1d214cd60384b79ef51dd4f832dc912d0a638f13faec75ea920743b',
                         'heed_seed2.json': '91c60364a03aabc4103ff7b876986555fe79305b7b19660e221afc6ee7b832ff',
                         'leach_seed2.json': '5b81713590bea73b04081a63fcee424677eeb863395b19d0b5392bc1fe49363e',
                         'summary.csv': '21e360ece43273644e30073ef72d103c004e9648e6bb93562222be721f3bfb8d'},
 'run-table1-seed3': {'<stdout>': '04c4e987c7d984f2da0260f2b10ca07d490729a7755511561aa222fad7f27048',
                      'alive_series.csv': '5c67550933cf04096d994777296971b03918b331dfc62b2748dff02d89537e3a',
                      'bs_series.csv': 'da86a8c658ebe5bf2ab23a0499cf6fe2bb32f11b6ade721aef1b6d001b6dbfd5',
                      'eecs_seed3.json': '6dcdf181a83adb9c43b33e093564788dc88a022cf175c3bc9d11382322e6e1ff',
                      'fuzzy_seed3.json': '97e0c6c1d43d01b21bd89fc414b26b3abd3171df6d626417fd0a1f08ddfaba7b',
                      'heed_seed3.json': 'aba7c020b7669a9d2fee97ed3f542becdd07186cc0ca28d9730cc7a1c3285ad7',
                      'kmeans_seed3.json': '4df2d6023a87a2a087b5e1a2c3dbe330bb687e9b643033aa34493febced76ec9',
                      'leach_seed3.json': 'f9b3f9b93eadc7ffd5df755698152311c13bb7501cbfc7b9ef6367275994cffd',
                      'summary.csv': '209da4f43b34ac347326f7d0a9868228a5270e7fcafee10bf319cd165eddb850'}}

# (base config, grid, seeds, max_iter) -> (k, kmeans mean, fuzzy mean) rows
SWEEPS = [
    ((NetworkConfig(n_nodes=40, seed=5), [2, 4, 8, 40], [0, 1, 2], 100),
     [(2, 4.0, 23.333333333333332), (4, 6.0, 37.0), (8, 3.0, 64.33333333333333), (40, 1.0, 17.333333333333332)]),
    ((NetworkConfig(seed=42), [5, 20], [3, 7], 20),
     [(5, 8.0, 20.0), (20, 7.0, 20.0)]),
]


def outputs(stdout, out_dir) -> dict[str, str]:
    """sha256 of a run's ``stdout`` and of each file it wrote to ``out_dir``."""
    digests = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case, golden_run):
    assert outputs(*golden_run(case)) == DIGESTS[case]


@pytest.mark.parametrize("index", range(len(SWEEPS)))
def test_sweep_iterations_values(index):
    (config, grid, seeds, max_iter), expected = SWEEPS[index]
    rows = sweep_iterations(config, grid, seeds, FuzzyFormation(max_iter=max_iter))
    assert [tuple(row[:3]) for row in rows] == expected
