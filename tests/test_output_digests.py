"""Output-drift guard: the bytes of the structure, tree and orbit commands.

`DIGESTS` holds the sha256 of `strips --format text`, `strips --format json`
and `render` for every grid with 3 <= k <= 9, taken from the set-based
structure code before the array-backed index replaced it.  `TREE_DIGESTS`
and `ORBIT_DIGESTS` hold those of `trees -k 10` for each `--emit` and of
`orbits -k k` for 2 <= k <= 9, taken from the per-cell zipper and the
brute-force orbit closure before the batched and cycle-lemma code replaced
them.  `ANNOTATED_DIGESTS` holds those of `gen --format annotated` for every
grid with 3 <= k <= 7, taken from the per-cell scalar zipper before the
array kernel replaced it.  `K10_DIGESTS` holds those of `strips --format
json` and `render` for the interior grids at k = 10, taken before the
staircase cells became on-demand and one JSON writer replaced
`json.dumps(indent=2)`.  `ORBIT_K10_DIGEST` holds that of `orbits -k 10`,
taken from the string-member orbit classes before integer codes replaced
them; the test runs it at `--capacity 705432`, its exact cost of
2 C(21, 10) class codes.  `K11_TREE_DIGESTS` holds those of `trees -k 11` for
each `--emit`, and `K12_PARENS_DIGEST` that of `trees -k 12 --emit parens`,
taken from the list-building listing before it streamed from the array
kernel.  `K11_DIGESTS` holds those of `strips --format json` and `render`
for the interior grids at k = 11, taken before the report read its
staircase cells from one owner grid and the writers filled runs of records
and chunks of rects from templates.  `GEN_K10_DIGESTS` holds those of `gen
--format digits|bullets|csv|json` for the interior grids at k = 10, taken
before the UCS-4 row speller gave way to the one ASCII text speller.  Any
change to those bytes fails here.
"""
import hashlib
import tracemalloc

import pytest

from ziptensor.cli import main

DIGESTS = {
    (3, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             'ed1d76564f4c84705f5e8f8209409e5aed5efce9b44d2f375f9ab890b4e4c0cc',
             '4e4702a00a02e2f9674811091d9bdfca0a01d3cbec7d313ea32d3066849ddddb'),
    (3, 2): ('72b21236743b4da93d64634477c14d63c07f34d18cf72a42caa14c35f981b0d6',
             '0d5f2cf73de4159433f386c17502fc27597b0eb363b7df2eed8c855f1fc4a3ba',
             'e1f55061b40a8b7eac6eab8bbb9c306316e96820079b9318928bfa8dd7c0eb23'),
    (3, 3): ('70a1e2649b608fdc34124c44efe8bd8f67c63b4155e759e919279e28ccd80933',
             'cb153f9bb54b854c610f425ee64cd34ffbdfe0f04a339e5d2943dae152ba6232',
             'c7b9b3f6fd7f67a7abea60788625dbd4247afa2c32b24f778ed9b354fda26f64'),
    (4, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             '3f08ca8a0e6f1588d1bd790dbb5e82961780fbc9f37ac08ad90af6a3709def05',
             '3e5d7ef3d43ad6757cb4d9c204cb725303df3bb6a2b0dcce0526d65f7a55f8e6'),
    (4, 2): ('0d42edc52b67cbc0de9d0648e69bce4ed37823275adcc7e6d55eaf1fe7efb886',
             'a6809dbfe0a9a5a35e73f282e5aef00d75a2076e950263467415047425b80df5',
             '3d92bed24d13d3bb84ce07d005a4e0a326b7d31860b3a62b3b3c91a807e3ff7b'),
    (4, 3): ('9350e07ee34716491cb2b255fa941cc7f6ff74b15749b5e3595bef292e287285',
             '88f7aee90998cfbb83535c5ba55dd8b7dd7d3f4cc8e4c9b45bda4c75238b12aa',
             'd6aeaa88e9dfb238a581b23902cd2e392f0d7cf64ca22ec6d2d6a3d8efdcb99e'),
    (4, 4): ('dd8db90b9aea97d7b50f7131f24f10584833601a8a2da307ca4a9dc305c2af20',
             'c0f756932b5b4bb7fa6c6d1918023bd4b4801d446a90a44e0c517b979037b4b1',
             '3745fce37fd9a72de947db870c11233fd1cd58b83193fc956f2720865bfda3be'),
    (5, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             'aae302b547c428cb4e584404657e6663c95a719e619f5ee50a6e0a7f3a899ae4',
             '26f8856e18ca730d8030ecc730f80c92dc4d0d943270bce8fb65cc91b8799c3d'),
    (5, 2): ('5c606aaac77d2515344f48409a41baa7e97f33d33efa56d5ae6e491a9e373b17',
             'f2703008cdd02c64a4e8cdff3ec2db1289e948364ceaf78f42c69b7308f83344',
             '8031a87b2f388e51f2b018418cc99e1e0ba3c0d3cda695fddff279670795fc62'),
    (5, 3): ('9736a0e860980848184ffe0484fa3ce7d7e2c0a1c1dbf8cff61e7f9db227d23b',
             '21f8d35f4bd0af29eb8e8e4abf51c2afd101fbec2a1cdd3a8dda1fcb6ea9409b',
             '5b30322f91ed074dfcd29735aceddf0af4f67651497d5f9c2ba2c401dec9cac4'),
    (5, 4): ('0bbfbfdda8c5e95a36ae798b86c1f57f218295c64839f9f00cbb794dd54960b6',
             'e3c84e0f7e5286588f17ccd2906bc16a5f17bc51c288d43cb80335a8cbd522d4',
             '05e21f6ee38c77555a2f392e53a9d44213f4861306ba098ba666e937c413e771'),
    (5, 5): ('40a27c0149a704cafefc1220dd76c49adcd705961b93cae1bcef3b9b49a45097',
             'f3828210e2e9e5ca4df6fe27014a2869299b5f90d93fbaf755ae22d2e0576770',
             'e2f3539080de5e1cc1a3501b452ddcd34564e842e4479285a90c888d1b6d9398'),
    (6, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             '71bb6baa13e21f41abdafe54cf430f1d42ece4eb84c88f4e522223f1fbf39478',
             'f39eea13aba8c41871d6a1f8e827f376666fe6896b1c3f78aa751a91e5e18ac9'),
    (6, 2): ('5d3d89f29b4119fa38b23537fa0730149410d29380b0c93ca38cbe99607d5312',
             '2bda6abbd3880fa52c55c511c199a12d075293e7af8017cf4ca617cf70888dd9',
             '36e0f3ea86ba2a0275df9d9ba6ba5950116f3ec19ab81e4cb170e2f43d82a43a'),
    (6, 3): ('75f3ce75fd7c9c6a4a7c1f2eeb549b8d49dbed74ebfbb0bb0e8d81a9f078f998',
             '41672f1db970a4c0e8041b1a9f863e4bb0e6e1a93b6ecdc7fcd6136516235c24',
             '8efa1746934be243780dbb5f58fc93bc0b6bdf3e0c22ab98f8f34013167eae30'),
    (6, 4): ('c43ec89e22b89a5485d112737ae7801516bf8f2c1fa3635e9caf8cbc332c1fe0',
             'f6e3c6f524f0bb00a82164fbc04f09525cdc2d0d6925969c29dcffcbfc18abe9',
             'df782b0969a3d70c6210b3959116231d0b9442f149a522a4dd8dbd4979a4c4e5'),
    (6, 5): ('dcaa9508d3da917f24ce461f619c133a0d9304a528edfd223f6856117322822e',
             '25285ad6afe2bc1f3989487b8f2d7f603ac3b68ed7949c246553b9611b5090cb',
             '3f97799c76f2e69570563369b2c8d92d054683d2c0ae91182a9524ac011ee5e1'),
    (6, 6): ('c5f9ecff73e7a5f45b9f065137c353810aa5b6d2594bf599f67e1fef64eb3230',
             'd3a60d242aef825406b88076126690c00746619d0ea542e97a12907774a2ffd7',
             '787db11ce8bc5cafbe180affdb15b6de4f1e735d394981814bb5396eeff74f49'),
    (7, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             'e555e95162a49274de0490e1a5392b31434ec87ad95f33ce1a44b14625274bf8',
             'c904bdd993da12e71c67e8198ce49b7fef3bb109ff3bb63e1fd3c27686d10558'),
    (7, 2): ('a933db91fa0e2f173ea60888b7f8b9a29913da5b2500548f2c3b50bc80c1b918',
             'd17b8747ce6ede1ef391ea1b40b3e5306ed7bbe2013407f2d6ba56715b0d5e99',
             '230957f30fd4d4ebe660f1921012ebce32683806ba189c1c43877231638885fc'),
    (7, 3): ('a13d8a238fe12897a9b53c9503f33f744ac657eb4956b789feac9d9d38fffd08',
             '869a9b70a2185bbe42807fc859a4665beb2a2274660373e1afb075c2a2784a87',
             '4e0aab5ed63c1752b846db3b37d916492fd15f75aec8281ad6f2839dd654fe71'),
    (7, 4): ('922afca4d8fdb18d7753181d7f3610a8b1e755694378571b1ef2c4af306e8f79',
             '8a64ceb6cb03d06d64203e936853b3ad4a061a73b098ce12a500b6b91581f540',
             '8a286dde39adc97efdd5571367964d94541d92584bdad14beeb4195d43196536'),
    (7, 5): ('5ef26210d60bea9de1f2a93e94a831fcb1e914d88a888520494c6ea817d9a605',
             '1f26189812fa40dcc53c8c359e0c805eda3a7eeb121fb5f4821f40263858ef5d',
             'b6d9da809d6989cdf0c011ba9cdd46fb51a39ac49333efda82d0daa8eb506092'),
    (7, 6): ('64b03f2aa354e9d4f150e7e436d3f945b54c43d58fc9d48f972c6c127ab9c424',
             'bc547c5e756aec9f6a9b1b460c49d064643e9b6a17134cffd69a7126ae5fdb86',
             '331e42129423379438cd210dda3e4687bc688a786970dcae4c0f9123bf3816fa'),
    (7, 7): ('7058a364135bed265b3c42e8592b5e793f41a93d67ebe6291639c874cfb79c41',
             'cac7140792fd2b6fe3150e0fb8e6e9e2fcc3031be88b99c5866a44d73bd2fd0e',
             '3f81e5924ef0acada5b16667d406f01609ea30512f1c5aa735528cee204f00ec'),
    (8, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             '22deabdf447e7cf5a30c41fa1e1d634ee553455df08eb701d5b529cc2fd9818d',
             'cba456c87a05f78e3c928efae6cbc79f9682738195ce72752d4a4ee6e21a499c'),
    (8, 2): ('854f099d4e173914ef99d4712947039e103e4f60bca7b4a2db8264d9a23cdb03',
             '008db97c02068c1e31d415bd6a2d51f0d6fa7d4acdd85173b9c02c0430c89902',
             '9fa8865612510ac6e14df9db80276a7ca327191f30a46d16c949963c77adaa62'),
    (8, 3): ('c269b4c1ebf232908b20693b6517efe8f820cef80722155dd5a59e14c0599b80',
             '93be4e0211b8c9cd0b0ce118d515278843ee93a7f988034e7f529fdc2c18dd18',
             'f112a1d02d1f13a2a4d1a700beb363db310e96fb3edf58266e920cae69101493'),
    (8, 4): ('f949a0462d08b840dc3a2993f13d08d40869fc83a78c5ed2cb0881925e2b2cea',
             '55c3a4fddbbba51d059d11afab615baba0157cccc1e584ce627c5cc9162ad45a',
             '56dc5300129b32df4c682ec646b205e5671da1b61a5a6e9697fa1d324a6e1065'),
    (8, 5): ('d87201074cdbe939dcbf0239db1fbc72de434876e6b7e977c10e1fad6ad033cc',
             '7a9ee589225c264e808aeebce6522b40e2d0eed7dfe8a09ba0854b7bc8a13dc5',
             '92ac6a46e12cb4ae4860a91e4a8c0e85821dac29a88b3376785b1e4324861a5a'),
    (8, 6): ('fc8a874abfbc1e90e627ca2526dd71794b5807098ff16a9217b33a89cbebcf32',
             '55f67fb1669ebea0e204cb7f3b2eeaacb06cb7378a82fbb65f14beb53981812f',
             '95af85eb23afd3e6882e61bdeb020f650f770c381c0864d6550b0a1266715510'),
    (8, 7): ('90079dd357c8bd25d2f40a6e82ae1c7e5d0cbfa135d5d58c5c534153c0700319',
             '5edc2408503cd9d0585d0152385e1c803a3646364c957fb45c38953146eb7145',
             '79777f5e6820fd42c4f2af758f310a3924f23c6f6e53f30a0f0404cd11b9c97f'),
    (8, 8): ('137c7679bfedb83793a14af6f4f4e229ab63bcf0f66e5b60958042c05401649d',
             '729e4e1bb3c883322374ee584868056d747c46dd65b5969870080aedafc988b3',
             'fba6e0d8a46d3abef6f0b7f01d992fd3a7e44b11bab0067d8c88f0a8095a244a'),
    (9, 1): ('01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b',
             '36b8cd6c710b8d52183719c1cb0f8a48dd1e72388fdd508bad540b6f07c333f1',
             '978dfe16e510efb6f8767402473067bd0f51c672978d046f80608756c7bb51b7'),
    (9, 2): ('c02451832005b0d518a11d938eeefc970d322a99fe0d9c70e8c79e2e343c3a8b',
             'b8c7c662949b710354c2073d624711a3e2997b1deef2d2f5a27db04221001bc8',
             'b71538f459e83a380e3b262023a690e7ca93c156bd00f3ce7996268b21e86f00'),
    (9, 3): ('8e57beadcb9e4b82afdfae2c00a93738f48986b1dca3cf388d75fd363065308f',
             '81860381ba2acc9414f5febeee694b3fb49668b9ddc67299804c96d0719f9662',
             '65a3b9a3e11917da35cf192dfa5fdaa4569d4866ce647d7da575dbc2f7ad8c90'),
    (9, 4): ('5ab8daa5a9235cf3831d54c5d769eb9a554370284cc1cb77100cbdefeaa15468',
             'c862e2a96b7ad711469b9ba5f37ba7a64e0ae90cd5a6014a80fa6dde17df34b0',
             '9aa21f603e693b49d68e93f2ccc99b80c9d2e59b79d6cdc1c5272a51a7b6f24e'),
    (9, 5): ('8320e46f01f13f70292ea99c5ea93c57cbc0b8a58fa7e9359a58f98ab0b7b58f',
             '26511d598d8d439c5d62db52ae9604c7995e404c299340338a918f14755d6300',
             'f6e617e018003541d17dda6aecea92accde4788217eac2ea70dc4d3100cf64b8'),
    (9, 6): ('7a035e6cbdaa3d50f755396b20395350f24fd5dc88ec4cce27d139fc71f6b122',
             'eeb64bd08eab58cfca8d0bd1e6902b336ebda3105a8efc8c00220c4fb3ec258f',
             '58c7bb013befda93b5d9449ed94d0d50f4a924c363a960028b349726d577d7be'),
    (9, 7): ('5dd5a7e78c1f11a68bc4298605506cd558a29f51ad2a5bef8ed6f9c810d8686f',
             '8cfc7ccfe443a9e761c2a357e2da8f1c057a5a46d3c19bd363c8913326e9794f',
             '4b4d5f17504dc15708f6066891cb995c2a02c25f339b1ba2d3c0513cb19b1341'),
    (9, 8): ('8f6d41548ad62668c91c4557cdfc36f737a42dfa9be42998cdee00a1572ef760',
             'e8f2da484493f4252d13018b9653642c66ad6ea6e67ae3ea142d26cfe0434648',
             '7d0736ded200a7ef2bd4afa2bf0d58e4f34c3f83e784bf8b733ec8c47e3903a2'),
    (9, 9): ('f1853668a2d41757d7f57ab118e239a1f1610f91228c3a0ebcb46808f30da7ed',
             'e256228744bcdfe16d5bd3f17042da6da11f3ce1824f4783622a165cf84d7091',
             '6d1f1dccd6ac6146c50af8c9605ca9925183eb6cbc70808aacdd913afd0ab3fb'),
}

TREE_DIGESTS = {
    "words": "c3c8a3e248784160af51eaa0b97b9f4d7d2588b8f7bd657b1b17a32668cc4a9b",
    "parens": "e91d8f6eaf20293bc544fbfd2282ea27bb483bcd5d2238da84677518f29c853f",
    "dot": "4f7abb1246898216bc8f199a327158f759fea6eb026c32a63e50476a45406030",
}
K11_TREE_DIGESTS = {
    "words": "32b12b21b91d8d6a35f6e91a77be6b5da5b30ee7e282ea924937fd23537adab2",
    "parens": "4a7f4af53665f407edac0472a42c0d44eafed8031729cc42786a120ceb3fe911",
    "dot": "9c93a84a3e854932b6aa560963d6416215e2f44a4bd3845d157eeee63a712c6d",
}
K12_PARENS_DIGEST = (
    "e3d8fafacd775000a58a123fba31e063f041ef9e66e16942bdf4392645bd43a4")
# a streamed k = 12 listing holds a few write batches, not its 208,012 lines
LISTING_PEAK_BYTES = 8 * 2 ** 20
ORBIT_DIGESTS = {
    2: "6b619454041dc300975d0be74ac69bd98b2ad7d63b4d048858f40b10381813db",
    3: "e9b5ec27b966f1f5fe4f3c2506e988f13eef57200b935108c0f11440c23318a4",
    4: "75a1cc38e62cf92d575d54c550742758bebb672023f5e6d2b92c74b3c9b110c0",
    5: "f0c5a91d9c3ebf01661eed86dd7ee95d0ab28a2b7eeb98684e97537cdfafd6a6",
    6: "51cc1baed17ac9363534aaa2ea66f0baa46143b2ca643aa9d91eb904e9e6c37f",
    7: "d5ea37b15667568368fbcb6841a5e517df98ab83febb28bf99a1584b5ff70a8b",
    8: "f4964050074d4e6e3fa92d674d07301100b298c1e6feeff9f5004c4005e10577",
    9: "0cb0d23167ca0ed925cc88f863f624ea2a5b6df7f68f32cee068216948c75d34",
}
ORBIT_K10_DIGEST = (
    "1aeef58ca7ec8a8573bef71e4edec8f86c8828a0d46a34678f09f1bbd90131b6")

ANNOTATED_DIGESTS = {
    (3, 1): "80b0a586a2b81d0f725e1fc7222f1917c473fd7272c15c3b2959bc3ada2e36f9",
    (3, 2): "5dd5d870511ed4e9534b20ea250772e71b1409ea91cf39b26023b8d1dd37197b",
    (3, 3): "8eaa4f0262270cbdd20ebd7372565d8ac8013ab306746afe38a3f89b872e38cc",
    (4, 1): "429873ae9627a4f6851518f345a5ce8319ee680a1e214bec26b6f56bba2be04c",
    (4, 2): "6cfa6da9d733a358c7c8c986695d8fb77cdce78f2dfcb8363cbd7bc8843f2fdc",
    (4, 3): "c0f58d984094e57e8d40c0ed8909c87b91a840fdc863613a218af406e418cf7b",
    (4, 4): "c5f1a61e0fd6395457f3597221bb0d12e29a1f0cb6a5aa116a97c67e6b03178d",
    (5, 1): "62710e2589ac9b9fdbe9cce0b63155f646dab106a4f0489409e2af8603f156e9",
    (5, 2): "5e8d981ace17f2cb8189f78b980f28f158399ff559eefde9b212fa4f603463fe",
    (5, 3): "e5c5a2f53bfe5bc7842e5ec68fdb80d1d807b913236874d086718741e72e4dba",
    (5, 4): "50a70e045a1a0310069108636c9e7484993ead029f1f0998d55f0ef0d04a82f9",
    (5, 5): "8bbfd877085c866544baf3831deb6e0f68d37d746429ec72cfa88790e791fac7",
    (6, 1): "a855b5775c06033f44e58a77e0a0d7488da741ff6cfbfdb989f595db08ab9b75",
    (6, 2): "8c76f639b6955e99771bcf1d9cf1b11f5f95c9f9663305047e6087544be323a6",
    (6, 3): "e1ea5ff801cf1a27dbadd551cc7a0d1d9c7bbe7a1d1cc5d3dc5fb548f4140a43",
    (6, 4): "0a9d1b54454be456ccd107c7a5c9d4d95bfc461dd3b595d51188882b53cdf9b8",
    (6, 5): "117ec4b9080c06ac00328677fa79139e90641e6318fe257aa7c76e5bbdbd1b66",
    (6, 6): "79d9d6598561ebc391038f79f35ab9cd64f4798ac679adecc89f0e1fc742fcc0",
    (7, 1): "3cc4e61154fe767e6e3371bf887389ed2de003a1b29b892c7ec660ee73f84d80",
    (7, 2): "f9cd18b41cd8a349a3dc3591794c5cb5cf58dfeee67b647a05b831de209200cf",
    (7, 3): "bc0a5fd1f6de83aaf9a44ee7dfc299ad9ce6767663b71342797d9e11aed64aa9",
    (7, 4): "7d9f05dafe08c5812ec12fe3518db271bc0331e07b8d48f5c0ca4e6f4c7311f1",
    (7, 5): "7b608ae60bb09d94f2a75189ee50828b5a388696174cdec4b20c315074fb97c5",
    (7, 6): "d21a5c1921fb72f3443b258780f0ad38a6e30401006d4c4c7de7c0dbfbfc5a04",
    (7, 7): "66b53ee4178e55f41ad344a59b2cb28f3c4c13df2a1a3d0c32be9e902562b67f",
}

# the grids the grid-report benchmark runs
K10_DIGESTS = {
    2: ('9b17579422c1fd22b1ef0d7c6d72ef62f695cbe0b124eead2188f1fbf2dd6840',
        '3471bdb8d2e1b7177b7657aba8f0396f87e57f520fba19fdab75590d5eed2869'),
    3: ('a35d5915ebea0ed645865d87678cb33c3fb92755f14061e47b13547d8d7731ac',
        '722a6cac7402283cd7ee1a120b9188c03b76979b4d4bcefcd3ec23c4ab6e7c0b'),
    4: ('f894196994d67ee3b4743a62a3fcee0f3f7980aa27df66a3a6beb0da2432bbe5',
        '4b1c80277804b19b3b14c484d3901ae93618d1d74b0ae29091f218e7d71a734f'),
    5: ('2e59880d0056de7fb43c65214e5e5450350adea73eb19a46066fc741dd568765',
        '52a08cb2d7ff7e8f6af585ef0a77cd752465b852a303e9942156b134b395caed'),
    6: ('689e08d67cb513a17b0ecde38ec3ba0cc5c65c502e3c65893e47d8a7665c0bb4',
        '4f7a5b64250b5d9b33775d6042095f72cafc3a81b5e84283f95ffdd3bf5781cb'),
    7: ('6e386d808471cf7a123ec76fb1515772c0594717a22ef968b408e4449f034a20',
        '7bb1a07533eac93142acff9b7872d7b6d715cd6da4aa661278f1bd76c7acb411'),
    8: ('eea4245db26f35cd198c205d85a89a603d12bf6b968e30d3b80c6e550df8cc56',
        'cd488dfd6e7d5b1b3ac4c277b073b34aac4cadc05c14e5dec2239b117f12a987'),
    9: ('efbf7010a04a9d0e08a75825ab849b700bccbdaee46e2202db39bd8979e5f6c3',
        'a0a9eaf19b00591e385be00e0c37d127483fc7a72f17724f40a2f87a67bbbfbb'),
}


# the interior grids one order past the benchmark's
K11_DIGESTS = {
    2: ('ba076b982b8290b18dddec49ff9008bd23cf9ab731599df2f83a74516ac84f19',
        '33489d0af16cf565d6886cc38db1310028d8a372892723fb1304d23def21a58c'),
    3: ('378cb7c7307394d90d3bd4baeee9c7d6b403f4dd30e29df4b1c5155814324093',
        'eda4ae82d0025baf9b34062c4e1fbac5d4f75d5d7ccc7c79e9a841419809157d'),
    4: ('ef7bfe2974d3f39c8f2cf26deb68b7320fb85d76b672a7822944a9306491c34c',
        '0de878b3fa694ca1650306e2ac6051deec4cfbd89ba132e4e77eb4b96f1f2f15'),
    5: ('f2c60416c8cfa1e3f07eea46887d0628f7c3601d5b958ae6d1ca505a7e0d2aa0',
        '5b9cc88fe35c80dec2889b86eeb7302900dc1cbb90d0d1b729626dff73a5eaa6'),
    6: ('62a0cb698599edb347f03a1c50743d060f1e9b556d59b23a43d14e0fa025e749',
        '4a1c5a69fd1f9c4e0e3b9226749577c90238e511752ce5f848407c6855096e1d'),
    7: ('1c0e1efc5888c33db8f5feb04a6f71402231ef3f7571e71a4b7b9fb1b33cc381',
        '8453ce3e6162b5371c0ba0f591b0c667c56555929790f8aff5a106dac2d421ac'),
    8: ('6b5c3e97e1529c5b834b6fb66df53bb8a3b1f04790f071aad36683d54dc719cf',
        '7009f7cde9d261d2bced80774ed41bab60cd4db6f0bd3b9f7440e42e4faf6ae2'),
    9: ('8635e2a059c716b149f4ecd5ff0df20ccf457afcb7d29bdb23644822d8569938',
        'd4c1253a047e89f5a96b106bcfd0fb7b00189b863cc21ca25ae61a3773157512'),
    10: ('2402c1fc5f154293ef93caa2cff0dd49be9a789767e1739f97f05468a648bfc5',
        '556f34dc36afdf61952a4c7b664861bb3ef259fcb3b4129f6a3161b03814e9f2'),
}


# gen's formats of the entry matrix alone, for the interior grids at k = 10
GEN_FORMATS = ("digits", "bullets", "csv", "json")
GEN_K10_DIGESTS = {
    2: ('936aea686ff903e935d1ea0fbeadb77736253440b93dd82007556de701e0ae0b',
        '8f8ef9bcf9784735f7351ca37e9edc50a021c05aa903466ec6573b585da387a0',
        '9066407f3efc0ba15462d702429d096da71f5fc48147ecab45db7840bc35ed27',
        'ce739dae33939f6d7a3026ac08716758f681f0511ede7da1f16fff7789dbbddc'),
    3: ('9870dc73cbfbe6482fc9dbe31634c1e83587d44bcc173e0840b16e54ac3d8535',
        '5e8d78bf35aefb9930343e71a9ae0eb9834670b957fe3e69f164aa5a034ab418',
        'b76841764ad208e6f13d82716f0a124761925d0f39c91aa391d7d32285a85894',
        '4e98f873c13d42b9b653ef033abb8d9f72ac50431dee5611b85cfb6d47c99d74'),
    4: ('7d6acdad517d7a9a6196db05e8bed1b6f91aa7b5f6f4631cdf552b957ff712c1',
        '7354c110f15ce094e0e52a29cf3fac7b311c67cd36b64125211315d9015b3bc8',
        'da64a67722e4cef36f14125c40a6b35934e2a1d78c710ae721682215872e75a1',
        '886cb9aa35a81592ac3c87c18e563e8e78bffa2d5f52481b51c5937825b7c7ed'),
    5: ('9fa09eaffd6dab2e0d5e11af9890fdfe13bd2c10fe5727878e9b598201464727',
        '217cd1a97be90e945b48771e07f46778723197c15cddcf0f31e89c3bb0854e85',
        '64b59cc51bd87bff56ca1a76a7d89d7c53619725bcfce756a1d093b3f7dddac5',
        'ac1853842f1da6e3cf34e396991ad1b17559fb004ee45eb7576ce319ac7d50c6'),
    6: ('2c71fc1036e6b9ebc5819bbcbae7b97eb1f6f46b47072b7863fbc4598a769873',
        'f396eb5bfc69b9781c39e0362eaa61d02eff3bb4367229a1632f14c391b13273',
        '6ec36377f16bc519ffc02e4f17aeb83e1269de54e53336f9a9f154bd4b95e150',
        '3ab0507c00fe39e114d7742e14fcd863c4aeb30717e0ce0d1e98699ef2410bcc'),
    7: ('52b78b98e7c6318d72ec6a04a2021189b499ce318a0007793e42392b57297592',
        '2a37dd7ac831d1a8e6595cc11290756157b11e3aef636eafa3c051d37ed1e4f0',
        '5641d9db85a3c986db2e9cf428f9c97189b17a88bb2e5807823b364896c9d5f2',
        'ac43ba489354f078b3d580b57dc8bf8e7f319a4c301a87300c31a6366f48e2ad'),
    8: ('3cb60156f47796f11841910ec90c66535f1e077fc4eae09f029daec6c917154d',
        '3fcacfe9241b6d130ab97e806240ab43f77b57e8af50ee067efbc3ca18f6cd0e',
        '8b8197a885505d06f35ca146fc45f046b207f01689730a7f52be37708da7c937',
        'e8d2ed04f953129e97fe991f70c46dcab04d1a1f2ed4b78dd8071b3e7802826a'),
    9: ('936aea686ff903e935d1ea0fbeadb77736253440b93dd82007556de701e0ae0b',
        '8f8ef9bcf9784735f7351ca37e9edc50a021c05aa903466ec6573b585da387a0',
        '2ae4e991ad7699d2ac4d5bb2f6292510fbc82c10b2d3edd00bd98aa5384dbc09',
        '16a6ade6a11af1656e9ac7ad2f740bc425e3927cb79c00f6a1f0eb8626a6194d'),
}


def _digest(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("k,i", sorted(DIGESTS))
def test_strips_and_render_bytes_unchanged(k, i, tmp_path):
    grid = ["-k", str(k), "-i", str(i)]
    assert (_digest(tmp_path, ["strips", *grid, "--format", "text"]),
            _digest(tmp_path, ["strips", *grid, "--format", "json"]),
            _digest(tmp_path, ["render", *grid])) == DIGESTS[(k, i)]


@pytest.mark.parametrize("i", sorted(K10_DIGESTS))
def test_k10_strips_json_and_render_bytes_unchanged(i, tmp_path):
    grid = ["-k", "10", "-i", str(i)]
    assert (_digest(tmp_path, ["strips", *grid, "--format", "json"]),
            _digest(tmp_path, ["render", *grid])) == K10_DIGESTS[i]


@pytest.mark.parametrize("i", sorted(K11_DIGESTS))
def test_k11_strips_json_and_render_bytes_unchanged(i, tmp_path):
    grid = ["-k", "11", "-i", str(i)]
    assert (_digest(tmp_path, ["strips", *grid, "--format", "json"]),
            _digest(tmp_path, ["render", *grid])) == K11_DIGESTS[i]


@pytest.mark.parametrize("emit", sorted(TREE_DIGESTS))
def test_tree_listing_bytes_unchanged(emit, tmp_path):
    assert _digest(tmp_path, ["trees", "-k", "10", "--emit", emit]) \
        == TREE_DIGESTS[emit]


@pytest.mark.parametrize("emit", sorted(K11_TREE_DIGESTS))
def test_k11_tree_listing_bytes_unchanged(emit, tmp_path):
    assert _digest(tmp_path, ["trees", "-k", "11", "--emit", emit]) \
        == K11_TREE_DIGESTS[emit]


def test_k12_parens_listing_bytes_unchanged(tmp_path):
    assert _digest(tmp_path, ["trees", "-k", "12", "--emit", "parens"]) \
        == K12_PARENS_DIGEST


@pytest.mark.parametrize("emit", ["words", "parens"])
def test_k12_listing_streams_in_bounded_memory(emit, tmp_path):
    tracemalloc.start()
    try:
        assert main(["trees", "-k", "12", "--emit", emit,
                     "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LISTING_PEAK_BYTES


@pytest.mark.parametrize("k", sorted(ORBIT_DIGESTS))
def test_orbit_census_bytes_unchanged(k, tmp_path):
    assert _digest(tmp_path, ["orbits", "-k", str(k)]) == ORBIT_DIGESTS[k]


def test_orbit_census_past_the_orbit_limit_bytes_unchanged(tmp_path):
    assert _digest(tmp_path, ["orbits", "-k", "10", "--capacity", "705432"]) \
        == ORBIT_K10_DIGEST


@pytest.mark.parametrize("k,i", sorted(ANNOTATED_DIGESTS))
def test_annotated_table_bytes_unchanged(k, i, tmp_path):
    assert _digest(tmp_path, ["gen", "-k", str(k), "-i", str(i),
                              "--format", "annotated"]) \
        == ANNOTATED_DIGESTS[(k, i)]


@pytest.mark.parametrize("i", sorted(GEN_K10_DIGESTS))
def test_k10_entry_formats_bytes_unchanged(i, tmp_path):
    assert tuple(_digest(tmp_path, ["gen", "-k", "10", "-i", str(i),
                                    "--format", fmt])
                 for fmt in GEN_FORMATS) == GEN_K10_DIGESTS[i]
